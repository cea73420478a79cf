"""The control laws the closed loop runs, one object per controller.

Each law has ``control(gphi_t, w) -> (u, aux)``, the tanh-saturated input
and any auxiliary policy output, and ``pair(x, u, xdot, du, x0dot, gphi_t,
aux) -> (Y, Theta)``, the regression pair of the critic update: the
regressor and the running cost. ``gphi_t`` is the basis Jacobian transposed,
grad_phi^T (n x N), as ``kernels.monomial_grad`` returns it; (x, u, xdot) is
the newest measured sample, and du and x0dot are its input increment and the
xdot estimate of the sample one delay earlier. The plant has one input, so
u, du and aux are floats; vectors are sequences of floats and matrices
sequences of rows, as in ``kernels``.

IADP is model-free: it reads only the constant surrogate g_bar. ZSADP and
TADP are the model-based baselines; they capture the true plant's g and k at
construction and keep using them when the simulated plant is swapped mid-run
(the robustness stress of the benchmark).
"""

import math

import numpy as np

from . import kernels
from .critic import CostConfig
from .tde import IncrementalModelConfig


class _Law:
    """Shared part of the laws: the state and saturation terms of the cost,
    x^T Q x + W(u)."""

    learns = True

    def __init__(self, cost: CostConfig):
        self.Q_cols = tuple(zip(*cost.Q.tolist()))
        self.beta = cost.beta

    def _cost(self, x, u) -> float:
        # x^T Q x, formed as (x^T Q) x
        return kernels.dot(kernels.matvec(self.Q_cols, x), x) \
            + kernels.penalty_sat(u, self.beta)


class ZeroLaw:
    """u = 0 at every step; the critic is not trained."""

    learns = False

    def control(self, gphi_t, w):
        return 0.0, None


class IadpLaw(_Law):
    """u = -beta tanh(g_bar . grad_phi^T w / (2 beta)).

    Y = grad_phi (g_bar du + x0dot); Theta = x^T Q x + W(u) + c_bar^2 du^2.
    """

    def __init__(self, imc: IncrementalModelConfig, cost: CostConfig):
        super().__init__(cost)
        self.g_bar = imc.g_bar
        self.c_bar2 = cost.c_bar * cost.c_bar

    def control(self, gphi_t, w):
        return kernels.saturated_control(
            self.g_bar, kernels.matvec(gphi_t, w), self.beta), None

    def pair(self, x, u, xdot, du, x0dot, gphi_t, aux):
        a = [du * g + x0 for g, x0 in zip(self.g_bar, x0dot)]
        return kernels.vecmat(a, gphi_t), self._cost(x, u) + self.c_bar2 * (du * du)


class _BaselineLaw(_Law):
    """Shared part of the model-based baselines: the saturated law on the
    true g, an auxiliary policy ``aux(grad_phi^T w)``, and the
    Bellman-residual regressor Y = grad_phi xdot. ``g`` and ``k`` are the
    input and disturbance columns, n floats each."""

    def __init__(self, g, k, cost: CostConfig):
        super().__init__(cost)
        self.g, self.k = tuple(map(float, g)), tuple(map(float, k))

    def control(self, gphi_t, w):
        v = kernels.matvec(gphi_t, w)
        return kernels.saturated_control(self.g, v, self.beta), self.aux(v)


class ZsadpLaw(_BaselineLaw):
    """Zero-sum-game baseline: aux is the worst-case disturbance estimate
    d_hat = k . grad_phi^T w / (2 gamma^2).

    Theta = x^T Q x + W(u) - gamma d_hat^2.
    """

    def __init__(self, g, k, gamma: float, cost: CostConfig):
        self.gamma = gamma
        self.d_scale = 2.0 * (gamma * gamma)
        super().__init__(g, k, cost)

    def aux(self, v):
        return kernels.dot(self.k, v) / self.d_scale

    def pair(self, x, u, xdot, du, x0dot, gphi_t, d_hat):
        Y = kernels.vecmat(xdot, gphi_t)
        return Y, self._cost(x, u) - self.gamma * (d_hat * d_hat)


class TadpLaw(_BaselineLaw):
    """Transformed-optimal-control baseline with disturbance-bound cost terms.

    h = (I - g g^+) k is the out-of-span disturbance direction; aux is the
    pseudo control v_hat = -h . grad_phi^T w / (2 rho). The bound
    coefficients encode |d| <= (sqrt(2)/2)||x|| and l_M = 0.4 sqrt(2) ||x||.

    Theta = x^T Q x + W(u) + rho v_hat^2 + (l_M^2 + d_M^2) ||x||^2.
    """

    d_M_coeff = math.sqrt(2.0) / 2.0
    l_M_coeff = 0.4 * math.sqrt(2.0)

    def __init__(self, g, k, rho: float, cost: CostConfig):
        self.rho = rho
        self.v_scale = 2.0 * rho
        self.bound2 = self.l_M_coeff ** 2 + self.d_M_coeff ** 2
        super().__init__(g, k, cost)
        g, k = np.reshape(self.g, (-1, 1)), np.reshape(self.k, (-1, 1))
        self.h = tuple(((np.eye(len(g)) - g @ np.linalg.pinv(g)) @ k)[:, 0].tolist())

    def aux(self, v):
        return -kernels.dot(self.h, v) / self.v_scale

    def pair(self, x, u, xdot, du, x0dot, gphi_t, v_hat):
        Y = kernels.vecmat(xdot, gphi_t)
        return Y, self._cost(x, u) + self.rho * (v_hat * v_hat) \
            + self.bound2 * kernels.dot(x, x)
