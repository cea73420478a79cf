"""The control laws the closed loop runs, one object per controller.

Each law has ``control(gphi, w) -> (u, aux)``, the tanh-saturated input and
any auxiliary policy output, and ``pair(now, rec, gphi, aux) -> (Y, Theta)``,
the regression pair of the critic update: the regressor and the running
cost. ``now`` is the newest delay-line sample and ``rec`` its increments
against the sample one delay earlier.

IADP is model-free: it reads only the constant surrogate g_bar. ZSADP and
TADP are the model-based baselines; they capture the true plant's g and k at
construction and keep using them even if the simulated plant is swapped
mid-run (the robustness stress of the benchmark), unless explicitly re-bound.
"""

import numpy as np

from . import kernels
from .critic import CostConfig
from .tde import IncrementalModelConfig


class _Law:
    """Shared part of the laws: the state and saturation terms of the cost,
    x^T Q x + W(u), and no reaction to a plant swap."""

    learns = True

    def __init__(self, cost: CostConfig):
        self.Q = cost.Q
        self.beta = cost.beta

    def _cost(self, now) -> float:
        x = now.x
        return float(x @ self.Q @ x) + kernels.penalty_sat(now.u, self.beta)

    def rebind(self, g, k) -> None:
        """Take the plant matrices after a swap; model-free laws ignore them."""


class ZeroLaw(_Law):
    """u = 0 at every step; the critic is not trained."""

    learns = False

    def __init__(self, m: int):
        self.u = np.zeros(m)

    def control(self, gphi, w):
        return self.u, None


class IadpLaw(_Law):
    """u = -beta tanh(g_bar^T grad_phi^T w / (2 beta)).

    Y = grad_phi (g_bar du + x0dot); Theta = x^T Q x + W(u) + c_bar^2 ||du||^2.
    """

    def __init__(self, imc: IncrementalModelConfig, cost: CostConfig):
        super().__init__(cost)
        self.g_bar = imc.g_bar
        self.c_bar2 = cost.c_bar ** 2

    def control(self, gphi, w):
        return kernels.saturated_control(self.g_bar, gphi, w, self.beta), None

    def pair(self, now, rec, gphi, aux):
        du = rec.du
        Y = gphi @ (self.g_bar @ du + rec.x0dot)
        return Y, self._cost(now) + self.c_bar2 * float(du @ du)


class _BaselineLaw(_Law):
    """Shared part of the model-based baselines: the saturated law on the
    true g, an auxiliary policy ``aux(grad_phi^T w)``, and the
    Bellman-residual regressor Y = grad_phi xdot."""

    def __init__(self, g, k, cost: CostConfig):
        super().__init__(cost)
        self.rebind(g, k)

    def rebind(self, g, k) -> None:
        self.g = np.asarray(g, dtype=float).reshape(len(g), -1)
        self.k = np.asarray(k, dtype=float).reshape(len(k), -1)

    def control(self, gphi, w):
        u = kernels.saturated_control(self.g, gphi, w, self.beta)
        return u, self.aux(gphi.T @ w)


class ZsadpLaw(_BaselineLaw):
    """Zero-sum-game baseline: aux is the worst-case disturbance estimate
    d_hat = k^T grad_phi^T w / (2 gamma^2).

    Theta = x^T Q x + W(u) - gamma ||d_hat||^2.
    """

    def __init__(self, g, k, gamma: float, cost: CostConfig):
        self.gamma = gamma
        self.d_scale = 2.0 * gamma ** 2
        super().__init__(g, k, cost)

    def aux(self, v):
        return self.k.T @ v / self.d_scale

    def pair(self, now, rec, gphi, d_hat):
        Y = gphi @ now.xdot
        return Y, self._cost(now) - self.gamma * float(d_hat.T @ d_hat)


class TadpLaw(_BaselineLaw):
    """Transformed-optimal-control baseline with disturbance-bound cost terms.

    h = (I - g g^+) k is the out-of-span disturbance direction; aux is the
    pseudo control v_hat = -h^T grad_phi^T w / (2 rho). The bound
    coefficients encode |d| <= (sqrt(2)/2)||x|| and l_M = 0.4 sqrt(2) ||x||.

    Theta = x^T Q x + W(u) + rho ||v_hat||^2 + (l_M^2 + d_M^2) ||x||^2.
    """

    d_M_coeff = np.sqrt(2.0) / 2.0
    l_M_coeff = 0.4 * np.sqrt(2.0)

    def __init__(self, g, k, rho: float, cost: CostConfig):
        self.rho = rho
        self.v_scale = 2.0 * rho
        self.bound2 = self.l_M_coeff ** 2 + self.d_M_coeff ** 2
        super().__init__(g, k, cost)

    def rebind(self, g, k) -> None:
        """Take new plant matrices and recompute h."""
        super().rebind(g, k)
        n = self.g.shape[0]
        self.h = (np.eye(n) - self.g @ np.linalg.pinv(self.g)) @ self.k

    def aux(self, v):
        return -self.h.T @ v / self.v_scale

    def pair(self, now, rec, gphi, v_hat):
        x = now.x
        Y = gphi @ now.xdot
        return Y, self._cost(now) + self.rho * float(v_hat.T @ v_hat) \
            + self.bound2 * float(x @ x)
