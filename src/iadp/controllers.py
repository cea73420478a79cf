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

Each law is built from a checked ``SimConfig``, whose Q, beta and c_bar
weight the running cost. IADP is model-free: it reads only the constant
surrogate g_bar (``cfg.g_bar_col``) and is never handed the plant. ZSADP and
TADP are the model-based baselines; they are handed the true plant's g and k
at construction and keep using them when the simulated plant is swapped
mid-run (the robustness stress of the benchmark).

A law binds the shape kernels of its basis's n and N once, at construction;
see ``kernels`` for which kernels stay looked up through the module.
"""

import math

import numpy as np

from . import kernels


class _Law:
    """Shared part of the laws: the state and saturation terms of the cost,
    x^T Q x + W(u)."""

    learns = True

    def __init__(self, cfg):
        n, N = cfg.basis.n, cfg.basis.N
        # x^T Q, grad_phi^T w and a^T grad_phi^T, by shape
        self.dot_n = kernels._dot(n)
        self.matvec_nn = kernels._matvec(n, n)
        self.matvec_nN = kernels._matvec(n, N)
        self.vecmat_nN = kernels._vecmat(n, N)
        self.axpy_n = kernels._axpy(n)
        self.Q_cols = tuple(zip(*cfg.Q.tolist()))
        self.beta = cfg.beta

    def _cost(self, x, u) -> float:
        # x^T Q x, formed as (x^T Q) x
        return self.dot_n(self.matvec_nn(self.Q_cols, x), x) \
            + kernels.penalty_sat(u, self.beta)


class ZeroLaw:
    """u = 0 at every step; the critic is not trained."""

    learns = False

    def control(self, gphi_t, w):
        return 0.0, None


class IadpLaw(_Law):
    """u = -beta tanh(g_bar . grad_phi^T w / (2 beta)).

    Y = grad_phi (g_bar du + x0dot); Theta = x^T Q x + W(u) + (c_bar du)^2.
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        self.g_bar = cfg.g_bar_col
        self.c_bar = cfg.c_bar

    def control(self, gphi_t, w):
        gv = self.dot_n(self.g_bar, self.matvec_nN(gphi_t, w))
        return kernels.saturated_control(gv, self.beta), None

    def pair(self, x, u, xdot, du, x0dot, gphi_t, aux):
        a = self.axpy_n(du, self.g_bar, x0dot)
        cdu = self.c_bar * du
        return self.vecmat_nN(a, gphi_t), self._cost(x, u) + cdu * cdu


class _BaselineLaw(_Law):
    """Shared part of the model-based baselines: the saturated law on the
    true g, an auxiliary policy ``aux(grad_phi^T w)``, and the
    Bellman-residual regressor Y = grad_phi xdot. ``g`` and ``k`` are the
    input and disturbance columns, n floats each."""

    def __init__(self, cfg, g, k):
        super().__init__(cfg)
        self.g, self.k = tuple(map(float, g)), tuple(map(float, k))

    def control(self, gphi_t, w):
        v = self.matvec_nN(gphi_t, w)
        return kernels.saturated_control(self.dot_n(self.g, v), self.beta), self.aux(v)


class ZsadpLaw(_BaselineLaw):
    """Zero-sum-game baseline: aux is the worst-case disturbance estimate
    d_hat = k . grad_phi^T w / (2 gamma^2).

    Theta = x^T Q x + W(u) - gamma d_hat^2.
    """

    def __init__(self, cfg, g, k):
        self.gamma = cfg.gamma
        self.d_scale = 2.0 * (self.gamma * self.gamma)
        super().__init__(cfg, g, k)

    def aux(self, v):
        return self.dot_n(self.k, v) / self.d_scale

    def pair(self, x, u, xdot, du, x0dot, gphi_t, d_hat):
        Y = self.vecmat_nN(xdot, gphi_t)
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

    def __init__(self, cfg, g, k):
        self.rho = cfg.rho
        self.v_scale = 2.0 * self.rho
        self.bound2 = self.l_M_coeff ** 2 + self.d_M_coeff ** 2
        super().__init__(cfg, g, k)
        g, k = np.reshape(self.g, (-1, 1)), np.reshape(self.k, (-1, 1))
        self.h = tuple(((np.eye(len(g)) - g @ np.linalg.pinv(g)) @ k)[:, 0].tolist())

    def aux(self, v):
        return -self.dot_n(self.h, v) / self.v_scale

    def pair(self, x, u, xdot, du, x0dot, gphi_t, v_hat):
        Y = self.vecmat_nN(xdot, gphi_t)
        return Y, self._cost(x, u) + self.rho * (v_hat * v_hat) \
            + self.bound2 * self.dot_n(x, x)
