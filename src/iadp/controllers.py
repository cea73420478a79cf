"""The control laws the closed loop runs, one object per controller.

Each law has ``control(gphi_t, w) -> (u, aux)``, the tanh-saturated input
and any auxiliary policy output, and ``pair(x, u, xdot, du, x0dot, gphi_t,
aux) -> (Y, Theta)``, the regression pair of the critic update: the
regressor and the running cost. ``gphi_t`` is the basis Jacobian transposed,
grad_phi^T (2 x N), as ``kernels.monomial_grad`` returns it; (x, u, xdot) is
the newest measured sample, and du and x0dot are its input increment and the
xdot estimate of the sample one delay earlier. The plant has one input, so
u, du and aux are floats; vectors are sequences of floats and matrices
sequences of rows, as in ``kernels``.

Each law is built from a checked ``SimConfig``, whose Q, beta and c_bar
weight the running cost. IADP is model-free: it reads only the constant
surrogate g_bar (``cfg.g_bar_col``) and is never handed the plant. ZSADP and
TADP are the model-based baselines; they are handed the true plant's g and k
at construction and keep using them when the simulated plant is swapped
mid-run (the robustness stress of the benchmark). Their game weights are
fixed by the comparison: ZSADP's gamma = 1 and TADP's rho = 0.1 are class
constants, like TADP's bound coefficients, and no config key sets them.

A law binds ``kernels._dot(N)`` and ``kernels._vecmat(2, N)`` once, at
construction: v = grad_phi^T w is one bound dot per row, and Y is a^T
grad_phi^T. The rest is written out for the plant's two states, each sum
from 0.0 as the kernels sum: x^T Q x in ``_Law._cost`` from the four Q
floats stored at construction, g . v in ``control``, the baselines' k . v
and h . v in ``aux(v0, v1)``, IADP's regressor input a = g_bar du + x0dot,
and TADP's ||x||^2. See ``kernels`` for which kernels stay looked up through
the module.
"""

import math

import numpy as np

from . import kernels


class _Law:
    """Shared part of the laws: the state and saturation terms of the cost,
    x^T Q x + W(u)."""

    learns = True

    def __init__(self, cfg):
        N = cfg.basis.N
        # a row of grad_phi^T times w, and a^T grad_phi^T
        self.dot_N = kernels._dot(N)
        self.vecmat_2N = kernels._vecmat(2, N)
        # Q00, Q01, Q10, Q11
        self.Q = tuple(cfg.Q.ravel().tolist())
        self.beta = cfg.beta

    def _cost(self, x, u) -> float:
        # x^T Q x, formed as (x^T Q) x
        x0, x1 = x
        q00, q01, q10, q11 = self.Q
        return 0.0 + (0.0 + q00 * x0 + q10 * x1) * x0 + (0.0 + q01 * x0 + q11 * x1) * x1 \
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
        r0, r1 = gphi_t
        g0, g1 = self.g_bar
        gv = 0.0 + g0 * self.dot_N(r0, w) + g1 * self.dot_N(r1, w)
        return kernels.saturated_control(gv, self.beta), None

    def pair(self, x, u, xdot, du, x0dot, gphi_t, aux):
        g0, g1 = self.g_bar
        y0, y1 = x0dot
        a = [du * g0 + y0, du * g1 + y1]
        cdu = self.c_bar * du
        return self.vecmat_2N(a, gphi_t), self._cost(x, u) + cdu * cdu


class _BaselineLaw(_Law):
    """Shared part of the model-based baselines: the saturated law on the
    true g, an auxiliary policy ``aux(v0, v1)`` of v = grad_phi^T w, and the
    Bellman-residual regressor Y = grad_phi xdot. ``g`` and ``k`` are the
    input and disturbance columns, two floats each."""

    def __init__(self, cfg, g, k):
        super().__init__(cfg)
        self.g, self.k = tuple(map(float, g)), tuple(map(float, k))

    def control(self, gphi_t, w):
        r0, r1 = gphi_t
        g0, g1 = self.g
        v0, v1 = self.dot_N(r0, w), self.dot_N(r1, w)
        return kernels.saturated_control(0.0 + g0 * v0 + g1 * v1, self.beta), self.aux(v0, v1)


class ZsadpLaw(_BaselineLaw):
    """Zero-sum-game baseline: aux is the worst-case disturbance estimate
    d_hat = k . grad_phi^T w / (2 gamma^2).

    Theta = x^T Q x + W(u) - gamma d_hat^2.
    """

    gamma = 1.0
    d_scale = 2.0 * (gamma * gamma)

    def aux(self, v0, v1):
        k0, k1 = self.k
        return (0.0 + k0 * v0 + k1 * v1) / self.d_scale

    def pair(self, x, u, xdot, du, x0dot, gphi_t, d_hat):
        Y = self.vecmat_2N(xdot, gphi_t)
        return Y, self._cost(x, u) - self.gamma * (d_hat * d_hat)


class TadpLaw(_BaselineLaw):
    """Transformed-optimal-control baseline with disturbance-bound cost terms.

    h = (I - g g^+) k is the out-of-span disturbance direction; aux is the
    pseudo control v_hat = -h . grad_phi^T w / (2 rho). The bound
    coefficients encode |d| <= (sqrt(2)/2)||x|| and l_M = 0.4 sqrt(2) ||x||.

    Theta = x^T Q x + W(u) + rho v_hat^2 + (l_M^2 + d_M^2) ||x||^2.
    """

    rho = 0.1
    d_M_coeff = math.sqrt(2.0) / 2.0
    l_M_coeff = 0.4 * math.sqrt(2.0)
    v_scale = 2.0 * rho
    bound2 = l_M_coeff ** 2 + d_M_coeff ** 2

    def __init__(self, cfg, g, k):
        super().__init__(cfg, g, k)
        g, k = np.reshape(self.g, (-1, 1)), np.reshape(self.k, (-1, 1))
        self.h = tuple(((np.eye(len(g)) - g @ np.linalg.pinv(g)) @ k)[:, 0].tolist())

    def aux(self, v0, v1):
        h0, h1 = self.h
        return -(0.0 + h0 * v0 + h1 * v1) / self.v_scale

    def pair(self, x, u, xdot, du, x0dot, gphi_t, v_hat):
        Y = self.vecmat_2N(xdot, gphi_t)
        x0, x1 = x
        return Y, self._cost(x, u) + self.rho * (v_hat * v_hat) \
            + self.bound2 * (0.0 + x0 * x0 + x1 * x1)
