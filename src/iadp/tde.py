"""Time-delay estimation: the xdot estimate, the input-map surrogate and the
xi diagnostic.

The controller never sees the plant; it sees (x, xdot, u) samples. The
engine keeps the sample one delay L = dt back, estimates xdot by a backward
difference, and forms the increments (dx_dot, du, x0dot) that stand in for
the unknown dynamics. The TDE error xi is reconstructed here for diagnostics
only.
"""

import numpy as np

from . import kernels
from .plant import ConfigurationError


class IncrementalModelConfig:
    """Constant input-map surrogate g_bar, the one input's column, and its
    left pseudo-inverse g_bar^+ (g_bar^+ . g_bar = 1), n floats each.

    ``g_bar`` may come as a column, a row or a flat vector.
    """

    def __init__(self, g_bar):
        g = np.asarray(g_bar, dtype=float).reshape(-1, 1)
        if np.linalg.matrix_rank(g) < 1:
            raise ConfigurationError("g_bar must have full column rank")
        self.g_bar = tuple(g[:, 0].tolist())
        # pinv, not g / (g . g): the closed form rounds 1/0.1 to 9.999999999999998
        self.g_bar_pinv = tuple(np.linalg.pinv(g)[0].tolist())


def backward_difference(x_prev, x, dt: float) -> list:
    """Backward-difference state derivative (x(t) - x(t-dt))/dt."""
    return [(xb - xa) / dt for xa, xb in zip(x_prev, x)]


def tde_error(dx_dot, du: float, imc: IncrementalModelConfig) -> float:
    """Diagnostic TDE error xi = g_bar^+ . dx_dot - du (zero iff the incremental
    model reproduces the measured increment exactly)."""
    return kernels.dot(imc.g_bar_pinv, dx_dot) - du
