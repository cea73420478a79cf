"""Time-delay estimation: the xdot estimate, the input-map surrogate and the
xi diagnostic.

The controller never sees the plant; it sees (x, xdot, u) samples. The
engine keeps the sample one delay L = dt back, estimates xdot by a backward
difference, and forms the increments (dx_dot, du, x0dot) that stand in for
the unknown dynamics. The TDE error xi is reconstructed here for diagnostics
only.
"""

from operator import sub

import numpy as np

from . import kernels
from .plant import ConfigurationError


class IncrementalModelConfig:
    """Constant input-map surrogate g_bar (n x m) and its left pseudo-inverse
    (m x n), both held as tuples of row tuples."""

    def __init__(self, g_bar):
        g = np.atleast_2d(np.asarray(g_bar, dtype=float))
        if g.shape[0] < g.shape[1]:
            g = g.T
        if np.linalg.matrix_rank(g) < g.shape[1]:
            raise ConfigurationError("g_bar must have full column rank")
        self.g_bar = tuple(map(tuple, g.tolist()))
        self.g_bar_pinv = tuple(map(tuple, np.linalg.pinv(g).tolist()))


def backward_difference(x_prev, x, dt: float) -> list:
    """Backward-difference state derivative (x(t) - x(t-dt))/dt."""
    return [(xb - xa) / dt for xa, xb in zip(x_prev, x)]


def tde_error(dx_dot, du, imc: IncrementalModelConfig) -> list:
    """Diagnostic TDE error xi = g_bar^+ dx_dot - du (zero iff the incremental
    model reproduces the measured increment exactly)."""
    return list(map(sub, kernels.matvec(imc.g_bar_pinv, dx_dot), du))
