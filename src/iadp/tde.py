"""Time-delay estimation: the xdot estimate and the xi diagnostic.

The controller never sees the plant; it sees (x, xdot, u) samples. The
engine keeps the sample one delay L = dt back, estimates xdot by a backward
difference, and forms the increments (dx_dot, du, x0dot) that stand in for
the unknown dynamics. The TDE error xi is reconstructed here for diagnostics
only. The input-map surrogate g_bar and its left pseudo-inverse g_bar^+ are
resolved and checked by ``SimConfig`` (``g_bar_col``, ``g_bar_pinv``).

``backward_difference`` and ``tde_error`` run the generated
``kernels._difference`` and ``kernels._tde_error`` of their vectors' length;
the engine binds the same kernels per episode.
"""

from . import kernels


def backward_difference(x_prev, x, dt: float) -> list:
    """Backward-difference state derivative (x(t) - x(t-dt))/dt."""
    return kernels._difference(len(x))(x_prev, x, dt)


def tde_error(xdot, x0dot, du: float, g_bar_pinv) -> float:
    """Diagnostic TDE error xi = g_bar^+ . (xdot - x0dot) - du, with g_bar^+
    as n floats (zero iff the incremental model reproduces the measured
    increment exactly)."""
    return kernels._tde_error(len(xdot))(xdot, x0dot, du, g_bar_pinv)
