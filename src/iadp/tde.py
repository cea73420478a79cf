"""Time-delay estimation: the xdot estimate and the xi diagnostic.

The controller never sees the plant; it sees (x, xdot, u) samples. The
engine keeps the sample one delay L = dt back, estimates xdot by a backward
difference, and forms the increments (dx_dot, du, x0dot) that stand in for
the unknown dynamics. The TDE error xi is reconstructed here for diagnostics
only. The input-map surrogate g_bar and its left pseudo-inverse g_bar^+ are
resolved and checked by ``SimConfig`` (``g_bar_col``, ``g_bar_pinv``).

Both bodies are written out for the plant's two states, and the engine
binds these same functions once per episode.
"""


def backward_difference(x_prev, x, dt: float) -> list:
    """Backward-difference state derivative (x(t) - x(t-dt))/dt."""
    a0, a1 = x_prev
    b0, b1 = x
    return [(b0 - a0) / dt, (b1 - a1) / dt]


def tde_error(xdot, x0dot, du: float, g_bar_pinv) -> float:
    """Diagnostic TDE error xi = g_bar^+ . (xdot - x0dot) - du, with g_bar^+
    as two floats (zero iff the incremental model reproduces the measured
    increment exactly). The dot product sums from 0.0, as ``kernels.dot``."""
    a0, a1 = xdot
    b0, b1 = x0dot
    p0, p1 = g_bar_pinv
    return 0.0 + p0 * (a0 - b0) + p1 * (a1 - b1) - du
