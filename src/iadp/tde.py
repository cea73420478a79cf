"""Time-delay estimation: the xdot estimate and the xi diagnostic.

The controller never sees the plant; it sees (x, xdot, u) samples. The
engine keeps the sample one delay L = dt back, estimates xdot by a backward
difference, and forms the increments (dx_dot, du, x0dot) that stand in for
the unknown dynamics. The TDE error xi is reconstructed here for diagnostics
only. The input-map surrogate g_bar and its left pseudo-inverse g_bar^+ are
resolved and checked by ``SimConfig`` (``g_bar_col``, ``g_bar_pinv``).
"""


def backward_difference(x_prev, x, dt: float) -> list:
    """Backward-difference state derivative (x(t) - x(t-dt))/dt."""
    return [(xb - xa) / dt for xa, xb in zip(x_prev, x)]


def tde_error(dx_dot, du: float, g_bar_pinv, dot) -> float:
    """Diagnostic TDE error xi = g_bar^+ . dx_dot - du, with g_bar^+ as n
    floats (zero iff the incremental model reproduces the measured increment
    exactly). ``dot`` is the inner product of n-vectors: the engine passes
    the ``kernels._dot(n)`` it binds per episode; ``kernels.dot`` takes any n."""
    return dot(g_bar_pinv, dx_dot) - du
