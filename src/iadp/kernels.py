"""Hot numeric kernels of the closed loop, on plain Python floats.

The loop's dimensions are tiny (n=2 states, one input, N=6 features for
the default pendulum set-up), so numpy's per-call dispatch would cost more
than the arithmetic. The kernels take and return floats, and vectors as
short sequences of floats; a matrix is a sequence of rows. The input u is
one float.

``pendulum_rhs`` and ``pendulum_rk4`` are the plant: the pendulum family's
right-hand side and its RK4 step, the one plant model the engine runs.
``disturbance_value`` is the one disturbance, evaluated once per state and
time: the right-hand side takes its value d as an argument. The engine
calls it, as a ``sim`` module global, at each row's (x, t) for the log's
``d`` column and hands that d to RK4 as stage 1's; RK4 calls it, as this
module's global, at stages 2-4.

``dot``, ``_vecmat``, ``weight_derivative_kernel`` and ``_euler`` (the
critic's Euler step w + dt*d and whether every entry is finite) run
straight-line code generated once per basis size N (by the plant's two
states for ``_vecmat``); the source holds only names, and matrices and
gains are arguments. The basis gradient is generated once per basis, from
its exponents: each partial is one product, its exponent times the
variables in index order.
Sums run in index order from 0.0, ((0.0 + p0) + p1) + ..., on every Python:
this equals the built-in ``sum`` on 3.11, and no kernel calls ``sum``, which
is compensated from 3.12. The step's arithmetic on the plant's two states
alone is written out, with the same sums from 0.0, where its concept lives:
the backward difference and the TDE error in ``tde``; x^T Q x, g . v, the
baselines' k . v and h . v, IADP's regressor input and TADP's ||x||^2 in
``controllers``; ||x||^2 in the engine; and the running mean square and the
noise add in ``plant``.

Overflow behaves as in numpy: products overflow to inf, and no kernel
raises on inf or nan input: powers are products, not ``**``, and the two
sines, in ``disturbance_value`` and ``pendulum_rhs``, guard ``math.sin``
inline, so +-inf gives nan (``math.sin`` would raise) and a nan argument
passes through ``math.sin`` with its sign and payload. A diverging run
therefore ends in the engine's divergence checks rather than in an
exception.

Five kernels are looked up through the module on every call
(``kernels.saturated_control(...)``): ``monomial_grad``, ``saturated_control``,
``penalty_sat``, ``weight_derivative_kernel`` and ``pendulum_rk4``. Per-call
tracing wraps them there, and tests patch them there, before an episode
starts. The shape kernels are bound instead, so a step makes no per-call
``len`` and cache lookup: a control law takes ``_dot(N)`` and
``_vecmat(2, N)`` at construction, and an episode takes ``_dot(N)`` and
``_euler(N)`` at its start. ``dot`` is the one generic wrapper left; it
serves what runs off the step path: the replay buffer's Gram rebuild, the
checks and the tests.
"""

import functools
import math

import numpy as np

# argument clamp for atanh: |v/beta| is kept off the boundary
ATANH_MARGIN = 1e-9
# the control is clamped to |u| <= beta - SATURATION_MARGIN, and the engine
# faults on any |u| beyond it
SATURATION_MARGIN = 1e-12
BETA_MAX = 1e100  # the largest beta; above it W(u) = beta^2 q underflows for small u


def _compile(name, params, lines, **scope):
    """The function ``def name(params):`` with the given body lines; ``scope``
    holds the globals the body reads."""
    exec(f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines), scope)
    return scope[name]


def _names(prefix, rows, cols=None):
    """Names prefix0.. of a vector, or rows of names prefix0_0.. of a matrix."""
    if cols is None:
        return [f"{prefix}{i}" for i in range(rows)]
    return [_names(f"{prefix}{i}_", cols) for i in range(rows)]


def _pack(items):
    """A tuple display, or an unpacking target, of names; lists nest."""
    return "(" + "".join(f"{_pack(i) if isinstance(i, list) else i}, " for i in items) + ")"


def _sum(row, v):
    """Sum of row_i * v_i from 0.0 in index order, as ``sum`` adds (so -0.0 sums to 0.0)."""
    return " + ".join(["0.0", *map("{} * {}".format, row, v)])


@functools.lru_cache(maxsize=None)
def _dot(n):
    a, b = _names("a", n), _names("b", n)
    return _compile("dot", "a, b", [f"{_pack([a, b])} = a, b", f"return {_sum(a, b)}"])


@functools.lru_cache(maxsize=None)
def _vecmat(J, K):
    v, rows = _names("v", J), _names("r", J, K)
    # from the first product, as the sum of scaled rows adds
    out = (" + ".join(map("{} * {}".format, v, col)) for col in zip(*rows))
    return _compile("vecmat", "v, rows", [
        f"{_pack([v, rows])} = v, rows", f"return [{', '.join(out)}]"])


@functools.lru_cache(maxsize=None)
def _euler(N):
    w, d, o = _names("w", N), _names("d", N), _names("o", N)
    return _compile("euler", "w, d, dt", [
        f"{_pack([w, d])} = w, d",
        *map("{} = {} + dt * {}".format, o, w, d),
        f"return [{', '.join(o)}], {' and '.join(map('isfinite({})'.format, o))}"],
        isfinite=math.isfinite)


@functools.lru_cache(maxsize=None)
def _weight_derivative(N):
    w, y, b, a = (_names(p, N) for p in "wyba")
    M, G = _names("m", N, N), _names("g", N, N)
    # the sign goes on the sum: negation is exact, so -Gamma v and
    # Gamma (-v) are the same floats
    acc = (f"{a[j]} = -(kr * {y[j]} + k_e * ({b[j]} + ({_sum(M[j], w)})))"
           for j in range(N))
    return _compile("weight_derivative", "w, Y, resid, M, b, gamma, k_c, k_e", [
        f"{_pack([w, y, b, M, G])} = w, Y, b, M, gamma", "kr = k_c * resid", *acc,
        f"return [{', '.join(_sum(g, a) for g in G)}]"])


def monomial_partials(exponents):
    """The compiled basis gradient x -> grad_phi^T, for ``monomial_grad``.

    d phi_k/d x_j is written as one product, c * (x_i * ...): c is the
    exponent of x_j in feature k, and the factors are the variables of the
    monomial of one lower degree in x_j, in index order. A partial with no
    factor is c alone, and one of a variable absent from feature k is 0.0.
    """
    rows = np.asarray(exponents, dtype=np.int64).tolist()
    x = _names("x", len(rows[0]))

    def partial(row, j):
        if not row[j]:
            return "0.0"
        c = repr(float(row[j]))
        factors = " * ".join(x[i] for i, e in enumerate(row) for _ in range(e - (i == j)))
        return f"{c} * ({factors})" if factors else c

    grad = (f"[{', '.join(partial(row, j) for row in rows)}]" for j in range(len(x)))
    return _compile("monomial_grad", "x", [f"{_pack(x)} = x", f"return [{', '.join(grad)}]"])


def monomial_grad(partials, x):
    """The transposed Jacobian grad_phi^T of the monomial features at x: row
    j holds d phi_k/d x_j for every feature k. ``partials`` comes from
    ``monomial_partials``. Exact for integer exponents."""
    return partials(x)


def dot(a, b) -> float:
    """The inner product sum_i a_i * b_i of two equal-length vectors."""
    return _dot(len(a))(a, b)


def saturated_control(gv, beta):
    """u = -beta * tanh(gv / (2 beta)), clamped to +-(beta - SATURATION_MARGIN).

    ``gv`` is g . v: the input column g (two floats) times v = grad_phi^T w,
    the critic's state gradient, which is ``monomial_grad``'s grad_phi^T
    (2 x N) times the weights. The law forms each v_j with its bound
    ``_dot(N)`` and writes g . v out.
    """
    u = -beta * math.tanh(gv / (2.0 * beta))
    lim = beta - SATURATION_MARGIN
    # nan fails both tests and passes through, as in np.clip
    if u > lim:
        return lim
    if u < -lim:
        return -lim
    return u


def penalty_sat(u, beta):
    """Saturation penalty 2*b*u*atanh(u/b) + b^2*log(1 - u^2/b^2) = b^2*q of the
    input u; at b <= BETA_MAX, W(u)/u^2 is 1 within 2 ulps down to u = 1e-54."""
    s = u / beta
    if s > 1.0 - ATANH_MARGIN:
        s = 1.0 - ATANH_MARGIN
    elif s < -1.0 + ATANH_MARGIN:
        s = -1.0 + ATANH_MARGIN
    q = 2.0 * s * math.atanh(s) + math.log1p(-s * s)
    return beta * beta * q


def weight_derivative_kernel(w, Y, resid, M, b, gamma, k_c, k_e):
    """Off-policy critic update: gradient of the current + replayed residuals.

    Returns -Gamma (k_c resid Y + k_e (b + M w)), which is -Gamma * grad_w of
    0.5*k_c*(theta + w.Y)^2 + 0.5*k_e*sum_l (theta_l + w.Y_l)^2: ``resid``
    is the current residual theta + w.Y, and (M, b) = (sum_l Y_l Y_l^T,
    sum_l theta_l Y_l) is the replay buffer's Gram summary, so the replayed
    residuals are exact against the live weights without being re-formed.
    A stored row with ||Y_l||^2 > 1.8e308 overflows M, and the result is
    then non-finite. ``gamma`` and ``M`` are given as rows; the result is a
    list.
    """
    return _weight_derivative(len(w))(w, Y, resid, M, b, gamma, k_c, k_e)


def disturbance_value(x0, x1, dist, t):
    """The scalar disturbance d = w1*x1*sin(w2*x2) + square(t) at (x0, x1) and t.

    dist = (w1, w2, A, period, t_on, t_off). The square wave is +A on the
    first half of each period from t_on and -A on the second, while
    t_on <= t < t_off; an empty window (t_on = t_off) has none.
    """
    w1, w2, amp, period, t_on, t_off = dist
    a = w2 * x1
    # math.sin raises on +-inf: nan there, as numpy; a nan a passes with its bits
    d = w1 * x0 * (math.sin(a) if a - a == 0.0 or a != a else math.nan)
    if t_on <= t < t_off:
        phase = (t - t_on) % period
        d += amp if phase < 0.5 * period else -amp
    return d


def pendulum_rhs(x0, x1, u, p, d):
    """xdot = f(x) + g u + k d of the pendulum family at (x0, x1), u and the
    disturbance value d.

    p = (a, b, c, g2, k1, k2) encodes f = [a*x2, b*sin(x1) + c*x2],
    g = [0, g2], k = [k1, k2]; d is ``disturbance_value`` at the same state
    and time.
    """
    a, b, c, g2, k1, k2 = p
    # math.sin raises on +-inf: nan there, as numpy; a nan x0 passes with its bits
    s = math.sin(x0) if x0 - x0 == 0.0 or x0 != x0 else math.nan
    return a * x1 + k1 * d, b * s + c * x1 + g2 * u + k2 * d


def pendulum_rk4(x, u, p, dist, t, dt, d):
    """Classical RK4 step of ``pendulum_rhs`` with u held (zero-order hold);
    returns the new state as a tuple.

    d is the disturbance at (x, t), stage 1's, which the engine has already
    evaluated for its log; stages 2-4 evaluate ``disturbance_value`` at their
    own states and times.
    """
    x0, x1 = x
    h = 0.5 * dt
    th = t + h
    a0, a1 = pendulum_rhs(x0, x1, u, p, d)
    y0, y1 = x0 + h * a0, x1 + h * a1
    b0, b1 = pendulum_rhs(y0, y1, u, p, disturbance_value(y0, y1, dist, th))
    y0, y1 = x0 + h * b0, x1 + h * b1
    c0, c1 = pendulum_rhs(y0, y1, u, p, disturbance_value(y0, y1, dist, th))
    y0, y1 = x0 + dt * c0, x1 + dt * c1
    d0, d1 = pendulum_rhs(y0, y1, u, p, disturbance_value(y0, y1, dist, t + dt))
    s = dt / 6.0
    return (x0 + s * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            x1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1))
