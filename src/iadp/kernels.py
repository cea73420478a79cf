"""Hot numeric kernels of the closed loop, on plain Python floats.

The loop's dimensions are tiny (n=2, m=1, N=6 for the default pendulum
set-up), so numpy's per-call dispatch would cost more than the arithmetic.
The kernels take and return floats, and vectors as short sequences of
floats; a matrix is a sequence of rows. Inner products are the built-in
``sum`` of the products, which adds in index order up to Python 3.11 and
compensates rounding from 3.12 on.

Overflow behaves as in numpy: products overflow to inf, and no kernel
raises on inf or nan input (powers are products, not ``**``, and ``sin`` of
a non-finite argument is nan). A diverging run therefore ends in the
engine's divergence checks rather than in an exception.

Callers look the kernels up through the module (``kernels.saturated_control(...)``)
so per-call tracing can wrap them.
"""

import math
from operator import mul

import numpy as np

# argument clamp for atanh: |v/beta| is kept off the boundary
ATANH_MARGIN = 1e-9


def monomial_eval(exponents, x):
    """Evaluate monomial features prod_i x_i**e_i for each row of exponents."""
    N, n = exponents.shape
    out = np.ones(N)
    for k in range(N):
        for i in range(n):
            e = exponents[k, i]
            if e > 0:
                out[k] *= x[i] ** e
    return out


def monomial_partials(exponents):
    """The partial derivatives of the monomial features, for ``monomial_grad``.

    Each partial is a constant times a monomial of lower degree. Returns
    (steps, columns): the monomials are built in order as
    ``table.append(table[s] * x[i])`` for (s, i) in steps, from table =
    [1.0], each from a smaller one times one variable; and columns[j][k] =
    (c, t) with d phi_k/d x_j = c * table[t] (c is 0.0 where x_j does not
    appear in feature k). Computed once per basis.
    """
    E = np.asarray(exponents, dtype=np.int64)
    n = E.shape[1]
    index = {(0,) * n: 0}
    steps = []

    def monomial(powers):
        if powers not in index:
            i = max(j for j, p in enumerate(powers) if p > 0)
            smaller = tuple(p - (j == i) for j, p in enumerate(powers))
            steps.append((monomial(smaller), i))
            index[powers] = len(steps)
        return index[powers]

    columns = []
    for j in range(n):
        column = []
        for row in E.tolist():
            if row[j] == 0:
                column.append((0.0, 0))
            else:
                column.append((float(row[j]),
                               monomial(tuple(e - (i == j) for i, e in enumerate(row)))))
        columns.append(tuple(column))
    return tuple(steps), tuple(columns)


def monomial_grad(partials, x):
    """The transposed Jacobian grad_phi^T of the monomial features at x: row
    j holds d phi_k/d x_j for every feature k. ``partials`` comes from
    ``monomial_partials``. Exact for integer exponents."""
    steps, columns = partials
    table = [1.0]
    for s, i in steps:
        table.append(table[s] * x[i])
    return [[c * table[t] for c, t in column] for column in columns]


def sin(a):
    """math.sin, but nan for +-inf (as numpy) instead of raising."""
    try:
        return math.sin(a)
    except ValueError:
        return math.nan


def dot(a, b) -> float:
    """The inner product sum_i a_i * b_i."""
    return sum(map(mul, a, b))


def matvec(rows, v):
    """The matrix-vector product: [row . v for row in rows]."""
    return [sum(map(mul, row, v)) for row in rows]


def vecmat(v, rows):
    """The vector-matrix product v^T M: sum_j v_j * rows[j], summed in j order
    (v must not be empty)."""
    pairs = zip(v, rows)
    vj, row = next(pairs)
    out = [vj * r for r in row]
    for vj, row in pairs:
        out = [o + vj * r for o, r in zip(out, row)]
    return out


def saturated_control(gmat, gphi_t, w, beta):
    """u = -beta * tanh(g^T (grad_phi^T w) / (2 beta)), clamped off +-beta.

    ``gphi_t`` is grad_phi^T (n x N), as ``monomial_grad`` returns it.
    """
    v = matvec(gphi_t, w)
    scale = 2.0 * beta
    lim = beta - 1e-12
    u = []
    for col in zip(*gmat):
        z = sum(map(mul, col, v))
        uj = -beta * math.tanh(z / scale)
        # nan fails both tests and passes through, as in np.clip
        if uj > lim:
            uj = lim
        elif uj < -lim:
            uj = -lim
        u.append(uj)
    return u


def penalty_sat(v, beta):
    """Saturation penalty 2*b*v*atanh(v/b) + b^2*log(1 - v^2/b^2), summed."""
    total = 0.0
    for vj in v:
        s = vj / beta
        if s > 1.0 - ATANH_MARGIN:
            s = 1.0 - ATANH_MARGIN
        elif s < -1.0 + ATANH_MARGIN:
            s = -1.0 + ATANH_MARGIN
        total += beta * beta * (2.0 * s * math.atanh(s) + math.log1p(-s * s))
    return total


def weight_derivative_kernel(w, Y, resid, M, b, gamma, k_c, k_e):
    """Off-policy critic update: gradient of the current + replayed residuals.

    Returns -Gamma (k_c resid Y + k_e (b + M w)), which is -Gamma * grad_w of
    0.5*k_c*(theta + w.Y)^2 + 0.5*k_e*sum_l (theta_l + w.Y_l)^2: ``resid``
    is the current residual theta + w.Y, and (M, b) = (sum_l Y_l Y_l^T,
    sum_l theta_l Y_l) is the replay buffer's Gram summary, so the replayed
    residuals are exact against the live weights without being re-formed.
    A stored row with ||Y_l||^2 > 1.8e308 overflows M, and the result is
    then non-finite. ``gamma`` and ``M`` are given as rows. The result comes
    back as a list, or as an array when ``w`` is one.
    """
    kr = k_c * resid
    # the sign goes on the sum: negation is exact, so -Gamma v and
    # Gamma (-v) are the same floats
    acc = [-(kr * yj + k_e * (bj + mwj)) for yj, bj, mwj in zip(Y, b, matvec(M, w))]
    out = matvec(gamma, acc)
    return np.array(out) if isinstance(w, np.ndarray) else out


def _pendulum_rhs(x0, x1, u0, p, dist, t):
    """RHS of the parametric pendulum family.

    p = (a, b, c, g2, k1, k2) encodes f = [a*x2, b*sin(x1) + c*x2],
    g = [0, g2], k = [k1, k2]. dist = (w1, w2, sq_on, A, period, t_on, t_off)
    encodes the scalar disturbance d = w1*x1*sin(w2*x2) + square(t).
    """
    a, b, c, g2, k1, k2 = p
    w1, w2, sq_on, amp, period, t_on, t_off = dist
    d = w1 * x0 * sin(w2 * x1)
    if sq_on != 0.0 and t_on <= t < t_off:
        phase = (t - t_on) % period
        d += amp if phase < 0.5 * period else -amp
    return a * x1 + k1 * d, b * sin(x0) + c * x1 + g2 * u0 + k2 * d


def pendulum_rk4(x, u0, p, dist, t, dt):
    """Classical RK4 step of the parametric pendulum under zero-order hold;
    returns the new state as a tuple."""
    x0, x1 = x
    h = 0.5 * dt
    a0, a1 = _pendulum_rhs(x0, x1, u0, p, dist, t)
    b0, b1 = _pendulum_rhs(x0 + h * a0, x1 + h * a1, u0, p, dist, t + h)
    c0, c1 = _pendulum_rhs(x0 + h * b0, x1 + h * b1, u0, p, dist, t + h)
    d0, d1 = _pendulum_rhs(x0 + dt * c0, x1 + dt * c1, u0, p, dist, t + dt)
    s = dt / 6.0
    return (x0 + s * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            x1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1))
