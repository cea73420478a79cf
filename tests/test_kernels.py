"""Each plain-float kernel against an independent reference: a closed-form
numpy expression, and for the disturbance, the plant's right-hand side and
its RK4 step, d and f(x) + g u + k d in numpy and a numpy RK4 of them.

The kernels sum in index order and numpy in its own, so where a result is
a sum, the tolerance is rtol 1e-13 of the summed magnitudes: the same
expression over absolute values.

The generated linear-algebra kernels and basis gradient are also checked
bit for bit against loop forms of the same arithmetic, on every shape up to
8 and on entries that include +-0, +-inf, nan and subnormals; so are the
one-input saturated_control and penalty_sat, against the per-input loops
they replaced, and the step path's Euler step, backward difference, TDE
error, IADP's regressor input, running mean square and noise add, against
the per-element loops they replaced, on floats and numpy scalars. The
bodies written out for the plant's two states are checked at n = 2, where
they are inlined through ``IadpLaw.pair``, ``NoiseState.update`` and
``add_measurement_noise``; so are the laws' written-out products (x^T Q x,
g . v, k . v, h . v and ||x||^2), through ``_cost``, the ``control``s and
``TadpLaw.pair``, against the loop forms of a matrix-vector product and a
sum.
"""

import functools
import math
import struct
from operator import add, mul, sub
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from iadp import kernels
from iadp.controllers import IadpLaw, TadpLaw, ZsadpLaw
from iadp.critic import DEFAULT_EXPONENTS
from iadp.plant import NoiseSpec, NoiseState, add_measurement_noise
from iadp.scenarios import WORLDS
from iadp.sim import SimConfig
from iadp.tde import backward_difference, tde_error

RTOL = 1e-13
PARTIALS = kernels.monomial_partials(DEFAULT_EXPONENTS)
GAMMA = 1e-4 * np.eye(6)

states = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).map(np.array)
weights = st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6).map(np.array)
controls = st.floats(-2.0, 2.0)
gains = st.floats(0.05, 0.5).map(lambda g: np.array([0.0, g]))
regressors = st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6)


def close(got, ref, scale=0.0):
    """Agreement to RTOL of the result, or of ``scale``, its summed magnitudes."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and np.allclose(
        got, ref, rtol=RTOL, atol=RTOL * np.max(scale, initial=0.0) + 1e-300)


def grad_reference(x):
    # d/dx_j prod_i x_i^e_i = e_j x_j^(e_j - 1) prod_{i != j} x_i^e_i, as (n, N)
    E = DEFAULT_EXPONENTS
    return np.array([
        np.where(E[:, j] > 0, E[:, j] * np.prod(
            x ** np.maximum(E - np.eye(2, dtype=np.int64)[j], 0), axis=1), 0.0)
        for j in range(2)])


def control_reference(g, gphi_t, w, beta):
    u = -beta * np.tanh(g @ (gphi_t @ w) / (2.0 * beta))
    return np.clip(u, -(beta - 1e-12), beta - 1e-12)


def penalty_reference(v, beta):
    s = np.clip(np.asarray(v) / beta, -1 + kernels.ATANH_MARGIN, 1 - kernels.ATANH_MARGIN)
    return float(np.sum(beta ** 2 * (2 * s * np.arctanh(s) + np.log1p(-s * s))))


def derivative_reference(w, Y, theta, Yb, thetab, gamma, k_c, k_e):
    # -Gamma (k_c (theta + w.Y) Y + k_e sum_l (theta_l + w.Y_l) Y_l)
    return -gamma @ (k_c * (theta + w @ Y) * Y + k_e * Yb.T @ (thetab + Yb @ w))


def gram(Yb, thetab):
    """The replay buffer's Gram summary (M, b) of stored rows Yb and targets
    thetab, as rows and a list. Yb has shape (P, N), also when P = 0."""
    Yb = np.asarray(Yb, dtype=float)
    return (Yb.T @ Yb).tolist(), (Yb.T @ np.asarray(thetab, dtype=float)).tolist()


@given(x=states)
def test_monomial_grad_parity(x):
    assert close(kernels.monomial_grad(PARTIALS, tuple(x)), grad_reference(x))


def test_monomial_grad_generic_exponents():
    # three variables, a zero row and a fourth power
    E = np.array([[0, 0, 0], [4, 0, 1], [1, 2, 3]])
    x = (1.5, -0.5, 2.0)
    got = kernels.monomial_grad(kernels.monomial_partials(E), x)
    expect = [[0.0, 4 * 1.5 ** 3 * 2.0, 0.25 * 8.0],
              [0.0, 0.0, 2 * 1.5 * -0.5 * 8.0],
              [0.0, 1.5 ** 4, 3 * 1.5 * 0.25 * 4.0]]
    assert np.allclose(got, expect, rtol=1e-15, atol=0)


@given(x=states, w=weights, g=gains)
def test_saturated_control_parity(x, w, g):
    beta = 2.0
    gphi_t = grad_reference(x)
    ref = control_reference(g, gphi_t, w, beta)
    scale = 0.5 * np.abs(g) @ (np.abs(gphi_t) @ np.abs(w))
    got = kernels.saturated_control(
        kernels.dot(g, matvec_loop(kernels.monomial_grad(PARTIALS, x), w)), beta)
    assert close(got, ref, scale)


@given(v=controls)
def test_penalty_parity(v):
    beta = 2.0
    assert close(kernels.penalty_sat(v, beta), penalty_reference(v, beta))


@given(w=weights, Y=regressors, theta=st.floats(-5.0, 5.0),
       Yb=st.lists(regressors, min_size=0, max_size=8),
       thetab=st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8))
def test_weight_derivative_parity(w, Y, theta, Yb, thetab):
    Yb_a = np.array(Yb).reshape(len(Yb), 6)
    thetab = thetab[:len(Yb)]
    Y_a, thetab_a = np.array(Y), np.array(thetab)
    ref = derivative_reference(w, Y_a, theta, Yb_a, thetab_a, GAMMA, 5.0, 3.0)
    scale = derivative_reference(np.abs(w), np.abs(Y_a), abs(theta), np.abs(Yb_a),
                                 np.abs(thetab_a), -np.abs(GAMMA), 5.0, 3.0)
    M, b = gram(Yb_a, thetab_a)
    resid = theta + kernels.dot(w, Y)
    got = kernels.weight_derivative_kernel(list(w), Y, resid, M, b,
                                           GAMMA.tolist(), 5.0, 3.0)
    assert isinstance(got, list)
    assert close(got, ref, scale)


# s3's disturbance: the vanishing term, and a square wave on [20, 60)
SIG = WORLDS["s3"].disturbance
# the nominal pendulum, then s2's and s3's plants after their swap
PLANTS = (WORLDS["s1"].plant, WORLDS["s2"].events[0].plant, WORLDS["s3"].events[0].plant)


def d_reference(x, t):
    # SIG's w1 x1 sin(w2 x2), plus A (-1)^k on the k-th half-period of its window
    d = SIG.w1 * x[0] * np.sin(SIG.w2 * x[1])
    if SIG.t_on <= t < SIG.t_off:
        d += SIG.amplitude * (-1.0) ** np.floor(2.0 * (t - SIG.t_on) / SIG.period)
    return d


def rhs_reference(plant, x, u0, t):
    # f(x) + g u + k d, with d sampled at (x, t)
    a, b, c, g2, k1, k2 = plant.params
    f = np.array([a * x[1], b * np.sin(x[0]) + c * x[1]])
    return f + np.array([0.0, g2]) * u0 + np.array([k1, k2]) * d_reference(x, t)


def rk4_reference(plant, x, u0, t, dt):
    # classical RK4 with u held and d sampled at the stage states and times
    k1 = rhs_reference(plant, x, u0, t)
    k2 = rhs_reference(plant, x + 0.5 * dt * k1, u0, t + 0.5 * dt)
    k3 = rhs_reference(plant, x + 0.5 * dt * k2, u0, t + 0.5 * dt)
    k4 = rhs_reference(plant, x + dt * k3, u0, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@given(x=states, t=st.floats(0.0, 80.0))
def test_disturbance_value_parity(x, t):
    # both terms, inside and outside the square wave's window
    got = kernels.disturbance_value(*x, SIG.packed(), t)
    assert np.isclose(got, d_reference(x, t), rtol=RTOL, atol=1e-15)


@given(x=states, u0=controls, t=st.floats(0.0, 80.0), k=st.sampled_from(range(3)))
def test_pendulum_rhs_parity(x, u0, t, k):
    # on all three pendulum variants under both disturbance terms
    plant = PLANTS[k]
    got = kernels.pendulum_rhs(*x, u0, plant.params, SIG.packed(), t)
    assert np.allclose(got, rhs_reference(plant, x, u0, t), rtol=RTOL, atol=1e-15)


@given(x=states, u0=controls, t=st.floats(0.0, 80.0), k=st.sampled_from(range(3)))
def test_pendulum_rk4_parity(x, u0, t, k):
    # the step the engine runs, on all three pendulum variants under both
    # disturbance terms
    plant, dt = PLANTS[k], 1e-3
    got = kernels.pendulum_rk4(tuple(x), u0, plant.params, SIG.packed(), t, dt)
    assert np.allclose(got, rk4_reference(plant, x, u0, t, dt), rtol=RTOL, atol=1e-15)


def test_pendulum_rk4_edges(rng):
    # steps straddling the window and square-wave edges
    dt = 1e-3
    for plant in PLANTS:
        for edge in (20.0, 20.5, 21.0, 40.5, 59.5, 60.0):
            x, u0, t = rng.uniform(-3, 3, 2), rng.uniform(-2, 2), edge - 0.5 * dt
            got = kernels.pendulum_rk4(tuple(x), u0, plant.params, SIG.packed(), t, dt)
            assert np.allclose(got, rk4_reference(plant, x, u0, t, dt),
                               rtol=RTOL, atol=1e-15), (plant, t)


@pytest.mark.parametrize("big", [1e300, math.inf])
def test_overflow_gives_inf_or_nan_without_raising(big):
    # numpy returns inf or nan here; so must the float kernels, which would
    # raise if they used ** or math.sin on non-finite input
    w = [big] * 6
    x = (1e200, -1e200)
    gphi_t = kernels.monomial_grad(PARTIALS, x)
    assert not np.all(np.isfinite(gphi_t))
    u = kernels.saturated_control(kernels.dot((0.0, 0.1), matvec_loop(gphi_t, w)), 2.0)
    assert np.isnan(u)  # inf - inf inside grad_phi^T w
    Y = [1e4] * 6
    M, b = gram([Y] * 8, [1.0] * 8)
    got = kernels.weight_derivative_kernel(w, Y, 1.0 + kernels.dot(w, Y), M, b,
                                           np.eye(6).tolist(), 5.0, 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = derivative_reference(np.array(w), np.array(Y), 1.0, np.array([Y] * 8),
                                   np.ones(8), np.eye(6), 5.0, 3.0)
    assert not np.any(np.isfinite(got)) and not np.any(np.isfinite(ref))
    x_next = kernels.pendulum_rk4((math.inf, big), 0.0, PLANTS[0].params, SIG.packed(),
                                  0.0, 1e-3)
    assert not np.all(np.isfinite(x_next))


def test_saturation_clamped_off_boundary():
    # huge weights drive tanh to 1 in float64; the clamp keeps |u| < beta
    gphi_t = kernels.monomial_grad(PARTIALS, (2.0, -2.0))
    u = kernels.saturated_control(
        kernels.dot((0.0, 0.1), matvec_loop(gphi_t, [1e9] * 6)), 2.0)
    assert np.all(np.abs(u) <= 2.0 - 1e-12)
    assert np.all(np.abs(u) > 1.99)


def test_penalty_finite_at_boundary():
    assert np.isfinite(kernels.penalty_sat(2.0, 2.0))


# Loop forms of the generated kernels: the same products and sums, in the
# same order, written as comprehensions.

def seqsum(items):
    """The built-in sum as of Python 3.11: left to right from the int 0."""
    return functools.reduce(add, items, 0)


def matvec_loop(rows, v):
    return [seqsum(map(mul, row, v)) for row in rows]


def vecmat_loop(v, rows):
    pairs = zip(v, rows)
    vj, row = next(pairs)
    out = [vj * r for r in row]
    for vj, row in pairs:
        out = [o + vj * r for o, r in zip(out, row)]
    return out


def weight_derivative_loop(w, Y, resid, M, b, gamma, k_c, k_e):
    kr = k_c * resid
    acc = [-(kr * yj + k_e * (bj + mwj)) for yj, bj, mwj in zip(Y, b, matvec_loop(M, w))]
    return matvec_loop(gamma, acc)


def partials_loop(E):
    """(steps, columns): table.append(table[s] * x[i]) for (s, i) in steps
    from table = [1.0], and d phi_k/d x_j = c * table[t] for (c, t) =
    columns[j][k]."""
    n = len(E[0])
    index = {(0,) * n: 0}
    steps = []

    def monomial(powers):
        if powers not in index:
            i = max(j for j, p in enumerate(powers) if p > 0)
            steps.append((monomial(tuple(p - (j == i) for j, p in enumerate(powers))), i))
            index[powers] = len(steps)
        return index[powers]

    columns = [[(0.0, 0) if row[j] == 0 else
                (float(row[j]), monomial(tuple(e - (i == j) for i, e in enumerate(row))))
                for row in E] for j in range(n)]
    return steps, columns


def grad_loop(partials, x):
    steps, columns = partials
    table = [1.0]
    for s, i in steps:
        table.append(table[s] * x[i])
    return [[c * table[t] for c, t in column] for column in columns]


def bits(values):
    """Each float's IEEE bytes, which tell -0.0 from 0.0, with every nan as one
    nan. A nan result's sign and payload are not fixed by the expression:
    which operand's nan a float add returns differs between CPython's
    generic and specialised add of the same code (f(x, nan) with x = inf -
    inf gives +nan on the first calls and -nan once f is specialised)."""
    return [struct.pack("<d", math.nan if v != v else v) for v in values]


ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                     5e-324, -5e-324, 1e-310, 1e308]),
    st.floats())
SIZES = st.integers(1, 8)


def vectors(k):
    return st.lists(ENTRIES, min_size=k, max_size=k)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows)


@given(st.data())
def test_matvec_vecmat_bitwise(data):
    # grad_phi^T w as the laws form it, one dot per row, and the laws'
    # a^T grad_phi^T
    N = data.draw(SIZES)
    rows = data.draw(matrices(2, N))
    v, u = data.draw(vectors(N)), data.draw(vectors(2))
    assert bits([kernels.dot(rows[0], v), kernels.dot(rows[1], v)]) == \
        bits(matvec_loop(rows, v))
    assert bits(kernels._vecmat(2, N)(u, rows)) == bits(vecmat_loop(u, rows))


def test_dot_sums_in_index_order():
    # a compensated sum, as the built-in is from Python 3.12, gives 1.0
    assert kernels.dot([1e16, 1.0, -1e16], [1.0] * 3) == 0.0


# The per-input loops the scalar saturated_control and penalty_sat replaced,
# kept as their references; the input column's dot product is seqsum, the
# built-in sum they called, as it adds on Python 3.11.

def saturated_control_loop(gmat, v, beta):
    scale = 2.0 * beta
    lim = beta - kernels.SATURATION_MARGIN
    u = []
    for col in zip(*gmat):
        z = seqsum(map(mul, col, v))
        uj = -beta * math.tanh(z / scale)
        if uj > lim:
            uj = lim
        elif uj < -lim:
            uj = -lim
        u.append(uj)
    return u


def penalty_sat_loop(v, beta):
    total = 0.0
    for vj in v:
        s = vj / beta
        if s > 1.0 - kernels.ATANH_MARGIN:
            s = 1.0 - kernels.ATANH_MARGIN
        elif s < -1.0 + kernels.ATANH_MARGIN:
            s = -1.0 + kernels.ATANH_MARGIN
        total += beta * beta * (2.0 * s * math.atanh(s) + math.log1p(-s * s))
    return total


@given(st.data())
def test_scalar_input_kernels_bitwise(data):
    # bits tells -0.0 from 0.0, so zero signs must match too
    n = data.draw(SIZES)
    g, v = data.draw(vectors(n)), data.draw(vectors(n))
    u = data.draw(ENTRIES)
    beta = data.draw(st.one_of(st.just(2.0), st.floats(1e-3, 1e3)))
    column = [[gi] for gi in g]
    assert bits([kernels.saturated_control(kernels.dot(g, v), beta)]) == \
        bits(saturated_control_loop(column, v, beta))
    assert bits([kernels.penalty_sat(u, beta)]) == bits([penalty_sat_loop([u], beta)])


@given(st.data())
def test_weight_derivative_bitwise(data):
    N = data.draw(SIZES)
    w, Y, b = (data.draw(vectors(N)) for _ in range(3))
    M, gamma = data.draw(matrices(N, N)), data.draw(matrices(N, N))
    resid, k_c, k_e = data.draw(vectors(3))
    args = (w, Y, resid, M, b, gamma, k_c, k_e)
    assert bits(kernels.weight_derivative_kernel(*args)) == bits(weight_derivative_loop(*args))


@st.composite
def bases_and_points(draw):
    """An exponent matrix of up to 8 features in up to 8 variables, as
    lists, and a point x."""
    n, N = draw(SIZES), draw(SIZES)
    E = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                      min_size=N, max_size=N))
    return E, draw(vectors(n))


@given(case=bases_and_points())
# a linear feature's partial is its exponent alone, and a product keeps
# -0.0's sign and a nan
@example(case=([[1, 0], [1, 1], [2, 0], [0, 1]], [-0.0, math.nan]))
def test_monomial_grad_bitwise(case):
    # each partial as one product against the chain of monomials from 1.0
    E, x = case
    got = kernels.monomial_grad(kernels.monomial_partials(np.array(E)), x)
    ref = grad_loop(partials_loop(E), x)
    assert len(got) == len(x) and all(len(row) == len(E) for row in got)
    assert bits(sum(got, [])) == bits(sum(ref, []))


# The per-element loops the step path's bodies replaced, kept as their
# references: the Euler step and its flag, the backward difference, the TDE
# error (g_bar^+ . dx_dot - du, the dot from 0.0), IADP's regressor input,
# the running mean square and the noise add. All but the Euler step are
# written out for the plant's two states, and are checked at n = 2.

def euler_loop(w, d, dt):
    out = [wi + dt * di for wi, di in zip(w, d)]
    return out, all(map(math.isfinite, out))


def difference_loop(a, b, dt):
    return [(xb - xa) / dt for xa, xb in zip(a, b)]


def tde_error_loop(a, b, du, p):
    return seqsum(map(mul, p, map(sub, a, b))) - du


def axpy_loop(a, x, y):
    return [a * xi + yi for xi, yi in zip(x, y)]


def mean_square_loop(msq, x, c):
    for i, xi in enumerate(x):
        msq[i] += (xi * xi - msq[i]) / c


def noisy_loop(x, msq, z, scale):
    return [xi + math.sqrt(max(m, 1e-12)) * scale * zi for xi, m, zi in zip(x, msq, z)]


# floats, and the same entries as numpy scalars, which the kernels also take
SCALARS = st.one_of(ENTRIES, ENTRIES.map(np.float64))
# g_bar entries SimConfig accepts in a full-rank column
G_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 0.1]), st.floats(1e-3, 10.0),
                      st.floats(-10.0, -1e-3))


def scalar_vectors(k):
    return st.lists(SCALARS, min_size=k, max_size=k)


@given(st.data())
def test_euler_bitwise(data):
    N = data.draw(SIZES)
    w, d = data.draw(scalar_vectors(N)), data.draw(scalar_vectors(N))
    dt = data.draw(SCALARS)
    with np.errstate(all="ignore"):
        out, finite = kernels._euler(N)(w, d, dt)
        ref, ref_finite = euler_loop(w, d, dt)
    assert bits(out) == bits(ref) and finite is ref_finite


@given(st.data())
def test_tde_kernels_bitwise(data):
    a, b, p = (data.draw(scalar_vectors(2)) for _ in range(3))
    du, dt = data.draw(SCALARS), data.draw(SCALARS.filter(bool))
    with np.errstate(all="ignore"):
        assert bits(backward_difference(a, b, dt)) == bits(difference_loop(a, b, dt))
        assert bits([tde_error(a, b, du, p)]) == bits([tde_error_loop(a, b, du, p)])


def test_tde_error_sums_from_zero():
    # two -0.0 products and du = 0.0: summed from 0.0 xi is 0.0, summed from
    # the first product it would be -0.0
    args = ([-0.0, -0.0], [0.0, 0.0], 0.0, [1.0, 1.0])
    assert bits([tde_error(*args)]) == bits([tde_error_loop(*args)]) == bits([0.0])


@given(st.data())
def test_axpy_bitwise(data):
    # through IadpLaw.pair, whose Y is a^T grad_phi^T for a = g_bar du + x0dot
    g = data.draw(st.lists(G_ENTRIES, min_size=2, max_size=2).filter(any))
    law = IadpLaw(SimConfig(g_bar=[[g[0]], [g[1]]]))
    x0dot, gphi_t = data.draw(scalar_vectors(2)), data.draw(matrices(2, 6))
    du = data.draw(SCALARS)
    with np.errstate(all="ignore"):
        Y, _ = law.pair((0.0, 0.0), 0.0, None, du, x0dot, gphi_t, None)
        ref = vecmat_loop(axpy_loop(du, law.g_bar, x0dot), gphi_t)
    assert bits(Y) == bits(ref)


@given(st.data())
def test_noise_kernels_bitwise(data):
    # through add_measurement_noise and NoiseState.update. A nan msq must
    # stay nan in the noise add, as max(nan, 1e-12) is nan; m if m > 1e-12
    # else 1e-12 would give 1e-12
    x, z, msq = (data.draw(scalar_vectors(2)) for _ in range(3))
    msq[0] = data.draw(st.sampled_from([math.nan, msq[0]]))
    c = data.draw(st.integers(1, 10 ** 6))
    # scales from 1e308 down to 0.0
    snr_db = data.draw(st.floats(-6160.0, 7000.0))
    spec = NoiseSpec(kind="gaussian", snr_db=snr_db, t_on=0.0, t_off=1.0)
    assert bits([spec.scale]) == bits([10.0 ** (-snr_db / 20.0)])
    state = NoiseState(np.random.default_rng(0))
    state.msq, state.count, state.normals = list(msq), c - 1, lambda: z
    ref = list(msq)
    with np.errstate(all="ignore"):
        got = add_measurement_noise(x, spec, 0.5, state)
        assert bits(got) == bits(noisy_loop(x, msq, z, spec.scale))
        state.update(x)
        mean_square_loop(ref, x, c)
    assert state.count == c and bits(state.msq) == bits(ref)


# The laws' two-state products, written out in ``controllers``, against the
# loop forms above: x^T Q x as (x^T Q) x, g . v with v = grad_phi^T w, the
# baselines' k . v and h . v, and TADP's ||x||^2. The laws are built once,
# and each example sets the floats they store. The defaults Q = I and
# g_bar = (0, 0.1) zero the cross terms; drawn values, and an asymmetric Q,
# make a swapped index show.

LAW_CFG = SimConfig()
IADP = IadpLaw(LAW_CFG)
ZSADP = ZsadpLaw(LAW_CFG, (0.0, 1.0), (1.0, 1.0))
TADP = TadpLaw(LAW_CFG, (0.0, 1.0), (1.0, 1.0))
# two -0.0 products: their sum from 0.0 is 0.0, from the first product -0.0
ZERO_SUM = dict(g=[-0.0, -0.0], w=[1.0] * 6, gphi_t=[[1.0] * 6] * 2)


def unsaturated(law, gphi_t, w):
    """law.control with the identity for ``kernels.saturated_control``, which
    it looks up through the module, so u is g . v itself: tanh would map
    most drawn values to +-beta and hide a wrong one."""
    with mock.patch.object(kernels, "saturated_control", lambda gv, beta: gv):
        return law.control(gphi_t, w)


@given(Q=vectors(4), x=scalar_vectors(2), u=SCALARS)
def test_cost_bitwise(Q, x, u):
    q00, q01, q10, q11 = IADP.Q = tuple(Q)
    with np.errstate(all="ignore"):
        got = IADP._cost(x, u)
        xQ = matvec_loop([[q00, q10], [q01, q11]], x)
        ref = seqsum(map(mul, xQ, x)) + kernels.penalty_sat(u, IADP.beta)
    assert bits([got]) == bits([ref])


@given(g=vectors(2), w=vectors(6), gphi_t=matrices(2, 6))
@example(**ZERO_SUM)
def test_iadp_control_bitwise(g, w, gphi_t):
    IADP.g_bar = tuple(g)
    with np.errstate(all="ignore"):
        gv, aux = unsaturated(IADP, gphi_t, w)
        ref = seqsum(map(mul, g, matvec_loop(gphi_t, w)))
    assert aux is None and bits([gv]) == bits([ref])


@given(g=vectors(2), k=vectors(2), h=vectors(2), w=vectors(6), gphi_t=matrices(2, 6))
@example(k=[-0.0, -0.0], h=[-0.0, -0.0], **ZERO_SUM)
def test_baseline_controls_bitwise(g, k, h, w, gphi_t):
    # the true g, ZSADP's k and TADP's h; aux is d_hat and v_hat
    ZSADP.g, ZSADP.k, TADP.g, TADP.h = tuple(g), tuple(k), tuple(g), tuple(h)
    with np.errstate(all="ignore"):
        zsadp, tadp = unsaturated(ZSADP, gphi_t, w), unsaturated(TADP, gphi_t, w)
        v = matvec_loop(gphi_t, w)
        gv = seqsum(map(mul, g, v))
        d_hat = seqsum(map(mul, k, v)) / ZSADP.d_scale
        v_hat = -seqsum(map(mul, h, v)) / TADP.v_scale
    assert bits(zsadp) == bits([gv, d_hat]) and bits(tadp) == bits([gv, v_hat])


@given(Q=vectors(4), x=scalar_vectors(2), xdot=scalar_vectors(2), u=SCALARS,
       v_hat=SCALARS, gphi_t=matrices(2, 6))
def test_tadp_pair_bitwise(Q, x, xdot, u, v_hat, gphi_t):
    # Theta = x^T Q x + W(u) + rho v_hat^2 + bound2 ||x||^2, Y = xdot^T grad_phi^T
    TADP.Q = tuple(Q)
    with np.errstate(all="ignore"):
        Y, theta = TADP.pair(x, u, xdot, 0.0, None, gphi_t, v_hat)
        ref = (TADP._cost(x, u) + TADP.rho * (v_hat * v_hat)
               + TADP.bound2 * seqsum(map(mul, x, x)))
        Y_ref = vecmat_loop(xdot, gphi_t)
    assert bits(Y) == bits(Y_ref) and bits([theta]) == bits([ref])
