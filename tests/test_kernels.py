"""Each plain-float kernel against an independent reference: a closed-form
numpy expression, or the generic RK4 integrator for the fused pendulum step.

The kernels sum in index order and numpy in its own, so where a result is
a sum, the tolerance is rtol 1e-13 of the summed magnitudes: the same
expression over absolute values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iadp import kernels
from iadp.critic import DEFAULT_EXPONENTS
from iadp.plant import (DisturbanceSignal, disturbance_value, pendulum_nominal,
                        pendulum_reset_inverted, pendulum_reset_mild)
from iadp.sim import rk4_step

RTOL = 1e-13
PARTIALS = kernels.monomial_partials(DEFAULT_EXPONENTS)
GAMMA = 1e-4 * np.eye(6)

states = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).map(np.array)
weights = st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6).map(np.array)
controls = st.floats(-2.0, 2.0)
gains = st.floats(0.05, 0.5).map(lambda g: np.array([[0.0], [g]]))
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


def control_reference(gmat, gphi_t, w, beta):
    u = -beta * np.tanh(gmat.T @ (gphi_t @ w) / (2.0 * beta))
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


def test_monomial_eval_parity(rng):
    for _ in range(25):
        x = rng.uniform(-3, 3, 2)
        ref = np.prod(x ** DEFAULT_EXPONENTS, axis=1)
        got = kernels.monomial_eval(DEFAULT_EXPONENTS, x)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-15)


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


@given(x=states, w=weights, gmat=gains)
def test_saturated_control_parity(x, w, gmat):
    beta = 2.0
    gphi_t = grad_reference(x)
    ref = control_reference(gmat, gphi_t, w, beta)
    scale = 0.5 * np.abs(gmat).T @ (np.abs(gphi_t) @ np.abs(w))
    got = kernels.saturated_control(gmat, kernels.monomial_grad(PARTIALS, x), w, beta)
    assert close(got, ref, scale)


@given(v=controls)
def test_penalty_parity(v):
    beta = 2.0
    assert close(kernels.penalty_sat([v], beta), penalty_reference([v], beta))


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
    # an array w gets an array back, for callers doing array arithmetic
    arr = kernels.weight_derivative_kernel(w, Y, resid, M, b, GAMMA, 5.0, 3.0)
    assert isinstance(arr, np.ndarray) and np.array_equal(arr, got)


SIG = DisturbanceSignal(kind="combined", w1=-0.3906, w2=1.0051,
                        amplitude=0.5, period=1.0, t_on=20.0, t_off=60.0)
PLANTS = (pendulum_nominal(), pendulum_reset_mild(), pendulum_reset_inverted())


def rk4_reference(plant, x, u0, t, dt):
    return rk4_step(plant, x, np.array([u0]),
                    lambda xs, ts: disturbance_value(SIG, xs, ts), t, dt)


@given(x=states, u0=controls, t=st.floats(0.0, 80.0), k=st.sampled_from(range(3)))
def test_pendulum_rk4_parity(x, u0, t, k):
    # the fused step the engine runs against the generic integrator, on all
    # three pendulum variants under the combined disturbance
    plant, dt = PLANTS[k], 1e-3
    got = kernels.pendulum_rk4(tuple(x), u0, tuple(plant.pendulum_params.tolist()),
                               tuple(SIG.packed().tolist()), t, dt)
    assert np.allclose(got, rk4_reference(plant, x, u0, t, dt), rtol=RTOL, atol=1e-15)


def test_pendulum_rk4_edges(rng):
    # steps straddling the window and square-wave edges
    dt = 1e-3
    for plant in PLANTS:
        for edge in (20.0, 20.5, 21.0, 40.5, 59.5, 60.0):
            x, u0, t = rng.uniform(-3, 3, 2), rng.uniform(-2, 2), edge - 0.5 * dt
            got = kernels.pendulum_rk4(tuple(x), u0, tuple(plant.pendulum_params.tolist()),
                                       tuple(SIG.packed().tolist()), t, dt)
            assert np.allclose(got, rk4_reference(plant, x, u0, t, dt),
                               rtol=RTOL, atol=1e-15), (plant.name, t)


@pytest.mark.parametrize("big", [1e300, math.inf])
def test_overflow_gives_inf_or_nan_without_raising(big):
    # numpy returns inf or nan here; so must the float kernels, which would
    # raise if they used ** or math.sin on non-finite input
    w = [big] * 6
    x = (1e200, -1e200)
    gphi_t = kernels.monomial_grad(PARTIALS, x)
    assert not np.all(np.isfinite(gphi_t))
    u = kernels.saturated_control([[0.0], [0.1]], gphi_t, w, 2.0)
    assert np.isnan(u[0])  # inf - inf inside grad_phi^T w
    Y = [1e4] * 6
    M, b = gram([Y] * 8, [1.0] * 8)
    got = kernels.weight_derivative_kernel(w, Y, 1.0 + kernels.dot(w, Y), M, b,
                                           np.eye(6).tolist(), 5.0, 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = derivative_reference(np.array(w), np.array(Y), 1.0, np.array([Y] * 8),
                                   np.ones(8), np.eye(6), 5.0, 3.0)
    assert not np.any(np.isfinite(got)) and not np.any(np.isfinite(ref))
    p = tuple(PLANTS[0].pendulum_params.tolist())
    x_next = kernels.pendulum_rk4((math.inf, big), 0.0, p, tuple(SIG.packed().tolist()),
                                  0.0, 1e-3)
    assert not np.all(np.isfinite(x_next))


def test_saturation_clamped_off_boundary():
    # huge weights drive tanh to 1 in float64; the clamp keeps |u| < beta
    gphi_t = kernels.monomial_grad(PARTIALS, (2.0, -2.0))
    u = kernels.saturated_control([[0.0], [0.1]], gphi_t, [1e9] * 6, 2.0)
    assert np.all(np.abs(u) <= 2.0 - 1e-12)
    assert np.all(np.abs(u) > 1.99)


def test_penalty_finite_at_boundary():
    assert np.isfinite(kernels.penalty_sat([2.0], 2.0))
