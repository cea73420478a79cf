"""Each kernel against an independent reference: a closed-form numpy
expression, or the generic RK4 integrator for the fused pendulum step."""

import math

import numpy as np
import pytest

from iadp import kernels
from iadp.critic import DEFAULT_EXPONENTS
from iadp.plant import (DisturbanceSignal, disturbance_value, pendulum_nominal,
                        pendulum_reset_inverted, pendulum_reset_mild)
from iadp.sim import rk4_step


@pytest.fixture
def cases(rng):
    out = []
    for _ in range(25):
        out.append({
            "x": rng.uniform(-3, 3, 2),
            "w": rng.uniform(-5, 5, 6),
            "u": rng.uniform(-1.9, 1.9, 1),
            "gmat": np.array([[0.0], [rng.uniform(0.05, 0.5)]]),
        })
    return out


def test_monomial_eval_parity(cases):
    for c in cases:
        ref = np.prod(c["x"] ** DEFAULT_EXPONENTS, axis=1)
        got = kernels.monomial_eval(DEFAULT_EXPONENTS, c["x"])
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-15)


def test_monomial_grad_parity(cases):
    # d/dx_j prod_i x_i^e_i = e_j x_j^(e_j - 1) prod_{i != j} x_i^e_i
    for c in cases:
        x = c["x"]
        ref = np.column_stack([
            DEFAULT_EXPONENTS[:, j]
            * np.prod(x ** (DEFAULT_EXPONENTS - np.eye(2, dtype=np.int64)[j]), axis=1)
            for j in range(2)])
        got = kernels.monomial_grad(DEFAULT_EXPONENTS, x)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-15)


def test_saturated_control_parity(cases):
    beta = 2.0
    for c in cases:
        gphi = kernels.monomial_grad(DEFAULT_EXPONENTS, c["x"])
        ref = -beta * np.tanh(c["gmat"].T @ gphi.T @ c["w"] / (2.0 * beta))
        got = kernels.saturated_control(c["gmat"], gphi, c["w"], beta)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-15)


def test_penalty_parity(cases):
    beta = 2.0
    for c in cases:
        v = float(c["u"][0])
        ref = 2 * beta * v * math.atanh(v / beta) + beta ** 2 * math.log(1 - (v / beta) ** 2)
        assert kernels.penalty_sat(c["u"], beta) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_weight_derivative_parity(rng):
    # -Gamma (k_c (theta + w.Y) Y + k_e sum_l (theta_l + w.Y_l) Y_l)
    gamma = 1e-4 * np.eye(6)
    for _ in range(25):
        w = rng.uniform(-3, 3, 6)
        Y = rng.uniform(-10, 10, 6)
        Yb = rng.uniform(-10, 10, (8, 6))
        thetab = rng.uniform(0, 5, 8)
        ref = -gamma @ (5.0 * (1.5 + w @ Y) * Y + 3.0 * Yb.T @ (thetab + Yb @ w))
        got = kernels.weight_derivative_kernel(w, Y, 1.5, Yb, thetab, gamma, 5.0, 3.0)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_pendulum_rk4_parity(rng):
    # the fused step the engine runs against the generic integrator, on all
    # three pendulum variants under the combined disturbance; some steps
    # straddle the window and square-wave edges
    sig = DisturbanceSignal(kind="combined", w1=-0.3906, w2=1.0051,
                            amplitude=0.5, period=1.0, t_on=20.0, t_off=60.0)
    d_fn = lambda xs, ts: disturbance_value(sig, xs, ts)
    dt = 1e-3
    edges = [20.0, 20.5, 21.0, 40.5, 59.5, 60.0]
    times = [e - 0.5 * dt for e in edges] + list(rng.uniform(0, 80, 25))
    for plant in (pendulum_nominal(), pendulum_reset_mild(), pendulum_reset_inverted()):
        for t in times:
            x = rng.uniform(-3, 3, 2)
            u0 = rng.uniform(-2, 2)
            got = kernels.pendulum_rk4(x, u0, plant.pendulum_params, sig.packed(), t, dt)
            ref = rk4_step(plant, x, np.array([u0]), d_fn, t, dt)
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-15), (plant.name, t)


def test_saturation_clamped_off_boundary():
    # huge weights drive tanh to 1 in float64; the clamp keeps |u| < beta
    gphi = kernels.monomial_grad(DEFAULT_EXPONENTS, np.array([2.0, -2.0]))
    gmat = np.array([[0.0], [0.1]])
    u = kernels.saturated_control(gmat, gphi, 1e9 * np.ones(6), 2.0)
    assert np.all(np.abs(u) <= 2.0 - 1e-12)
    assert np.all(np.abs(u) > 1.99)


def test_penalty_finite_at_boundary():
    assert np.isfinite(kernels.penalty_sat(np.array([2.0]), 2.0))
