import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iadp import checks, kernels
from iadp.learner import ExperienceBuffer, step_weights, try_insert
from iadp.plant import ConfigurationError
from iadp.sim import SimConfig


def wdot(w, Y, theta, buf, Gamma, k_c=5.0, k_e=3.0):
    """The engine's update law at w for the current pair (Y, theta)."""
    return np.array(kernels.weight_derivative_kernel(
        w, Y, theta + np.dot(w, Y), buf.M, buf.b, Gamma, k_c, k_e))


class TestGains:
    # the update law's gains are SimConfig fields, checked at construction
    def test_defaults(self):
        cfg = SimConfig()
        assert np.array_equal(cfg.Gamma, 1e-4 * np.eye(6))
        assert cfg.k_c == 5.0 and cfg.k_e == 3.0

    def test_validation(self):
        skew = np.eye(6)
        skew[0, 1] = 0.2
        with pytest.raises(ConfigurationError, match="Gamma must be symmetric positive definite"):
            SimConfig(Gamma=skew)
        with pytest.raises(ConfigurationError, match="Gamma must be symmetric positive definite"):
            SimConfig(Gamma=-np.eye(6))
        with pytest.raises(ConfigurationError, match="k_c and k_e must be > 0"):
            SimConfig(k_c=0.0)


class TestBuffer:
    def test_sequential_fill_stops_at_capacity(self, rng):
        # appended in order until full; later candidates can only replace
        buf = ExperienceBuffer(3, 6)
        for i in range(5):
            ok, _ = try_insert(buf, rng.uniform(-1, 1, 6), float(i))
            assert ok or i >= 3
            assert len(buf) == min(i + 1, 3)
            if i == 2:
                assert np.array_equal(buf.Theta, [0.0, 1.0, 2.0])

    def test_rejects_nonfinite(self):
        buf = ExperienceBuffer(3, 2)
        ok, _ = try_insert(buf, [np.nan, 0.0], 1.0)
        assert not ok and len(buf) == 0
        ok, _ = try_insert(buf, [1.0, 0.0], np.inf)
        assert not ok and len(buf) == 0

    def test_rank_report_growth(self):
        buf = ExperienceBuffer(4, 3)
        assert buf.report().rank == 0
        try_insert(buf, [1.0, 0.0, 0.0], 0.0)
        assert buf.report().rank == 1
        try_insert(buf, [2.0, 0.0, 0.0], 0.0)  # colinear, rank stays 1
        assert buf.report().rank == 1
        try_insert(buf, [0.0, 1.0, 0.0], 0.0)
        try_insert(buf, [0.0, 0.0, 1.0], 0.0)
        rep = buf.report()
        assert rep.rank == 3
        assert rep.sigma_min > 0.0

    def test_sigma_min_zero_when_short(self):
        buf = ExperienceBuffer(4, 3)
        try_insert(buf, [1.0, 0.0, 0.0], 0.0)
        assert buf.report().sigma_min == 0.0

    def test_enrich_replaces_redundant_point(self):
        buf = ExperienceBuffer(3, 3)
        try_insert(buf, [1.0, 0.0, 0.0], 1.0)
        try_insert(buf, [0.0, 1.0, 0.0], 2.0)
        try_insert(buf, [1.0, 1.0, 0.0], 3.0)  # dependent on the first two
        assert buf.report().rank == 2
        ok, rep = try_insert(buf, [0.0, 0.0, 1.0], 4.0)
        assert ok
        assert rep.rank == 3
        assert rep.sigma_min > 0.0
        assert 4.0 in buf.Theta

    def test_enrich_rejects_non_improving(self):
        buf = ExperienceBuffer(3, 3)
        for row, th in zip(np.eye(3), (1.0, 2.0, 3.0)):
            try_insert(buf, row, th)
        base = buf.report().sigma_min
        ok, rep = try_insert(buf, 1e-6 * np.ones(3), 9.0)
        assert not ok
        assert rep.sigma_min == pytest.approx(base)
        assert 9.0 not in buf.Theta

    def test_empty_gram_summary_is_zero(self):
        buf = ExperienceBuffer(3, 4)
        assert buf.M == [[0.0] * 4] * 4 and buf.b == [0.0] * 4
        assert all(isinstance(v, float) for row in buf.M for v in row)
        try_insert(buf, [math.nan, 0.0, 0.0, 0.0], 1.0)
        assert buf.M == [[0.0] * 4] * 4 and buf.b == [0.0] * 4

    @given(capacity=st.integers(1, 5), data=st.data())
    def test_gram_summary_matches_stored_rows(self, capacity, data):
        # any sequence of inserts, replacements and rejected non-finite
        # candidates leaves M = Yb^T Yb and b = Yb^T Theta_b of the stored rows
        N = data.draw(st.integers(1, 4))
        value = st.floats(-10.0, 10.0)
        candidate = st.tuples(st.lists(value, min_size=N, max_size=N), value,
                              st.sampled_from([None] * 4 + [math.nan, math.inf, -math.inf]),
                              st.integers(0, N))
        buf = ExperienceBuffer(capacity, N)
        for Y, theta, bad, at in data.draw(st.lists(candidate, max_size=16)):
            if bad is not None:
                # the bad value lands in Y, or in Theta when at == N
                if at < N:
                    Y = Y[:at] + [bad] + Y[at + 1:]
                else:
                    theta = bad
            stored = list(buf.Y)
            ok, _ = try_insert(buf, Y, theta)
            assert ok or buf.Y == stored
            assert bad is None or not ok
        Yb, Tb = np.array(buf.Y).reshape(len(buf), N), np.array(buf.Theta)
        assert np.array(buf.M).shape == (N, N) and np.array(buf.b).shape == (N,)
        # rtol 1e-13 of the summed magnitudes, as in tests/test_kernels.py
        scale_M, scale_b = np.abs(Yb).T @ np.abs(Yb), np.abs(Yb).T @ np.abs(Tb)
        assert np.all(np.abs(np.array(buf.M) - Yb.T @ Yb) <= 1e-13 * scale_M + 1e-300)
        assert np.all(np.abs(np.array(buf.b) - Yb.T @ Tb) <= 1e-13 * scale_b + 1e-300)


class TestUpdateLaw:
    def test_residual_frozen(self):
        # the residual as the engine forms it, Theta + w.Y
        # = 1 + [1,2].[-1, 3.5] = 1 - 1 + 7 = 7
        assert 1.0 + kernels.dot([1.0, 2.0], [-1.0, 3.5]) == 7.0

    def test_weight_derivative_frozen(self):
        # scalar case, empty buffer: wdot = -Gamma k_c Y (Theta + w Y)
        # = -1 * 5 * 2 * (0.4 + 0.1*2) = -6
        buf = ExperienceBuffer(2, 1)
        assert wdot([0.1], [2.0], 0.4, buf, np.eye(1))[0] == pytest.approx(-6.0, abs=1e-12)

    def test_replay_term(self):
        buf = ExperienceBuffer(2, 1)
        try_insert(buf, [1.0], 0.5)  # replay residual at w=0.1: 0.6
        # a zero current regressor leaves only the replay term
        got = wdot([0.1], [0.0], 0.0, buf, np.eye(1))[0]
        assert got == pytest.approx(-3.0 * 1.0 * 0.6, abs=1e-12)

    def test_is_gradient_flow(self, rng):
        # wdot must equal -Gamma * grad of the summed half-squared residuals
        error = checks.update_gradient_error(rng, N=5, P=4)
        assert error < checks.update_gradient_error.tol

    def test_fixed_point(self, rng):
        # if every residual is zero at w, the derivative vanishes
        Gamma = 1e-4 * np.eye(3)
        w = rng.uniform(-1, 1, 3)
        buf = ExperienceBuffer(2, 3)
        for _ in range(2):
            Y = rng.uniform(-2, 2, 3)
            try_insert(buf, Y, float(-w @ Y))
        Yc = rng.uniform(-2, 2, 3)
        assert np.allclose(wdot(w, Yc, float(-w @ Yc), buf, Gamma), 0.0, atol=1e-15)


class TestStep:
    def test_euler(self):
        out, finite = step_weights(np.array([1.0, 2.0]), np.array([10.0, -10.0]), 0.1)
        assert finite
        assert np.allclose(out, [2.0, 1.0], atol=1e-15)

    def test_nonfinite_zeroed_and_flagged(self):
        out, finite = step_weights(np.array([1.0, 2.0]), np.array([np.inf, 1.0]), 0.1)
        assert not finite
        assert np.array_equal(out, [0.0, 2.1])
