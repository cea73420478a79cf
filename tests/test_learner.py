import numpy as np
import pytest

from iadp.learner import (ExperienceBuffer, LearnerGains, RegressionPair,
                          rank_report, residual, step_weights, try_insert,
                          weight_derivative)
from iadp.plant import ConfigurationError


class TestGains:
    def test_defaults(self):
        g = LearnerGains(1e-4 * np.eye(6))
        assert g.k_c == 5.0 and g.k_e == 3.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LearnerGains(np.array([[1.0, 0.2], [0.0, 1.0]]))
        with pytest.raises(ConfigurationError):
            LearnerGains(-np.eye(3))
        with pytest.raises(ConfigurationError):
            LearnerGains(np.eye(3), k_c=0.0)


class TestBuffer:
    def test_sequential_fill_stops_at_capacity(self, rng):
        buf = ExperienceBuffer(3, 6)
        for i in range(5):
            ok, _ = try_insert(buf, rng.uniform(-1, 1, 6), float(i))
            assert ok == (i < 3)
        assert len(buf) == 3
        assert np.array_equal(buf.Theta, [0.0, 1.0, 2.0])

    def test_rejects_nonfinite(self):
        buf = ExperienceBuffer(3, 2)
        ok, _ = try_insert(buf, [np.nan, 0.0], 1.0)
        assert not ok and len(buf) == 0
        ok, _ = try_insert(buf, [1.0, 0.0], np.inf)
        assert not ok and len(buf) == 0

    def test_rank_report_growth(self):
        buf = ExperienceBuffer(4, 3)
        assert rank_report(buf).rank == 0
        try_insert(buf, [1.0, 0.0, 0.0], 0.0)
        assert rank_report(buf).rank == 1
        try_insert(buf, [2.0, 0.0, 0.0], 0.0)  # colinear, rank stays 1
        assert rank_report(buf).rank == 1
        try_insert(buf, [0.0, 1.0, 0.0], 0.0)
        try_insert(buf, [0.0, 0.0, 1.0], 0.0)
        rep = rank_report(buf)
        assert rep.rank == 3
        assert rep.sigma_min > 0.0

    def test_sigma_min_zero_when_short(self):
        buf = ExperienceBuffer(4, 3)
        try_insert(buf, [1.0, 0.0, 0.0], 0.0)
        assert rank_report(buf).sigma_min == 0.0

    def test_enrich_replaces_redundant_point(self):
        buf = ExperienceBuffer(3, 3, policy="sigma_min_enrich")
        try_insert(buf, [1.0, 0.0, 0.0], 1.0)
        try_insert(buf, [0.0, 1.0, 0.0], 2.0)
        try_insert(buf, [1.0, 1.0, 0.0], 3.0)  # dependent on the first two
        assert rank_report(buf).rank == 2
        ok, rep = try_insert(buf, [0.0, 0.0, 1.0], 4.0)
        assert ok
        assert rep.rank == 3
        assert rep.sigma_min > 0.0
        assert 4.0 in buf.Theta

    def test_enrich_rejects_non_improving(self):
        buf = ExperienceBuffer(3, 3, policy="sigma_min_enrich")
        for row, th in zip(np.eye(3), (1.0, 2.0, 3.0)):
            try_insert(buf, row, th)
        base = rank_report(buf).sigma_min
        ok, rep = try_insert(buf, 1e-6 * np.ones(3), 9.0)
        assert not ok
        assert rep.sigma_min == pytest.approx(base)
        assert 9.0 not in buf.Theta

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            ExperienceBuffer(3, 3, policy="fifo")


class TestUpdateLaw:
    def test_residual_frozen(self):
        # Theta + w.Y = 1 + [1,2].[ -1, 3.5 ] = 1 - 1 + 7 = 7
        pair = RegressionPair(np.array([-1.0, 3.5]), 1.0)
        assert residual([1.0, 2.0], pair) == pytest.approx(7.0, abs=0)

    def test_weight_derivative_frozen(self):
        # scalar case, empty buffer: wdot = -Gamma k_c Y (Theta + w Y)
        # = -1 * 5 * 2 * (0.4 + 0.1*2) = -6
        gains = LearnerGains(np.eye(1), k_c=5.0, k_e=3.0)
        buf = ExperienceBuffer(2, 1)
        pair = RegressionPair(np.array([2.0]), 0.4)
        wdot = weight_derivative(np.array([0.1]), pair, buf, gains)
        assert wdot[0] == pytest.approx(-6.0, abs=1e-12)

    def test_replay_term(self):
        gains = LearnerGains(np.eye(1), k_c=5.0, k_e=3.0)
        buf = ExperienceBuffer(2, 1)
        try_insert(buf, [1.0], 0.5)  # replay residual at w=0.1: 0.6
        wdot = weight_derivative(np.array([0.1]), None, buf, gains)
        assert wdot[0] == pytest.approx(-3.0 * 1.0 * 0.6, abs=1e-12)

    def test_none_current_equals_zero_pair(self, rng):
        gains = LearnerGains(1e-4 * np.eye(4))
        buf = ExperienceBuffer(3, 4)
        for _ in range(3):
            try_insert(buf, rng.uniform(-2, 2, 4), rng.uniform(0, 2))
        w = rng.uniform(-1, 1, 4)
        a = weight_derivative(w, None, buf, gains)
        b = weight_derivative(w, RegressionPair(np.zeros(4), 0.0), buf, gains)
        assert np.allclose(a, b, atol=0)

    def test_is_gradient_flow(self, rng):
        # wdot must equal -Gamma * grad of the summed half-squared residuals
        gains = LearnerGains(1e-4 * np.eye(5), k_c=5.0, k_e=3.0)
        buf = ExperienceBuffer(4, 5)
        for _ in range(4):
            try_insert(buf, rng.uniform(-3, 3, 5), rng.uniform(0, 4))
        pair = RegressionPair(rng.uniform(-3, 3, 5), rng.uniform(0, 4))
        w = rng.uniform(-2, 2, 5)

        def energy(wv):
            e = 0.5 * gains.k_c * residual(wv, pair) ** 2
            for l in range(len(buf)):
                e += 0.5 * gains.k_e * residual(wv, RegressionPair(buf.Y[l], buf.Theta[l])) ** 2
            return e

        h = 1e-6
        grad = np.array([(energy(w + h * e) - energy(w - h * e)) / (2 * h)
                         for e in np.eye(5)])
        assert np.allclose(weight_derivative(w, pair, buf, gains),
                           -gains.Gamma @ grad, rtol=1e-6, atol=1e-12)

    def test_fixed_point(self, rng):
        # if every residual is zero at w, the derivative vanishes
        gains = LearnerGains(1e-4 * np.eye(3))
        w = rng.uniform(-1, 1, 3)
        buf = ExperienceBuffer(2, 3)
        for _ in range(2):
            Y = rng.uniform(-2, 2, 3)
            try_insert(buf, Y, float(-w @ Y))
        Yc = rng.uniform(-2, 2, 3)
        pair = RegressionPair(Yc, float(-w @ Yc))
        assert np.allclose(weight_derivative(w, pair, buf, gains), 0.0, atol=1e-15)


class TestStep:
    def test_euler(self):
        out, finite = step_weights(np.array([1.0, 2.0]), np.array([10.0, -10.0]), 0.1)
        assert finite
        assert np.allclose(out, [2.0, 1.0], atol=1e-15)

    def test_nonfinite_zeroed_and_flagged(self):
        out, finite = step_weights(np.array([1.0, 2.0]), np.array([np.inf, 1.0]), 0.1)
        assert not finite
        assert np.array_equal(out, [0.0, 2.1])

    def test_bad_dt(self):
        with pytest.raises(ConfigurationError):
            step_weights(np.array([1.0]), np.array([1.0]), 0.0)
