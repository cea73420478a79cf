import numpy as np
import pytest

from iadp.plant import ConfigurationError
from iadp.tde import (DelayLine, DelaySample, IncrementalModelConfig,
                      WarmUpError, compute_increments, estimate_xdot,
                      fit_tde_bound, true_tde_error)


def sample(t, x, xdot, u):
    return DelaySample(t, np.asarray(x, float), np.asarray(xdot, float),
                       np.atleast_1d(np.asarray(u, float)))


class TestDelayLine:
    def test_delayed_lookup(self):
        line = DelayLine(dt=0.1)
        line.push(sample(0.0, [1, 0], [0, 0], 0.0))
        line.push(sample(0.1, [2, 0], [0, 0], 0.5))
        assert line.delayed().t == 0.0
        line.push(sample(0.2, [3, 0], [0, 0], 1.0))
        assert line.delayed().t == pytest.approx(0.1)

    def test_warm_up(self):
        line = DelayLine(dt=0.1)
        with pytest.raises(WarmUpError):
            line.delayed()
        line.push(sample(0.0, [0, 0], [0, 0], 0.0))
        with pytest.raises(WarmUpError):
            line.delayed()

    def test_gap_detection(self):
        line = DelayLine(dt=0.1)
        line.push(sample(0.0, [0, 0], [0, 0], 0.0))
        with pytest.raises(ValueError):
            line.push(sample(0.3, [0, 0], [0, 0], 0.0))
        with pytest.raises(ValueError):
            line.push(sample(-0.1, [0, 0], [0, 0], 0.0))

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            DelayLine(dt=0.0)
        with pytest.raises(ConfigurationError):
            DelayLine(dt=-0.1)


class TestXdotEstimate:
    def test_backward_difference(self):
        line = DelayLine(dt=0.5)
        line.push(sample(0.0, [1.0, 2.0], [9, 9], 0.0))
        line.push(sample(0.5, [2.0, 1.0], [9, 9], 0.0))
        assert np.allclose(estimate_xdot(line), [2.0, -2.0], atol=1e-12)

    def test_ground_truth_passthrough(self):
        line = DelayLine(dt=0.5)
        line.push(sample(0.0, [1.0, 2.0], [3.0, 4.0], 0.0))
        assert np.array_equal(estimate_xdot(line, "ground_truth"), [3.0, 4.0])

    def test_warm_up_and_bad_method(self):
        line = DelayLine(dt=0.5)
        with pytest.raises(WarmUpError):
            estimate_xdot(line)
        line.push(sample(0.0, [0, 0], [0, 0], 0.0))
        with pytest.raises(WarmUpError):
            estimate_xdot(line, "backward_difference")
        with pytest.raises(ConfigurationError):
            estimate_xdot(line, "spline")

    def test_first_order_accuracy(self):
        # backward difference on x = sin(t): error O(dt)
        errs = []
        for dt in (1e-2, 5e-3):
            line = DelayLine(dt=dt)
            for t in (1.0 - dt, 1.0):
                line.push(sample(t, [np.sin(t), 0.0], [0, 0], 0.0))
            errs.append(abs(estimate_xdot(line)[0] - np.cos(1.0)))
        assert 0.3 < errs[1] / errs[0] < 0.7


class TestIncrements:
    def make_cfg(self):
        return IncrementalModelConfig([[0.0], [0.1]])

    def test_increment_record(self):
        cfg = self.make_cfg()
        line = DelayLine(dt=0.1)
        s0 = sample(0.0, [0, 0], [1.0, 2.0], 0.5)
        s1 = sample(0.1, [0, 0], [1.5, 1.0], 0.8)
        line.push(s0)
        line.push(s1)
        rec = compute_increments(line)
        assert np.allclose(rec.dx_dot, [0.5, -1.0], atol=1e-15)
        assert np.allclose(rec.du, [0.3], atol=1e-15)
        assert np.array_equal(rec.u0, [0.5])
        assert np.array_equal(rec.x0dot, [1.0, 2.0])

    def test_xi_zero_when_model_exact(self):
        # dx_dot = g_bar du  =>  xi = 0
        cfg = self.make_cfg()
        line = DelayLine(dt=0.1)
        s0 = sample(0.0, [0, 0], [0.0, 0.0], 0.0)
        s1 = sample(0.1, [0, 0], [0.0, 0.05], 0.5)
        line.push(s0)
        line.push(s1)
        rec = compute_increments(line)
        assert np.allclose(true_tde_error(rec, cfg), [0.0], atol=1e-14)

    def test_xi_frozen_value(self):
        # dx_dot = [0, 0.2], du = [1]: xi = 0.2/0.1 - 1 = 1
        cfg = self.make_cfg()
        line = DelayLine(dt=0.1)
        s0 = sample(0.0, [0, 0], [0.0, 0.0], 0.0)
        s1 = sample(0.1, [0, 0], [0.0, 0.2], 1.0)
        line.push(s0)
        line.push(s1)
        rec = compute_increments(line)
        assert np.allclose(true_tde_error(rec, cfg), [1.0], atol=1e-12)

    def test_rank_deficient_gbar_rejected(self):
        with pytest.raises(ConfigurationError):
            IncrementalModelConfig([[0.0], [0.0]])

    def test_pinv_left_inverse(self):
        cfg = self.make_cfg()
        assert np.allclose(np.array(cfg.g_bar_pinv) @ np.array(cfg.g_bar), np.eye(1),
                           atol=1e-14)


class TestBoundFit:
    def test_recovers_planted_line(self, rng):
        du = rng.uniform(0.0, 2.0, 500)
        xi = 0.7 * du + 0.05
        c, d1 = fit_tde_bound(xi, du)
        assert c == pytest.approx(0.7, abs=1e-9)
        assert d1 == pytest.approx(0.05, abs=1e-9)

    def test_intercept_only_when_du_constant(self):
        xi = np.full(200, 0.3)
        c, d1 = fit_tde_bound(xi, np.zeros(200))
        assert c == 0.0
        assert d1 == pytest.approx(0.3)

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            fit_tde_bound(np.ones(50), np.ones(50))
        with pytest.raises(ConfigurationError):
            fit_tde_bound(np.ones(200), np.ones(150))
