import numpy as np
import pytest

from helpers import cached_run
from iadp import checks
from iadp.controllers import IadpLaw
from iadp.plant import ConfigurationError
from iadp.scenarios import run_scenario
from iadp.sim import SimConfig
from iadp.tde import backward_difference, tde_error


class TestXdotEstimate:
    def test_backward_difference(self):
        got = backward_difference([1.0, 2.0], [2.0, 1.0], 0.5)
        assert np.allclose(got, [2.0, -2.0], atol=1e-12)

    def test_warm_up_and_bad_method(self):
        # the first two rows have no xdot one step back: u and du stay zero
        log = cached_run(t_end=2.0)
        assert np.all(log.u[:2] == 0.0) and np.all(log.du[:2] == 0.0)
        assert np.any(log.u[2:] != 0.0)
        # backward difference is the only estimate; no method is taken
        with pytest.raises(TypeError):
            backward_difference([0.0, 0.0], [0.0, 0.0], 0.5, "spline")

    def test_first_order_accuracy(self):
        # backward difference on x = sin(t): error O(dt)
        errs = []
        for dt in (1e-2, 5e-3):
            got = backward_difference([np.sin(1.0 - dt), 0.0], [np.sin(1.0), 0.0], dt)
            errs.append(abs(got[0] - np.cos(1.0)))
        assert 0.3 < errs[1] / errs[0] < 0.7


class TestIncrements:
    def make_cfg(self):
        return SimConfig(g_bar=[[0.0], [0.1]])

    def test_increment_record(self, monkeypatch):
        # the law is handed the newest xdot, du = u - u_prev and the xdot one
        # step back as x0dot, all against the measured samples
        seen = []
        original = IadpLaw.pair

        def record(law, x, u, xdot, du, x0dot, gphi_t, aux):
            seen.append((list(x), list(xdot), du, list(x0dot)))
            return original(law, x, u, xdot, du, x0dot, gphi_t, aux)

        monkeypatch.setattr(IadpLaw, "pair", record)
        cfg = SimConfig(t_end=0.05)
        log = run_scenario(cfg)
        xm = log.x_meas
        assert len(seen) == len(xm) - 2
        for i, (x, xdot, du, x0dot) in enumerate(seen, start=2):
            assert x == list(xm[i])
            assert xdot == backward_difference(xm[i - 1], xm[i], cfg.dt)
            assert x0dot == backward_difference(xm[i - 2], xm[i - 1], cfg.dt)
            assert du == log.u[i] - log.u[i - 1]

    def test_xi_zero_when_model_exact(self):
        # dx_dot = g_bar du  =>  xi = 0
        xi = tde_error([0.0, 0.05], [0.0, 0.0], 0.5, self.make_cfg().g_bar_pinv)
        assert np.allclose(xi, 0.0, atol=1e-14)

    def test_xi_frozen_value(self):
        # dx_dot = [0, 0.2], du = 1: xi = 0.2/0.1 - 1 = 1
        xi = tde_error([0.0, 0.2], [0.0, 0.0], 1.0, self.make_cfg().g_bar_pinv)
        assert np.allclose(xi, 1.0, atol=1e-12)

    def test_rank_deficient_gbar_rejected(self):
        with pytest.raises(ConfigurationError, match="full column rank"):
            SimConfig(g_bar=[[0.0], [0.0]])

    def test_pinv_left_inverse(self, rng):
        assert checks.gbar_pinv_error(rng) < checks.gbar_pinv_error.tol

