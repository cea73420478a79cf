import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import cached_run, gphi_t, law_pair
from iadp import checks, kernels
from iadp.controllers import IadpLaw, TadpLaw, ZsadpLaw
from iadp.scenarios import build_world
from iadp.sim import SimConfig

G_TRUE = (0.0, 0.25)
K_TRUE = (1.0, -0.2)


CFG = SimConfig(Q=np.eye(2), beta=2.0, c_bar=2.0, g_bar=[[0.0], [0.1]])


def control(law, w, x):
    """law.control at state x; u and aux come back as floats."""
    return law.control(gphi_t(x), np.asarray(w, dtype=float))


def make_laws():
    return IadpLaw(CFG), ZsadpLaw(CFG, G_TRUE, K_TRUE), TadpLaw(CFG, G_TRUE, K_TRUE)


class TestIadpLaw:
    def make(self):
        return IadpLaw(CFG)

    def test_frozen_value(self):
        # at x = (1, 0): grad_phi^T w = [2w1, w2 + w6]; with w = e2 + e6 the
        # pre-tanh argument is 0.1 * 2 / (2 * 2) = 0.05
        u, aux = control(self.make(), [0, 1, 0, 0, 0, 1], [1.0, 0.0])
        assert u == pytest.approx(-2.0 * math.tanh(0.05), abs=1e-12)
        assert aux is None

    def test_du_offsets_previous_input(self):
        # the engine forms du against the input one step back, bit for bit
        log = cached_run(t_end=2.0)
        assert np.array_equal(log.du[2:], log.u[2:] - log.u[1:-1])

    def test_zero_weights_zero_control(self):
        u, _ = control(self.make(), np.zeros(6), [2.0, -2.0])
        assert u == 0.0

    def test_saturation_bound(self, rng):
        law = self.make()
        for _ in range(50):
            w = rng.uniform(-1e4, 1e4, 6)
            x = rng.uniform(-3, 3, 2)
            assert abs(control(law, w, x)[0]) <= 2.0 - 1e-12

    def test_cost_matches_shared_form(self):
        # x^T Q x + W(u) + c_bar^2 ||du||^2 at u = u0 + du = 0.5 + 0.5
        _, got = law_pair(self.make(), [1.0, 1.0], 1.0, du=0.5)
        assert got == pytest.approx(2.0 + kernels.penalty_sat(1.0, 2.0) + 1.0, abs=1e-12)
        assert got == pytest.approx(2.0 + 1.0464963 + 1.0, abs=1e-6)

    def test_huge_c_bar_at_zero_du(self):
        # (c_bar du)^2 is 0 at du = 0 for any finite c_bar; c_bar^2 du^2 was inf * 0 = nan
        huge = IadpLaw(SimConfig(Q=np.eye(2), beta=2.0, c_bar=1e300, g_bar=[[0.0], [0.1]]))
        assert law_pair(huge, [1.0, -0.5], 0.7)[1] == law_pair(self.make(), [1.0, -0.5], 0.7)[1]


class TestZsadpLaw:
    def make(self):
        return ZsadpLaw(CFG, G_TRUE, K_TRUE)

    def test_frozen_values(self):
        # same x and w as the incremental case but with the true g column
        u, d_hat = control(self.make(), [0, 1, 0, 0, 0, 1], [1.0, 0.0])
        assert u == pytest.approx(-2.0 * math.tanh(0.125), abs=1e-12)
        # d_hat = k^T [0, 2] / 2 = -0.2
        assert d_hat == pytest.approx(-0.2, abs=1e-12)

    def test_cost_frozen(self):
        # 2 + W(1) - 1 * 0.04
        _, got = law_pair(self.make(), [1.0, 1.0], 1.0, aux=-0.2)
        assert got == pytest.approx(2.0 + 1.0464963 - 0.04, abs=1e-6)

    def test_cost_can_go_negative_in_dhat(self):
        _, a = law_pair(self.make(), [0.1, 0.0], 0.0, aux=0.0)
        _, b = law_pair(self.make(), [0.1, 0.0], 0.0, aux=5.0)
        assert b < a


class TestTadpLaw:
    def make(self):
        return TadpLaw(CFG, G_TRUE, K_TRUE)

    def test_h_is_out_of_span_part(self):
        # g spans the second axis, so h keeps only the first component of k
        assert np.allclose(self.make().h, [1.0, 0.0], atol=1e-12)

    def test_frozen_values(self):
        # w = e1 at x = (1, 0): grad_phi^T w = [2, 0], v_hat = -2 / (2*0.1)
        u, v_hat = control(self.make(), [1, 0, 0, 0, 0, 0], [1.0, 0.0])
        assert u == 0.0
        assert v_hat == pytest.approx(-10.0, abs=1e-12)

    def test_cost_frozen(self):
        # ||x|| terms: (0.32 + 0.5) * 1 on top of x^T Q x = 1
        _, got = law_pair(self.make(), [1.0, 0.0], 0.0, aux=0.0)
        assert got == pytest.approx(1.82, abs=1e-12)

    def test_cost_penalizes_pseudo_control(self):
        _, base = law_pair(self.make(), [1.0, 0.0], 0.0, aux=0.0)
        _, got = law_pair(self.make(), [1.0, 0.0], 0.0, aux=2.0)
        assert got == pytest.approx(base + 0.1 * 4.0, abs=1e-12)

    def test_h_from_construction(self):
        law = TadpLaw(CFG, (0.0, -0.25), K_TRUE)
        assert np.allclose(law.h, [1.0, 0.0], atol=1e-12)
        law = TadpLaw(CFG, (0.25, 0.0), K_TRUE)
        assert np.allclose(law.h, [0.0, -0.2], atol=1e-12)


def test_baselines_share_saturation_shape(rng):
    _, zs, ta = make_laws()
    for _ in range(20):
        w = rng.uniform(-5, 5, 6)
        x = rng.uniform(-2, 2, 2)
        assert control(zs, w, x)[0] == pytest.approx(control(ta, w, x)[0], abs=1e-15)


@given(x=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
       w=st.lists(st.floats(-1e9, 1e9), min_size=6, max_size=6))
def test_all_laws_saturation_bound(x, w):
    for law in make_laws():
        u, _ = control(law, w, x)
        assert abs(u) <= 2.0 - 1e-12


@given(a=st.floats(1e-6, 2.0 * (1 - 1e-6)), b=st.floats(1e-6, 2.0 * (1 - 1e-6)))
def test_penalty_even_and_increasing(a, b):
    # the W(u) term of every law's running cost, by the shape body at the
    # searched points; a rise is asked for only where b > a beyond rounding
    a, b = sorted((a, b))
    magnitudes = (a, b) if b > a * (1 + 1e-9) else (a,)
    assert checks.penalty_shape_defect(None, magnitudes) < checks.penalty_shape_defect.tol


@given(x=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       w=st.lists(st.floats(-1e150, 1e150), min_size=6, max_size=6),
       w0=st.lists(st.floats(-1e150, 1e150), min_size=6, max_size=6))
def test_only_the_baseline_costs_grow_with_w(x, w, w0):
    # IADP's Theta depends on w only through the saturated u and du, so it
    # stays in [0, x^T Q x + W(beta - margin) + 4 c_bar^2 beta^2] for any w
    iadp, zs, ta = make_laws()
    u = control(iadp, w, x)[0]
    theta = law_pair(iadp, x, u, du=u - control(iadp, w0, x)[0])[1]
    top = kernels.penalty_sat(2.0 - kernels.SATURATION_MARGIN, 2.0)
    assert 0.0 <= theta <= kernels.dot(x, x) + top + 4.0 * 2.0 ** 2 * 2.0 ** 2
    # zsadp's gamma d_hat^2 and tadp's rho v_hat^2 are quadratic in w: w -> 2w
    # gives exactly 4x wherever the term is a normal float (no underflow)
    for law, coef in ((zs, zs.gamma), (ta, ta.rho)):
        once, twice = (coef * (a * a) for a in
                       (control(law, np.multiply(k, w), x)[1] for k in (1.0, 2.0)))
        if once >= 2.0 ** -1020:
            assert twice == 4.0 * once


@pytest.mark.parametrize("controller", ["zsadp", "tadp"])
def test_s3_baseline_stop_is_the_aux_term(controller):
    # over the last 6 finite rows before each s3 baseline stops, theta_tilde
    # is the w-quadratic cost term rebuilt from the step's weights w[i-1] at
    # x_meas[i], while the state stays near the origin
    log = cached_run(scenario="s3", controller=controller)
    cfg = SimConfig(scenario="s3", controller=controller)
    plant = build_world(cfg).plant
    g, k = np.array([[0.0], [plant.g2]]), np.array([plant.k1, plant.k2])
    S = log.rows()
    assert log.stop_cause == "nonfinite_weights"
    for i in range(S - 7, S - 1):
        v = gphi_t(log.x_meas[i]) @ log.w[i - 1]
        if controller == "zsadp":
            d_hat = k @ v / (2.0 * ZsadpLaw.gamma ** 2)
            term = -ZsadpLaw.gamma * d_hat ** 2
        else:
            h = (np.eye(2) - g @ np.linalg.pinv(g)) @ k
            v_hat = -h @ v / (2.0 * TadpLaw.rho)
            term = TadpLaw.rho * v_hat ** 2
        assert log.theta_tilde[i] / term == pytest.approx(1.0, abs=0.1), i
        assert np.linalg.norm(log.x_true[i]) < 1.0, i
