import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import cached_run, gphi_t, law_pair
from iadp import kernels
from iadp.controllers import IadpLaw, TadpLaw, ZsadpLaw
from iadp.critic import CostConfig
from iadp.tde import IncrementalModelConfig

G_TRUE = np.array([[0.0], [0.25]])
K_TRUE = np.array([[1.0], [-0.2]])


def make_cost():
    return CostConfig(Q=np.eye(2), beta=2.0, c_bar=2.0)


def control(law, w, x):
    """law.control at state x; u and aux come back as arrays."""
    u, aux = law.control(gphi_t(x), np.asarray(w, dtype=float))
    return np.asarray(u), aux if aux is None else np.asarray(aux)


def make_laws():
    return (IadpLaw(IncrementalModelConfig([[0.0], [0.1]]), make_cost()),
            ZsadpLaw(G_TRUE, K_TRUE, 1.0, make_cost()),
            TadpLaw(G_TRUE, K_TRUE, 0.1, make_cost()))


class TestIadpLaw:
    def make(self):
        return IadpLaw(IncrementalModelConfig([[0.0], [0.1]]), make_cost())

    def test_frozen_value(self):
        # at x = (1, 0): grad_phi^T w = [2w1, w2 + w6]; with w = e2 + e6 the
        # pre-tanh argument is 0.1 * 2 / (2 * 2) = 0.05
        u, aux = control(self.make(), [0, 1, 0, 0, 0, 1], [1.0, 0.0])
        assert u[0] == pytest.approx(-2.0 * math.tanh(0.05), abs=1e-12)
        assert aux is None

    def test_du_offsets_previous_input(self):
        # the engine forms du against the input one step back, bit for bit
        log = cached_run(t_end=2.0)
        assert np.array_equal(log.du[2:], log.u[2:] - log.u[1:-1])

    def test_zero_weights_zero_control(self):
        u, _ = control(self.make(), np.zeros(6), [2.0, -2.0])
        assert u[0] == 0.0

    def test_saturation_bound(self, rng):
        law = self.make()
        for _ in range(50):
            w = rng.uniform(-1e4, 1e4, 6)
            x = rng.uniform(-3, 3, 2)
            assert abs(control(law, w, x)[0][0]) <= 2.0 - 1e-12

    def test_cost_matches_shared_form(self):
        # x^T Q x + W(u) + c_bar^2 ||du||^2 at u = u0 + du = 0.5 + 0.5
        _, got = law_pair(self.make(), [1.0, 1.0], [1.0], du=[0.5])
        assert got == pytest.approx(2.0 + kernels.penalty_sat([1.0], 2.0) + 1.0, abs=1e-12)
        assert got == pytest.approx(2.0 + 1.0464963 + 1.0, abs=1e-6)


class TestZsadpLaw:
    def make(self):
        return ZsadpLaw(G_TRUE, K_TRUE, gamma=1.0, cost=make_cost())

    def test_frozen_values(self):
        # same x and w as the incremental case but with the true g column
        u, d_hat = control(self.make(), [0, 1, 0, 0, 0, 1], [1.0, 0.0])
        assert u[0] == pytest.approx(-2.0 * math.tanh(0.125), abs=1e-12)
        # d_hat = k^T [0, 2] / 2 = -0.2
        assert d_hat[0] == pytest.approx(-0.2, abs=1e-12)

    def test_cost_frozen(self):
        # 2 + W(1) - 1 * 0.04
        _, got = law_pair(self.make(), [1.0, 1.0], [1.0], aux=np.array([-0.2]))
        assert got == pytest.approx(2.0 + 1.0464963 - 0.04, abs=1e-6)

    def test_cost_can_go_negative_in_dhat(self):
        _, a = law_pair(self.make(), [0.1, 0.0], [0.0], aux=np.array([0.0]))
        _, b = law_pair(self.make(), [0.1, 0.0], [0.0], aux=np.array([5.0]))
        assert b < a


class TestTadpLaw:
    def make(self):
        return TadpLaw(G_TRUE, K_TRUE, rho=0.1, cost=make_cost())

    def test_h_is_out_of_span_part(self):
        # g spans the second axis, so h keeps only the first component of k
        assert np.allclose(self.make().h, [[1.0], [0.0]], atol=1e-12)

    def test_frozen_values(self):
        # w = e1 at x = (1, 0): grad_phi^T w = [2, 0], v_hat = -2 / (2*0.1)
        u, v_hat = control(self.make(), [1, 0, 0, 0, 0, 0], [1.0, 0.0])
        assert u[0] == 0.0
        assert v_hat[0] == pytest.approx(-10.0, abs=1e-12)

    def test_cost_frozen(self):
        # ||x|| terms: (0.32 + 0.5) * 1 on top of x^T Q x = 1
        _, got = law_pair(self.make(), [1.0, 0.0], [0.0], aux=np.array([0.0]))
        assert got == pytest.approx(1.82, abs=1e-12)

    def test_cost_penalizes_pseudo_control(self):
        _, base = law_pair(self.make(), [1.0, 0.0], [0.0], aux=np.array([0.0]))
        _, got = law_pair(self.make(), [1.0, 0.0], [0.0], aux=np.array([2.0]))
        assert got == pytest.approx(base + 0.1 * 4.0, abs=1e-12)

    def test_h_from_construction(self):
        law = TadpLaw(np.array([[0.0], [-0.25]]), K_TRUE, 0.1, make_cost())
        assert np.allclose(law.h, [[1.0], [0.0]], atol=1e-12)
        law = TadpLaw(np.array([[0.25], [0.0]]), K_TRUE, 0.1, make_cost())
        assert np.allclose(law.h, [[0.0], [-0.2]], atol=1e-12)


def test_baselines_share_saturation_shape(rng):
    _, zs, ta = make_laws()
    for _ in range(20):
        w = rng.uniform(-5, 5, 6)
        x = rng.uniform(-2, 2, 2)
        assert control(zs, w, x)[0][0] == pytest.approx(control(ta, w, x)[0][0], abs=1e-15)


@given(x=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
       w=st.lists(st.floats(-1e9, 1e9), min_size=6, max_size=6))
def test_all_laws_saturation_bound(x, w):
    for law in make_laws():
        u, _ = control(law, w, x)
        assert np.all(np.abs(u) <= 2.0 - 1e-12)


@given(a=st.floats(1e-6, 2.0 * (1 - 1e-6)), b=st.floats(1e-6, 2.0 * (1 - 1e-6)))
def test_penalty_even_and_increasing(a, b):
    # the W(u) term of every law's running cost
    a, b = sorted((a, b))
    wa = kernels.penalty_sat(np.array([a]), 2.0)
    assert kernels.penalty_sat(np.array([-a]), 2.0) == wa
    if b > a * (1 + 1e-9):
        assert kernels.penalty_sat(np.array([b]), 2.0) > wa
