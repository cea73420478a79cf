"""What sets the acceptance criteria's outcomes.

In scenario s3, where c09 requires the baselines to stop: the 10 dB
measurement noise, differenced by dt into the backward-difference xdot.
Each episode runs 21 s, one second past the noise's start at 20 s.

- With the true xdot, the baselines run through the noise without a stop.
- With s3's noise alone (the nominal plant under the vanishing disturbance,
  no square wave and no plant swap), both stop on non-finite critic
  weights within 0.4 s of the noise's start.

In scenario s1, where c07 orders the controllers' E_u: the scale of IADP's
surrogate input column g_bar, not the TDE-bound term (c_bar du)^2 of its
running cost. Each episode runs 20 s, by which the state has settled and
E_u and E_x change no more than in their last digits.

- c_bar = 1e-6 and the default c_bar = 2 give the same E_u and E_x to
  within 1e-5, relative.

In scenario s3, where c09 bounds iadp's state on [20, 60] s under the
noise, c_bar = 1e-6 gives the default's numbers too: the episode runs its
60 s without a stop, with the same sup||x|| on [20, 60] to 1e-3 and the
same E_u at 60 s to 2e-3, relative.
- With g_bar = (0, 0.25), the plant's true input column, in place of the
  default (0, 0.1), zsadp's E_u is below iadp's: c07's zsadp ordering does
  not hold.

In scenario s2, where c08 orders the controllers' E_x at 80 s: how little
input a law applies, as the plants are stable open-loop. Each episode runs
the 80 s that c08 reads; iadp's and zsadp's default episodes are c08's own.

- u = 0's E_x is below iadp's on every row.
- With g_bar = (0, 0.25), iadp's E_x is above zsadp's: c08's zsadp
  ordering does not hold.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import cached_run
from iadp.scenarios import WORLDS, run_scenario
from iadp.sim import SimConfig, run_episode

BASELINES = ("zsadp", "tadp")


@pytest.mark.parametrize("controller", BASELINES)
def test_true_xdot_runs_through_the_noise(controller):
    log = cached_run(scenario="s3", controller=controller, t_end=21.0,
                     xdot_source="ground_truth")
    assert log.rows() == 21001
    assert not log.diverged and log.stop_cause == ""


@pytest.mark.parametrize("controller", BASELINES)
def test_noise_alone_stops_the_baselines(controller):
    cfg = SimConfig(scenario="s3", controller=controller, t_end=21.0)
    noise = WORLDS["s3"].noise
    assert (noise.kind, noise.snr_db, noise.t_on) == ("gaussian", 10.0, 20.0)
    log = run_episode(cfg, replace(WORLDS["s1"], noise=noise))
    # seed 0 stops at 20.135 s (zsadp) and 20.138 s (tadp)
    assert log.stop_cause == "nonfinite_weights"
    assert noise.t_on < log.t[-1] < 20.4


def test_tde_bound_term_is_inert_on_s1():
    # measured relative gaps: 4.3e-7 on E_u and 3.8e-9 on E_x
    tiny, default = (run_scenario(SimConfig(t_end=20.0, c_bar=c)) for c in (1e-6, 2.0))
    for name in ("E_u", "E_x"):
        got, ref = getattr(tiny, name)[-1], getattr(default, name)[-1]
        assert abs(got - ref) <= 1e-5 * ref, name


def test_tde_bound_term_is_inert_on_s3():
    # c09's iadp numbers; the default's come from its cached 80 s episode,
    # whose first 60 s are the same steps. Measured relative gaps: 9.0e-9 on
    # sup||x|| (0.4221) and 8.3e-4 on E_u (48.411 against 48.371)
    tiny = run_scenario(SimConfig(scenario="s3", t_end=60.0, c_bar=1e-6))
    default = cached_run(scenario="s3")
    assert tiny.rows() == 60001 and tiny.stop_cause == ""

    def sup_x(log):
        window = (log.t >= 20.0) & (log.t <= 60.0)
        return np.max(np.linalg.norm(log.x_true[window], axis=1))

    assert abs(sup_x(tiny) - sup_x(default)) <= 1e-3 * sup_x(default)
    assert abs(tiny.E_u[-1] - default.E_u[60000]) <= 2e-3 * default.E_u[60000]


def test_true_input_column_reverses_zsadp_ordering():
    # IADP's law is -beta tanh(g_bar . v / 2 beta), and the default g_bar_2 =
    # 0.1 is 0.4 of the true g_2 = 0.25 that zsadp's law applies; c07's
    # zsadp/iadp ratio at the default is 6.02. Measured here: 0.966
    cfg = SimConfig(t_end=20.0, g_bar=[[0.0], [0.25]])
    zsadp, iadp = (run_scenario(replace(cfg, controller=c)) for c in ("zsadp", "iadp"))
    assert zsadp.E_u[-1] / iadp.E_u[-1] < 1.0


def test_zero_input_is_below_iadp_on_s2():
    # measured at 80 s: 179.400 against 180.405; the gap is 1.40 at 20 s,
    # where s2 is still s1, and no row has u = 0's E_x above iadp's
    zero = run_scenario(SimConfig(scenario="s2", controller="zero"))
    iadp = cached_run(scenario="s2")
    assert zero.rows() == iadp.rows() == 80001
    assert np.all(zero.E_x <= iadp.E_x) and zero.E_x[-1] < iadp.E_x[-1]


def test_true_input_column_reverses_c08_zsadp_ordering():
    # c08's zsadp margin at the default g_bar is 1.18 (181.583 against
    # 180.405); with the true input column iadp's E_u rises from 0.0697 to
    # 0.432 and its E_x to 181.607, above zsadp's
    iadp = run_scenario(SimConfig(scenario="s2", g_bar=[[0.0], [0.25]]))
    zsadp = cached_run(scenario="s2", controller="zsadp")
    assert iadp.rows() == zsadp.rows() == 80001
    assert iadp.E_x[-1] > zsadp.E_x[-1]
