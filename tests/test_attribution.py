"""What separates the controllers in scenario s3, where c09 requires the
baselines to stop: the 10 dB measurement noise, differenced by dt into the
backward-difference xdot. Each episode runs 21 s, one second past the
noise's start at 20 s.

- With the true xdot, the baselines run through the noise without a stop.
- With s3's noise alone (the nominal plant under the vanishing disturbance,
  no square wave and no plant swap), both stop on non-finite critic
  weights within 0.4 s of the noise's start.
"""

from dataclasses import replace

import pytest

from helpers import cached_run
from iadp.scenarios import WORLDS
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
