import functools

import numpy as np
import pytest

from iadp.critic import BasisSet, grad_phi
from iadp.scenarios import run_scenario
from iadp.sim import SimConfig
from iadp.tde import DelaySample, IncrementRecord


@functools.lru_cache(maxsize=None)
def cached_run(scenario="s1", controller="iadp", dt=1e-3, t_end=80.0, seed=0,
               xdot_source="backward_difference"):
    """Full scenario episodes are expensive; share them across tests."""
    cfg = SimConfig(scenario=scenario, controller=controller, dt=dt,
                    t_end=t_end, seed=seed, xdot_source=xdot_source)
    return run_scenario(cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def law_pair(law, x, u, du=(0.0,), x0dot=(0.0, 0.0), xdot=(0.0, 0.0), aux=None):
    """law.pair at state x and input u, with increments du and x0dot against
    the delayed sample; returns (Y, Theta)."""
    x = np.asarray(x, dtype=float)
    du = np.asarray(du, dtype=float)
    now = DelaySample(0.0, x, np.asarray(xdot, dtype=float), np.asarray(u, dtype=float))
    rec = IncrementRecord(dx_dot=np.zeros(2), du=du, u0=now.u - du,
                          x0dot=np.asarray(x0dot, dtype=float))
    return law.pair(now, rec, grad_phi(BasisSet.default(), x), aux)
