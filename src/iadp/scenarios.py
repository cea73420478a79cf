"""Benchmark scenario presets.

s1: nominal pendulum under the vanishing state-dependent disturbance only.
s2: s1 plus, over t in [20, 60): a 0.2-amplitude 5 s square wave, 50 dB
    measurement noise, and a plant reset to the softened pendulum at t = 20.
s3: s1 plus, over t in [20, 60): a 0.5-amplitude 1 s square wave, 10 dB
    measurement noise, and a plant reset to the sign-inverted pendulum.
"""

from .plant import (ConfigurationError, DisturbanceSignal, Event, EventSchedule,
                    NoiseSpec, pendulum_nominal, pendulum_reset_inverted,
                    pendulum_reset_mild)
from .sim import SimConfig, World

SCENARIO_IDS = ("s1", "s2", "s3")

VANISH_W1 = -0.3906
VANISH_W2 = 1.0051


def build_world(cfg: SimConfig) -> tuple[World, EventSchedule]:
    """Instantiate the plant/disturbance/noise/events for cfg.scenario."""
    sid = cfg.scenario
    if sid not in SCENARIO_IDS:
        raise ConfigurationError(f"unknown scenario {sid!r}")

    d1 = dict(w1=VANISH_W1, w2=VANISH_W2)
    if sid == "s1":
        dist = DisturbanceSignal(kind="vanishing", **d1)
        noise = NoiseSpec(kind="none")
        events = EventSchedule([])
    elif sid == "s2":
        dist = DisturbanceSignal(kind="combined", **d1, amplitude=0.2,
                                 period=5.0, t_on=20.0, t_off=60.0)
        noise = NoiseSpec(kind="gaussian", snr_db=50.0, t_on=20.0, t_off=60.0)
        events = EventSchedule([Event(20.0, "swap_plant", pendulum_reset_mild())])
    else:
        dist = DisturbanceSignal(kind="combined", **d1, amplitude=0.5,
                                 period=1.0, t_on=20.0, t_off=60.0)
        noise = NoiseSpec(kind="gaussian", snr_db=10.0, t_on=20.0, t_off=60.0)
        events = EventSchedule([Event(20.0, "swap_plant", pendulum_reset_inverted())])

    return World(pendulum_nominal(), dist, noise), events


def run_scenario(cfg: SimConfig):
    """Convenience wrapper: build the scenario world and run one episode."""
    from .sim import run_episode
    world, events = build_world(cfg)
    return run_episode(cfg, world, events)
