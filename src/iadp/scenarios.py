"""The benchmark scenarios, each one read-only World built once, at import.

s1: nominal pendulum under the vanishing state-dependent disturbance only.
s2: s1 plus, over t in [20, 60): a 0.2-amplitude 5 s square wave, 50 dB
    measurement noise, and a plant reset to the softened pendulum at t = 20.
s3: s1 plus, over t in [20, 60): a 0.5-amplitude 1 s square wave, 10 dB
    measurement noise, and a plant reset to the sign-inverted pendulum.

WORLDS' keys are the scenario names, which ``SimConfig`` checks. This
module imports no ``sim``, so ``sim`` imports WORLDS.
"""

from dataclasses import replace
from types import MappingProxyType

from .plant import ControlAffinePlant, DisturbanceSignal, Event, NoiseSpec, World

# the plants' coefficients (a, b, c, g2, k1, k2) and the disturbance's
# vanishing term (w1, w2) are written here only
_NOMINAL = ControlAffinePlant(1.0, -4.9, -0.2, 0.25, 1.0, -0.2)
_VANISHING = DisturbanceSignal(w1=-0.3906, w2=1.0051)

WORLDS = MappingProxyType({
    "s1": World(_NOMINAL, _VANISHING, NoiseSpec()),
    "s2": World(_NOMINAL,
                replace(_VANISHING, amplitude=0.2, period=5.0, t_on=20.0, t_off=60.0),
                NoiseSpec(kind="gaussian", snr_db=50.0, t_on=20.0, t_off=60.0),
                (Event(20.0, ControlAffinePlant(1.0, -2.0, -0.1, 0.1, 1.0, -0.1)),)),
    "s3": World(_NOMINAL,
                replace(_VANISHING, amplitude=0.5, period=1.0, t_on=20.0, t_off=60.0),
                NoiseSpec(kind="gaussian", snr_db=10.0, t_on=20.0, t_off=60.0),
                (Event(20.0, ControlAffinePlant(-1.0, 4.9, -0.2, -0.25, 1.0, -0.2)),)),
})


def build_world(cfg) -> World:
    """The World of cfg.scenario, a ``SimConfig``'s checked name. It is
    read-only, so any number of episodes, of any seeds, may share it."""
    return WORLDS[cfg.scenario]


def run_scenario(cfg, on_rows=None):
    """Convenience wrapper: build the scenario world and run one episode,
    passing ``on_rows`` to ``run_episode``."""
    from .sim import run_episode
    return run_episode(cfg, build_world(cfg), on_rows)
