"""Ground-truth plants, disturbance signals, measurement noise, and timed events.

Everything here lives on the simulator side of the loop: the data-driven
controller never reads these objects, it only sees measured samples.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels


class ConfigurationError(ValueError):
    """Raised for dimension mismatches and invalid configuration values."""


class NumericFault(FloatingPointError):
    """Raised when a plant evaluation produces non-finite entries."""


@dataclass
class ControlAffinePlant:
    """Continuous-time plant xdot = f(x) + g(x) u + k(x) d.

    ``drift`` maps (n,) -> (n,), ``input_map`` maps (n,) -> (n, m),
    ``disturbance_map`` maps (n,) -> (n, q). g(x) is assumed full column
    rank.
    """

    n: int
    m: int
    q: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_map: Callable[[np.ndarray], np.ndarray]
    disturbance_map: Callable[[np.ndarray], np.ndarray]
    name: str = "plant"
    # coefficient vector for the fused RK4 kernel, pendulum family only
    pendulum_params: Optional[np.ndarray] = None


def eval_dynamics(plant: ControlAffinePlant, x, u, d, t: float = 0.0) -> np.ndarray:
    """Evaluate f(x) + g(x) u + k(x) d, validating dimensions and finiteness."""
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if x.shape != (plant.n,):
        raise ConfigurationError(f"state has shape {x.shape}, expected ({plant.n},)")
    if u.shape != (plant.m,):
        raise ConfigurationError(f"input has shape {u.shape}, expected ({plant.m},)")
    if d.shape != (plant.q,):
        raise ConfigurationError(f"disturbance has shape {d.shape}, expected ({plant.q},)")
    out = (
        plant.drift(x)
        + plant.input_map(x).reshape(plant.n, plant.m) @ u
        + plant.disturbance_map(x).reshape(plant.n, plant.q) @ d
    )
    if not np.all(np.isfinite(out)):
        raise NumericFault(f"non-finite dynamics at t={t}")
    return out


def make_pendulum(a: float, b: float, c: float, g2: float, k1: float, k2: float,
                  name: str = "pendulum") -> ControlAffinePlant:
    """Pendulum-family plant: f = [a*x2, b*sin(x1) + c*x2], g = [0, g2], k = [k1, k2]."""
    params = np.array([a, b, c, g2, k1, k2])

    def drift(x):
        return np.array([a * x[1], b * np.sin(x[0]) + c * x[1]])

    def input_map(x):
        return np.array([[0.0], [g2]])

    def disturbance_map(x):
        return np.array([[k1], [k2]])

    return ControlAffinePlant(2, 1, 1, drift, input_map, disturbance_map,
                              name=name, pendulum_params=params)


def pendulum_nominal() -> ControlAffinePlant:
    """The benchmark pendulum: f = [x2, -4.9 sin x1 - 0.2 x2], g = [0, 0.25]."""
    return make_pendulum(1.0, -4.9, -0.2, 0.25, 1.0, -0.2, name="pendulum_nominal")


def pendulum_reset_mild() -> ControlAffinePlant:
    """Post-reset pendulum with softened parameters (t = 20 s event, scenario s2)."""
    return make_pendulum(1.0, -2.0, -0.1, 0.1, 1.0, -0.1, name="pendulum_reset_mild")


def pendulum_reset_inverted() -> ControlAffinePlant:
    """Post-reset pendulum with sign-inverted parameters (scenario s3)."""
    return make_pendulum(-1.0, 4.9, -0.2, -0.25, 1.0, -0.2, name="pendulum_reset_inverted")


@dataclass
class DisturbanceSignal:
    """Scalar disturbance: vanishing state-dependent term plus a windowed square wave.

    kind "none", "vanishing" (w1*x1*sin(w2*x2)), or "square_wave" (+A on the
    first half-period after t_on, -A on the second, zero outside the window).
    "combined" sums a vanishing part and a square-wave part; scenario presets
    use it to layer the non-vanishing wave on top of the baseline disturbance.
    """

    kind: str = "none"
    w1: float = 0.0
    w2: float = 0.0
    amplitude: float = 0.0
    period: float = 1.0
    t_on: float = 0.0
    t_off: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "vanishing", "square_wave", "combined"):
            raise ConfigurationError(f"unknown disturbance kind {self.kind!r}")
        if self.kind in ("square_wave", "combined"):
            if self.period <= 0:
                raise ConfigurationError("square wave period must be > 0")
            if self.t_on >= self.t_off:
                raise ConfigurationError("square wave window requires t_on < t_off")

    def packed(self) -> np.ndarray:
        """Parameter vector consumed by the fused pendulum kernel."""
        sq = 1.0 if self.kind in ("square_wave", "combined") else 0.0
        w1 = self.w1 if self.kind in ("vanishing", "combined") else 0.0
        return np.array([w1, self.w2, sq, self.amplitude, self.period,
                         self.t_on, self.t_off])


def disturbance_value(signal: DisturbanceSignal, x, t: float) -> tuple:
    """Evaluate the scalar disturbance at state x and time t, as a 1-tuple."""
    d = 0.0
    if signal.kind in ("vanishing", "combined"):
        d += signal.w1 * x[0] * kernels.sin(signal.w2 * x[1])
    if signal.kind in ("square_wave", "combined"):
        if signal.t_on <= t < signal.t_off:
            phase = (t - signal.t_on) % signal.period
            d += signal.amplitude if phase < 0.5 * signal.period else -signal.amplitude
    return (d,)


@dataclass
class NoiseSpec:
    """Windowed white Gaussian measurement noise.

    ``snr_db`` sets the per-channel noise std to rms(channel) * 10^(-snr/20),
    where the rms is a running estimate of the clean trajectory: the
    nominal dBW figures are read as signal-to-noise ratios.
    """

    kind: str = "none"
    snr_db: float = 50.0
    t_on: float = 0.0
    t_off: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")


class NoiseState:
    """Per-episode running signal-power tracker for SNR-referenced noise;
    ``msq`` is the per-channel running mean square, a list of floats."""

    def __init__(self, n: int):
        self.msq = [0.0] * n
        self.count = 0

    def update(self, x_true) -> None:
        self.count += 1
        c = self.count
        self.msq = [m + (xi * xi - m) / c for m, xi in zip(self.msq, x_true)]


def add_measurement_noise(x, spec: NoiseSpec, t: float, rng: np.random.Generator,
                          state: Optional[NoiseState] = None):
    """Return x plus windowed Gaussian noise scaled per the spec.

    Outside the noise window x itself comes back; inside it, a tuple of
    floats. Each noisy call draws ``rng.standard_normal(len(x))``.
    """
    if spec.kind == "none" or not (spec.t_on <= t < spec.t_off):
        return x
    msq = state.msq if state is not None and state.count > 0 \
        else [max(xi * xi, 1e-12) for xi in x]
    scale = 10.0 ** (-spec.snr_db / 20.0)
    sigma = [math.sqrt(max(m, 1e-12)) * scale for m in msq]
    z = rng.standard_normal(len(x)).tolist()
    return tuple(xi + si * zi for xi, si, zi in zip(x, sigma, z))


@dataclass
class Event:
    time: float
    action: str  # swap_plant | set_disturbance | set_noise
    payload: object = None
    fired: bool = False


@dataclass
class EventSchedule:
    events: list = field(default_factory=list)

    def __post_init__(self):
        times = [e.time for e in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigurationError("event times must be strictly increasing")


def apply_event_schedule(schedule: EventSchedule, t: float, world) -> list:
    """Fire all not-yet-fired events with time <= t against the mutable world.

    ``world`` is any object exposing ``plant``, ``disturbance``, and ``noise``
    attributes (the simulation environment).
    """
    fired = []
    for ev in schedule.events:
        if ev.fired or ev.time > t:
            continue
        if ev.action == "swap_plant":
            world.plant = ev.payload
        elif ev.action == "set_disturbance":
            world.disturbance = ev.payload
        elif ev.action == "set_noise":
            world.noise = ev.payload
        else:
            raise ConfigurationError(f"unknown event action {ev.action!r}")
        ev.fired = True
        fired.append(ev)
    return fired
