"""The ground-truth plant, disturbance signals, measurement noise, and timed events.

The plant is the pendulum family, given by its six coefficients; the
float kernels in ``kernels`` evaluate and integrate it. Everything here
lives on the simulator side of the loop: the data-driven controller never
reads these objects, it only sees measured samples.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels


class ConfigurationError(ValueError):
    """Raised for dimension mismatches and invalid configuration values."""


@dataclass
class ControlAffinePlant:
    """The pendulum-family plant xdot = f(x) + g u + k d with n = 2, m = q = 1:
    f = [a*x2, b*sin(x1) + c*x2], g = [0, g2], k = [k1, k2]. The six
    coefficients are all the simulator knows of it; ``kernels.pendulum_rhs``
    evaluates the dynamics and ``kernels.pendulum_rk4`` integrates them.
    """

    n, m, q = 2, 1, 1

    a: float
    b: float
    c: float
    g2: float
    k1: float
    k2: float
    name: str = "pendulum"

    @property
    def params(self) -> tuple:
        """(a, b, c, g2, k1, k2) as floats, as the pendulum kernels take them."""
        return tuple(map(float, (self.a, self.b, self.c, self.g2, self.k1, self.k2)))


def pendulum_nominal() -> ControlAffinePlant:
    """The benchmark pendulum: f = [x2, -4.9 sin x1 - 0.2 x2], g = [0, 0.25]."""
    return ControlAffinePlant(1.0, -4.9, -0.2, 0.25, 1.0, -0.2, name="pendulum_nominal")


def pendulum_reset_mild() -> ControlAffinePlant:
    """Post-reset pendulum with softened parameters (t = 20 s event, scenario s2)."""
    return ControlAffinePlant(1.0, -2.0, -0.1, 0.1, 1.0, -0.1, name="pendulum_reset_mild")


def pendulum_reset_inverted() -> ControlAffinePlant:
    """Post-reset pendulum with sign-inverted parameters (scenario s3)."""
    return ControlAffinePlant(-1.0, 4.9, -0.2, -0.25, 1.0, -0.2, name="pendulum_reset_inverted")


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

    def packed(self) -> tuple:
        """(w1, w2, sq_on, A, period, t_on, t_off) as floats, as the pendulum
        kernels take them."""
        sq = 1.0 if self.kind in ("square_wave", "combined") else 0.0
        w1 = self.w1 if self.kind in ("vanishing", "combined") else 0.0
        return tuple(map(float, (w1, self.w2, sq, self.amplitude, self.period,
                                 self.t_on, self.t_off)))


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
