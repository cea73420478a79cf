"""The ground-truth plant, disturbance signals, measurement noise, plant swaps,
and the World that holds one scenario's set of them. The three scenarios'
values, the plants' coefficients among them, are ``scenarios.WORLDS``.

The plant is the pendulum family, given by its six coefficients, and the
disturbance is given by its six numbers; the float kernels in ``kernels``
evaluate both and integrate the plant. The noise tracker's and the noise
add's arithmetic on the two states is written out here, in
``NoiseState.update`` and ``add_measurement_noise``. Everything here lives
on the simulator side of the loop: the data-driven controller never
reads these objects, it only sees measured samples. All but the per-episode
NoiseState, which owns the episode's noise generator, are frozen values: an
episode reads its World and changes nothing in it.
"""

import math
from dataclasses import dataclass
from math import sqrt

import numpy as np

# rows of standard normals a NoiseState draws at a time (~120 B a row)
NOISE_BLOCK_ROWS = 1024


class ConfigurationError(ValueError):
    """Raised for dimension mismatches and invalid configuration values."""


@dataclass(frozen=True)
class ControlAffinePlant:
    """The pendulum-family plant xdot = f(x) + g u + k d, with n = 2 states
    and m = 1 input: f = [a*x2, b*sin(x1) + c*x2], g = [0, g2], k = [k1, k2].
    The six coefficients are all the simulator knows of it;
    ``kernels.pendulum_rhs`` evaluates the dynamics at a given disturbance
    value d, and ``kernels.pendulum_rk4`` integrates them, evaluating d at
    its stages 2-4.
    """

    a: float
    b: float
    c: float
    g2: float
    k1: float
    k2: float

    @property
    def params(self) -> tuple:
        """(a, b, c, g2, k1, k2) as floats, as the pendulum kernels take them."""
        return tuple(map(float, (self.a, self.b, self.c, self.g2, self.k1, self.k2)))


@dataclass(frozen=True)
class DisturbanceSignal:
    """Scalar disturbance d(x, t): a vanishing term w1*x1*sin(w2*x2) plus a
    square wave, +A on the first half of each period from t_on and -A on the
    second, while t_on <= t < t_off.

    The numbers alone say which terms act: w1 = 0 has no vanishing term, and
    an empty window (t_on = t_off, the default) has no square wave.
    ``kernels.disturbance_value`` evaluates it from ``packed()``, once per
    state and time.
    """

    w1: float = 0.0
    w2: float = 0.0
    amplitude: float = 0.0
    period: float = 1.0
    t_on: float = 0.0
    t_off: float = 0.0

    def __post_init__(self):
        if not self.period > 0:
            raise ConfigurationError("square wave period must be > 0")
        if not self.t_on <= self.t_off:
            raise ConfigurationError("square wave window requires t_on <= t_off")

    def packed(self) -> tuple:
        """(w1, w2, A, period, t_on, t_off) as floats, as the kernels take them."""
        return tuple(map(float, (self.w1, self.w2, self.amplitude, self.period,
                                 self.t_on, self.t_off)))


@dataclass(frozen=True)
class NoiseSpec:
    """Windowed white Gaussian measurement noise.

    ``snr_db`` sets the per-channel noise std to rms(channel) * 10^(-snr/20),
    where the rms is a running estimate of the clean trajectory: the
    nominal dBW figures are read as signal-to-noise ratios. The noise is on
    while t_on <= t < t_off; an empty window (t_on = t_off, the default) has
    none. ``scale``, 10^(-snr/20), is derived once at construction; it is
    not a field.
    """

    kind: str = "none"
    snr_db: float = 50.0
    t_on: float = 0.0
    t_off: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if not math.isfinite(self.snr_db):
            raise ConfigurationError(f"noise snr_db must be finite, got {self.snr_db!r}")
        if not self.t_on <= self.t_off:
            raise ConfigurationError("noise window requires t_on <= t_off")
        object.__setattr__(self, "scale", 10.0 ** (-self.snr_db / 20.0))


class NoiseState:
    """One episode's noise state: the running signal-power tracker for
    SNR-referenced noise, and the episode's generator of the noise.

    ``msq`` is the running mean square of the plant's two states, a list of
    two floats that ``update`` replaces. ``normals()`` hands out the
    generator's standard normals, two at a time, from blocks of
    NOISE_BLOCK_ROWS rows drawn when the last is used up. For
    ``np.random.default_rng`` that is the stream k calls of
    ``standard_normal(2)`` give, and a state that never draws takes no block.
    """

    def __init__(self, rng: np.random.Generator):
        self.msq = [0.0, 0.0]
        self.count = 0
        self.rng = rng
        self._rows = iter(())

    def update(self, x_true) -> None:
        """Fold x_true into msq: m + (x * x - m) / count, per state."""
        self.count = c = self.count + 1
        x0, x1 = x_true
        m0, m1 = self.msq
        self.msq = [m0 + (x0 * x0 - m0) / c, m1 + (x1 * x1 - m1) / c]

    def normals(self) -> list:
        """The next two standard normals of the stream, as a list."""
        try:
            return next(self._rows)
        except StopIteration:
            block = self.rng.standard_normal((NOISE_BLOCK_ROWS, 2))
            self._rows = iter(block.tolist())
            return next(self._rows)


def add_measurement_noise(x, spec: NoiseSpec, t: float, state: NoiseState):
    """Return x plus windowed Gaussian noise scaled per the spec, with each
    channel's rms and the standard normals read from ``state``.

    Outside the noise window x itself comes back; inside it, a list of two
    floats, x + sqrt(max(msq, 1e-12)) * scale * z, and the call takes
    ``state.normals()`` once.
    """
    if spec.kind == "none" or not (spec.t_on <= t < spec.t_off):
        return x
    scale = spec.scale
    x0, x1 = x
    m0, m1 = state.msq
    z0, z1 = state.normals()
    # max(m, 1e-12) as max picks: m unless 1e-12 > m, so a nan m stays nan
    return [x0 + sqrt(1e-12 if 1e-12 > m0 else m0) * scale * z0,
            x1 + sqrt(1e-12 if 1e-12 > m1 else m1) * scale * z1]


@dataclass(frozen=True)
class Event:
    """A plant swap: the episode integrates ``plant`` from the first step
    boundary at or after ``time``."""

    time: float
    plant: ControlAffinePlant


def apply_event_schedule(events, t_from: float, t_to: float) -> list:
    """The events due in one step, t_from < time <= t_to, in schedule order.

    The engine passes a step's start and landing times, with no lower bound
    on the first step, so each event fires on the first step whose landing
    time reaches it.
    """
    # a loop: on Python 3.11 a comprehension builds a function per call
    fired = []
    for ev in events:
        if t_from < ev.time <= t_to:
            fired.append(ev)
    return fired


@dataclass(frozen=True)
class World:
    """One scenario, read-only: the initial plant, the disturbance, the
    measurement noise, and the plant swaps (``Event``) by strictly
    increasing time."""

    plant: ControlAffinePlant
    disturbance: DisturbanceSignal
    noise: NoiseSpec
    events: tuple = ()

    def __post_init__(self):
        times = [ev.time for ev in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigurationError("event times must be strictly increasing")
