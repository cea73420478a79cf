"""Time-delay estimation: the delay line, its increments and the xi diagnostic.

The controller never sees the plant; it sees (x, xdot, u) samples. The delay
line holds them, estimates xdot by a backward difference, and produces the
increments (dx_dot, du, x0dot) that stand in for the unknown dynamics. The
TDE error xi is reconstructed here for diagnostics only.
"""

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from operator import sub

import numpy as np

from . import kernels
from .plant import ConfigurationError


class WarmUpError(LookupError):
    """History is too short for the requested quantity; caller holds u at 0."""


@dataclass(slots=True)
class DelaySample:
    """One measured sample; x, xdot and u are sequences of floats."""

    t: float
    x: Sequence[float]
    xdot: Sequence[float]
    u: Sequence[float]


@dataclass(slots=True)
class IncrementRecord:
    dx_dot: Sequence[float]
    du: Sequence[float]
    x0dot: Sequence[float]


class IncrementalModelConfig:
    """Constant input-map surrogate g_bar (n x m) and its left pseudo-inverse
    (m x n), both held as tuples of row tuples."""

    def __init__(self, g_bar):
        g = np.atleast_2d(np.asarray(g_bar, dtype=float))
        if g.shape[0] < g.shape[1]:
            g = g.T
        if np.linalg.matrix_rank(g) < g.shape[1]:
            raise ConfigurationError("g_bar must have full column rank")
        self.g_bar = tuple(map(tuple, g.tolist()))
        self.g_bar_pinv = tuple(map(tuple, np.linalg.pinv(g).tolist()))


class DelayLine:
    """The two newest samples of a stream spaced dt apart: the newest and the
    one L = dt before it (the loop's one-sample delay)."""

    def __init__(self, dt: float):
        if dt <= 0:
            raise ConfigurationError("dt must be > 0")
        self.dt = dt
        self.samples: deque[DelaySample] = deque(maxlen=2)

    def push(self, s: DelaySample) -> None:
        if self.samples:
            gap = s.t - self.samples[-1].t
            if abs(gap - self.dt) > 1e-9:
                raise ValueError(f"out-of-order or gapped timestamp: step of {gap}, expected {self.dt}")
        self.samples.append(s)

    def delayed(self) -> DelaySample:
        """The sample at t - L relative to the most recent push."""
        if len(self.samples) < 2:
            raise WarmUpError("delay line not yet full")
        return self.samples[0]


def estimate_xdot(line: DelayLine):
    """Backward-difference state derivative (x(t) - x(t-dt))/dt at the
    newest sample."""
    if len(line.samples) < 2:
        raise WarmUpError("backward difference needs two samples")
    a, b = line.samples
    dt = line.dt
    return [(xb - xa) / dt for xa, xb in zip(a.x, b.x)]


def compute_increments(line: DelayLine) -> IncrementRecord:
    """Increments between the newest sample and the one L seconds earlier."""
    past, now = line.delayed(), line.samples[-1]
    return IncrementRecord(list(map(sub, now.xdot, past.xdot)),
                           list(map(sub, now.u, past.u)), past.xdot)


def true_tde_error(rec: IncrementRecord, cfg: IncrementalModelConfig) -> list:
    """Diagnostic TDE error xi = g_bar^+ dx_dot - du (zero iff the incremental
    model reproduces the measured increment exactly)."""
    return list(map(sub, kernels.matvec(cfg.g_bar_pinv, rec.dx_dot), rec.du))
