"""Time-delay estimation layer: delayed sample history and measured increments.

The controller never sees the plant; it sees (x, xdot, u) samples. The delay
line holds them and produces the incremental quantities (dx_dot, du, u0,
x0dot) that stand in for the unknown dynamics. The true lumped-term gap xi is
reconstructed here for diagnostics only.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .plant import ConfigurationError


class WarmUpError(LookupError):
    """History is too short for the requested quantity; caller holds u at 0."""


@dataclass
class DelaySample:
    t: float
    x: np.ndarray
    xdot: np.ndarray
    u: np.ndarray


@dataclass
class IncrementRecord:
    dx_dot: np.ndarray
    du: np.ndarray
    u0: np.ndarray
    x0dot: np.ndarray


class IncrementalModelConfig:
    """Constant input-map surrogate g_bar and its left pseudo-inverse."""

    def __init__(self, g_bar):
        self.g_bar = np.atleast_2d(np.asarray(g_bar, dtype=float))
        if self.g_bar.shape[0] < self.g_bar.shape[1]:
            self.g_bar = self.g_bar.T
        n, m = self.g_bar.shape
        if np.linalg.matrix_rank(self.g_bar) < m:
            raise ConfigurationError("g_bar must have full column rank")
        self.g_bar_pinv = np.linalg.pinv(self.g_bar)


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


def estimate_xdot(line: DelayLine, method: str = "backward_difference") -> np.ndarray:
    """State-derivative estimate at the newest sample.

    "backward_difference" returns (x(t) - x(t-dt))/dt; "ground_truth" passes
    through the xdot the simulator stored on the newest sample.
    """
    if not line.samples:
        raise WarmUpError("empty delay line")
    if method == "ground_truth":
        return line.samples[-1].xdot
    if method == "backward_difference":
        if len(line.samples) < 2:
            raise WarmUpError("backward difference needs two samples")
        a, b = line.samples[-2], line.samples[-1]
        return (b.x - a.x) / line.dt
    raise ConfigurationError(f"unknown xdot method {method!r}")


def compute_increments(line: DelayLine) -> IncrementRecord:
    """Increments between the newest sample and the one L seconds earlier."""
    past, now = line.delayed(), line.samples[-1]
    return IncrementRecord(
        dx_dot=now.xdot - past.xdot,
        du=now.u - past.u,
        u0=past.u,
        x0dot=past.xdot,
    )


def true_tde_error(rec: IncrementRecord, cfg: IncrementalModelConfig) -> np.ndarray:
    """Diagnostic TDE error xi = g_bar^+ dx_dot - du (zero iff the incremental
    model reproduces the measured increment exactly)."""
    return cfg.g_bar_pinv @ rec.dx_dot - rec.du


def fit_tde_bound(xi_norms, du_norms) -> tuple[float, float]:
    """Least-squares fit ||xi|| ~ c*||du|| + delta1 over a logged episode.

    Degenerate logs (all du zero) collapse to an intercept-only fit.
    """
    xi_norms = np.asarray(xi_norms, dtype=float)
    du_norms = np.asarray(du_norms, dtype=float)
    if xi_norms.shape != du_norms.shape or xi_norms.ndim != 1:
        raise ConfigurationError("xi and du norm logs must be equal-length vectors")
    if len(xi_norms) < 100:
        raise ConfigurationError("need at least 100 logged pairs")
    if np.ptp(du_norms) < 1e-15:
        return 0.0, float(np.mean(xi_norms))
    A = np.column_stack([du_norms, np.ones_like(du_norms)])
    (c_fit, delta1_fit), *_ = np.linalg.lstsq(A, xi_norms, rcond=None)
    return float(c_fit), float(delta1_fit)
