"""Experience buffer with rank-condition reporting and the off-policy
critic weight update.

The buffer stores raw (Y_l, Theta_l) pairs and their Gram summary
M = sum_l Y_l Y_l^T, b = sum_l Theta_l Y_l, rebuilt whenever a pair is stored.
The summed squared replay residuals are an exact quadratic in w with
gradient b + M w, so the update law stays the exact gradient flow on them
without re-forming each residual on every call.
"""

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .kernels import weight_derivative_kernel
from .plant import ConfigurationError


@dataclass
class RegressionPair:
    Y: np.ndarray
    Theta: float


@dataclass
class RankReport:
    rank: int
    sigma_min: float


@dataclass
class LearnerGains:
    Gamma: np.ndarray
    k_c: float = 5.0
    k_e: float = 3.0

    def __post_init__(self):
        self.Gamma = np.asarray(self.Gamma, dtype=float)
        if not np.allclose(self.Gamma, self.Gamma.T) or np.linalg.eigvalsh(self.Gamma)[0] <= 0:
            raise ConfigurationError("Gamma must be symmetric positive definite")
        if self.k_c <= 0 or self.k_e <= 0:
            raise ConfigurationError("k_c and k_e must be > 0")


class ExperienceBuffer:
    """Fixed-capacity replay store of (Y_l, Theta_l) regression points: ``Y``
    is a list of float rows, ``Theta`` a list of floats, and ``M`` (N rows of
    N floats) and ``b`` (N floats) are their Gram summary sum_l Y_l Y_l^T and
    sum_l Theta_l Y_l, zeros while the buffer is empty."""

    def __init__(self, capacity: int, N: int, policy: str = "sequential_fill"):
        if policy not in ("sequential_fill", "sigma_min_enrich"):
            raise ConfigurationError(f"unknown insertion policy {policy!r}")
        self.capacity = capacity
        self.N = N
        self.policy = policy
        self.Y: list[list[float]] = []
        self.Theta: list[float] = []
        self._summarise()

    def __len__(self) -> int:
        return len(self.Y)

    def _summarise(self) -> None:
        """Rebuild M and b from the stored rows, summing in row order."""
        cols = list(zip(*self.Y)) or [()] * self.N
        self.M = [[sum(map(mul, cj, ck), 0.0) for ck in cols] for cj in cols]
        self.b = [sum(map(mul, cj, self.Theta), 0.0) for cj in cols]

    def _report(self) -> RankReport:
        if len(self) == 0:
            return RankReport(0, 0.0)
        sv = np.linalg.svd(np.array(self.Y).T, compute_uv=False)
        tol = 1e-8 * sv[0] if sv[0] > 0 else 0.0
        return RankReport(int(np.sum(sv > tol)), float(sv[-1]) if len(sv) == self.N else 0.0)


def rank_report(buf: ExperienceBuffer) -> RankReport:
    """Numerical rank and smallest singular value of the stacked regressors."""
    return buf._report()


def try_insert(buf: ExperienceBuffer, Y, Theta: float) -> tuple[bool, RankReport]:
    """Insert a candidate point per the buffer policy.

    sequential_fill appends until capacity and then stops. sigma_min_enrich
    additionally replaces, once full, the stored point whose substitution by
    the candidate most increases sigma_min of the stacked Y matrix, and only
    if that increase is strict.
    """
    Y = [float(v) for v in Y]
    Theta = float(Theta)
    if not (all(map(math.isfinite, Y)) and math.isfinite(Theta)):
        return False, buf._report()
    if len(buf) < buf.capacity:
        buf.Y.append(Y)
        buf.Theta.append(Theta)
        buf._summarise()
        return True, buf._report()
    if buf.policy == "sequential_fill":
        return False, buf._report()

    stored = np.array(buf.Y)
    base = np.linalg.svd(stored.T, compute_uv=False)[-1]
    best_gain, best_idx = 0.0, -1
    for i in range(buf.capacity):
        trial = stored.copy()
        trial[i] = Y
        s = np.linalg.svd(trial.T, compute_uv=False)[-1]
        if s - base > best_gain:
            best_gain, best_idx = s - base, i
    if best_idx < 0:
        return False, buf._report()
    buf.Y[best_idx] = Y
    buf.Theta[best_idx] = Theta
    buf._summarise()
    return True, buf._report()


def residual(w, pair: RegressionPair) -> float:
    """Bellman residual Theta_tilde = Theta + w^T Y."""
    return float(pair.Theta + np.asarray(w, dtype=float) @ np.asarray(pair.Y, dtype=float))


def weight_derivative(w, current: RegressionPair | None, buf: ExperienceBuffer,
                      gains: LearnerGains) -> np.ndarray:
    """Off-policy update: -Gamma (k_c Y Theta_tilde + k_e sum_l Y_l Theta_tilde_l).

    ``current`` may be None (replay-only update, e.g. after the excitation
    phase when no fresh pair is available).
    """
    w = np.asarray(w, dtype=float)
    if current is None:
        Y = np.zeros_like(w)
        resid = 0.0
    else:
        Y = np.asarray(current.Y, dtype=float)
        resid = float(current.Theta + w @ Y)
    return weight_derivative_kernel(w, Y, resid, buf.M, buf.b,
                                    gains.Gamma, gains.k_c, gains.k_e)


def step_weights(w, wdot, dt: float) -> tuple[list, bool]:
    """Explicit Euler step of the weight ODE: (w + dt*wdot as a list, finite).

    A non-finite entry means the critic has diverged: it comes back zeroed,
    so the logged weights stay finite, and ``finite`` is False.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be > 0")
    out = [wi + dt * di for wi, di in zip(w, wdot)]
    if all(map(math.isfinite, out)):
        return out, True
    return [v if math.isfinite(v) else 0.0 for v in out], False
