"""Experience buffer with rank-condition reporting and the off-policy
critic weight update.

The buffer stores raw (Y_l, Theta_l) pairs; replay residuals are recomputed
against the live weights on every call, which is what makes the update law a
true gradient flow on the summed squared residuals.
"""

from dataclasses import dataclass, field

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
    """Fixed-capacity replay store of (Y_l, Theta_l) regression points."""

    def __init__(self, capacity: int, N: int, policy: str = "sequential_fill"):
        if policy not in ("sequential_fill", "sigma_min_enrich"):
            raise ConfigurationError(f"unknown insertion policy {policy!r}")
        self.capacity = capacity
        self.N = N
        self.policy = policy
        self.Y = np.zeros((0, N))
        self.Theta = np.zeros(0)

    def __len__(self) -> int:
        return self.Y.shape[0]

    def _report(self) -> RankReport:
        if len(self) == 0:
            return RankReport(0, 0.0)
        sv = np.linalg.svd(self.Y.T, compute_uv=False)
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
    Y = np.asarray(Y, dtype=float)
    if not (np.all(np.isfinite(Y)) and np.isfinite(Theta)):
        return False, buf._report()
    if len(buf) < buf.capacity:
        buf.Y = np.vstack([buf.Y, Y[None, :]])
        buf.Theta = np.append(buf.Theta, Theta)
        return True, buf._report()
    if buf.policy == "sequential_fill":
        return False, buf._report()

    base = np.linalg.svd(buf.Y.T, compute_uv=False)[-1]
    best_gain, best_idx = 0.0, -1
    for i in range(buf.capacity):
        trial = buf.Y.copy()
        trial[i] = Y
        s = np.linalg.svd(trial.T, compute_uv=False)[-1]
        if s - base > best_gain:
            best_gain, best_idx = s - base, i
    if best_idx < 0:
        return False, buf._report()
    buf.Y[best_idx] = Y
    buf.Theta[best_idx] = Theta
    return True, buf._report()


def residual(w, pair: RegressionPair) -> float:
    """Bellman residual Theta_tilde = Theta + w^T Y."""
    return float(pair.Theta + np.asarray(w, dtype=float) @ pair.Y)


def weight_derivative(w, current: RegressionPair | None, buf: ExperienceBuffer,
                      gains: LearnerGains) -> np.ndarray:
    """Off-policy update: -Gamma (k_c Y Theta_tilde + k_e sum_l Y_l Theta_tilde_l).

    ``current`` may be None (replay-only update, e.g. after the excitation
    phase when no fresh pair is available).
    """
    w = np.asarray(w, dtype=float)
    if current is None:
        Y = np.zeros_like(w)
        theta = 0.0
    else:
        Y = np.asarray(current.Y, dtype=float)
        theta = float(current.Theta)
    return weight_derivative_kernel(w, Y, theta, buf.Y, buf.Theta,
                                    gains.Gamma, gains.k_c, gains.k_e)


def step_weights(w, wdot, dt: float) -> tuple[np.ndarray, bool]:
    """Explicit Euler step of the weight ODE: (w + dt*wdot, finite).

    A non-finite entry means the critic has diverged: it comes back zeroed,
    so the logged weights stay finite, and ``finite`` is False.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be > 0")
    out = w + dt * wdot
    if np.all(np.isfinite(out)):
        return out, True
    return np.where(np.isfinite(out), out, 0.0), False
