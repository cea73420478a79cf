"""The critic's experience buffer and its Gram summary.

The buffer stores raw (Y_l, Theta_l) pairs and their Gram summary
M = sum_l Y_l Y_l^T, b = sum_l Theta_l Y_l, rebuilt whenever a pair is stored.
``try_insert`` appends until the buffer is full, then replaces a point only
where that raises sigma_min; the engine offers one on the fixed schedule
``sim.BUFFER_EVERY``, ``sim.BUFFER_UNTIL`` and ``sim.RANK_DEADLINE``.
The summed squared replay residuals are an exact quadratic in w with
gradient b + M w, so the update law (``kernels.weight_derivative_kernel``)
stays the exact gradient flow on them without re-forming each residual on
every call. The engine integrates that law with the generated
``kernels._euler``, bound per episode, and zeroes the non-finite entries
of a diverged step itself. The law's gains Gamma, k_c and k_e, like dt,
are ``SimConfig`` fields and checked there.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass
class RankReport:
    rank: int
    sigma_min: float


class ExperienceBuffer:
    """Fixed-capacity replay store of (Y_l, Theta_l) regression points: ``Y``
    is a list of float rows, ``Theta`` a list of floats, and ``M`` (N rows of
    N floats) and ``b`` (N floats) are their Gram summary sum_l Y_l Y_l^T and
    sum_l Theta_l Y_l, zeros while the buffer is empty."""

    def __init__(self, capacity: int, N: int):
        self.capacity = capacity
        self.N = N
        self.Y: list[list[float]] = []
        self.Theta: list[float] = []
        self._summarise()

    def __len__(self) -> int:
        return len(self.Y)

    def _summarise(self) -> None:
        """Rebuild M and b from the stored rows, summing in row order from 0.0."""
        cols = list(zip(*self.Y)) or [()] * self.N
        self.M = [[kernels.dot(cj, ck) for ck in cols] for cj in cols]
        self.b = [kernels.dot(cj, self.Theta) for cj in cols]

    def report(self) -> RankReport:
        """Numerical rank and smallest singular value of the stacked regressors."""
        if len(self) == 0:
            return RankReport(0, 0.0)
        sv = np.linalg.svd(np.array(self.Y).T, compute_uv=False)
        tol = 1e-8 * sv[0] if sv[0] > 0 else 0.0
        return RankReport(int(np.sum(sv > tol)), float(sv[-1]) if len(sv) == self.N else 0.0)


def try_insert(buf: ExperienceBuffer, Y, Theta: float) -> tuple[bool, RankReport]:
    """Offer a candidate point to the buffer.

    Until the buffer is full the candidate is appended. Once it is full, the
    candidate replaces the stored point whose substitution most increases
    sigma_min of the stacked Y matrix, and only if that increase is strict.
    """
    Y = [float(v) for v in Y]
    Theta = float(Theta)
    if not (all(map(math.isfinite, Y)) and math.isfinite(Theta)):
        return False, buf.report()
    if len(buf) < buf.capacity:
        buf.Y.append(Y)
        buf.Theta.append(Theta)
        buf._summarise()
        return True, buf.report()

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
        return False, buf.report()
    buf.Y[best_idx] = Y
    buf.Theta[best_idx] = Theta
    buf._summarise()
    return True, buf.report()

