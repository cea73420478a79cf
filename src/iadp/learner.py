"""The critic's experience buffer and its Gram summary.

The buffer stores raw (Y_l, Theta_l) pairs and their Gram summary
M = sum_l Y_l Y_l^T, b = sum_l Theta_l Y_l, rebuilt whenever a pair is stored.
``try_insert`` appends until the buffer is full, then replaces a point only
where that raises sigma_min. The buffer owns the replay schedule below; the
engine logs ``rank`` and the final ``sigma_min``, kept from each storing
offer's singular values.
The summed squared replay residuals are an exact quadratic in w with
gradient b + M w, so the update law (``kernels.weight_derivative_kernel``)
stays the exact gradient flow on them without re-forming each residual on
every call. The engine integrates that law with the generated
``kernels._euler``, bound per episode, and zeroes the non-finite entries
of a diverged step itself. The law's gains Gamma, k_c and k_e, like dt,
are ``SimConfig`` fields and checked there.
"""

import math

import numpy as np

from . import kernels

# the replay schedule, in seconds: a candidate every BUFFER_PERIOD while the
# rank is short of N, and before BUFFER_UNTIL while the buffer fills or has
# enriched; a rank short of N at RANK_DEADLINE is insufficient excitation
BUFFER_PERIOD = 0.01
BUFFER_UNTIL = 2.0
RANK_DEADLINE = 5.0


class ExperienceBuffer:
    """Fixed-capacity replay store of (Y_l, Theta_l) regression points: ``Y``
    is a list of float rows, ``Theta`` a list of floats, and ``M`` (N rows of
    N floats) and ``b`` (N floats) are their Gram summary sum_l Y_l Y_l^T and
    sum_l Theta_l Y_l, zeros while the buffer is empty. ``rank`` is the
    numerical rank of the stacked rows (singular values above 1e-8 times the
    largest) and ``sigma_min`` their N-th singular value, 0.0 while fewer
    than N points are stored: the rank condition holds once rank == N.
    ``enriched`` is set once a candidate is offered to the full buffer; ``wants`` reads it."""

    def __init__(self, capacity: int, N: int):
        self.capacity = capacity
        self.N = N
        self.enriched = False
        self.Y: list[list[float]] = []
        self.Theta: list[float] = []
        self._summarise(np.zeros(0))

    def __len__(self) -> int:
        return len(self.Y)

    def wants(self, t: float) -> bool:
        """Whether a candidate on a cadence step at time t is offered."""
        return self.rank < self.N or t < BUFFER_UNTIL and (
            len(self.Y) < self.capacity or self.enriched)

    def _summarise(self, sv) -> None:
        """Rebuild M and b from the stored rows, summing in row order from 0.0,
        and set rank and sigma_min from ``sv``, their singular values in
        descending order."""
        cols = list(zip(*self.Y)) or [()] * self.N
        self.M = [[kernels.dot(cj, ck) for ck in cols] for cj in cols]
        self.b = [kernels.dot(cj, self.Theta) for cj in cols]
        tol = 1e-8 * sv[0] if len(sv) and sv[0] > 0 else 0.0
        self.rank = int(np.sum(sv > tol))
        self.sigma_min = float(sv[-1]) if len(sv) == self.N else 0.0


def try_insert(buf: ExperienceBuffer, Y, Theta: float) -> tuple[bool, int, float]:
    """Offer a candidate point to the buffer and return (inserted, buf.rank,
    buf.sigma_min); the flag comes first, as insertion counters read
    ``result[0]``.

    An offer to a full buffer sets ``buf.enriched``, a refused one too. A
    non-finite candidate is refused. Until the buffer is full the candidate
    is appended. Once it is full, it replaces the first stored
    point whose substitution most increases the smallest singular value of
    the stacked Y matrix, and only if that increase is strict. A finite
    offer makes one SVD call, batched over the P swaps when full.
    """
    Y = [float(v) for v in Y]
    Theta = float(Theta)
    buf.enriched = buf.enriched or len(buf) == buf.capacity
    if not (all(map(math.isfinite, Y)) and math.isfinite(Theta)):
        return False, buf.rank, buf.sigma_min
    if len(buf) < buf.capacity:
        buf.Y.append(Y)
        buf.Theta.append(Theta)
        sv = np.linalg.svd(np.array(buf.Y).T, compute_uv=False)
    else:
        # the stored stack, then the stack with row i swapped for Y, each i
        i = np.arange(buf.capacity)
        stacks = np.repeat(np.array(buf.Y)[None], buf.capacity + 1, axis=0)
        stacks[i + 1, i] = Y
        sv = np.linalg.svd(stacks.transpose(0, 2, 1), compute_uv=False)
        # a nan gain is not > 0, so it is never chosen
        gain = sv[1:, -1] - sv[0, -1]
        best = int(np.argmax(np.where(gain > 0.0, gain, 0.0)))
        if not gain[best] > 0.0:
            return False, buf.rank, buf.sigma_min
        buf.Y[best] = Y
        buf.Theta[best] = Theta
        sv = sv[best + 1]
    buf._summarise(sv)
    return True, buf.rank, buf.sigma_min
