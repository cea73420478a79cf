"""The critic's monomial basis.

The critic is V(x) ~ w^T Phi(x) with Phi a fixed monomial basis; the loop
only ever needs its Jacobian, which ``kernels.monomial_grad`` evaluates with
``BasisSet.partials``, each partial compiled as one product. A basis may
have any number n of variables; ``SimConfig`` asks for the plant's 2. The
saturation penalty W(u) is ``kernels.penalty_sat``, and the regression
pairs (Y, Theta) the critic learns from are formed by the control laws in
``controllers``. The running-cost weights Q, beta and c_bar are
``SimConfig`` fields and checked there.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .plant import ConfigurationError

# default six-monomial basis for the 2-state pendulum:
# [x1^2, x1 x2, x2^2, x2^3, x1 x2^2, x1^2 x2]
DEFAULT_EXPONENTS = np.array([
    [2, 0],
    [1, 1],
    [0, 2],
    [0, 3],
    [1, 2],
    [2, 1],
], dtype=np.int64)
DEFAULT_EXPONENTS.setflags(write=False)  # a BasisSet holds it uncopied
# the highest total degree of a feature: a partial's product nests one
# multiplication per degree, and CPython 3.11 fails to compile one nested
# about 3,000 deep (how deep depends on the caller's stack)
MAX_DEGREE = 1000


@dataclass
class BasisSet:
    """Monomial basis defined by an (N, n) integer exponent matrix whose
    features have total degree at most MAX_DEGREE.

    ``partials`` is the basis gradient compiled for this basis's exponents,
    which ``kernels.monomial_grad`` calls.
    """

    exponents: np.ndarray

    def __post_init__(self):
        self.exponents = np.asarray(self.exponents, dtype=np.int64)
        if self.exponents.ndim != 2 or not self.exponents.size:
            raise ConfigurationError("basis exponents must be an (N, n) matrix")
        if np.any(self.exponents < 0):
            raise ConfigurationError("basis exponents must be >= 0")
        if (degree := max(map(sum, self.exponents.tolist()))) > MAX_DEGREE:
            raise ConfigurationError(f"basis degree must be <= {MAX_DEGREE}, got {degree}")
        self.partials = kernels.monomial_partials(self.exponents)

    @property
    def N(self) -> int:
        return self.exponents.shape[0]

    @property
    def n(self) -> int:
        return self.exponents.shape[1]

