"""The critic's monomial basis and the running-cost weights.

The critic is V(x) ~ w^T Phi(x) with Phi a fixed monomial basis; the loop
only ever needs its Jacobian, which ``kernels.monomial_grad`` evaluates with
``BasisSet.partials``. The saturation penalty W(u) is ``kernels.penalty_sat``,
and the regression pairs (Y, Theta) the critic learns from are formed by the
control laws in ``controllers``.
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


@dataclass
class BasisSet:
    """Monomial basis defined by an (N, n) integer exponent matrix.

    ``partials`` is the basis gradient compiled for this basis's exponents,
    which ``kernels.monomial_grad`` calls.
    """

    exponents: np.ndarray

    def __post_init__(self):
        self.exponents = np.asarray(self.exponents, dtype=np.int64)
        if self.exponents.ndim != 2:
            raise ConfigurationError("basis exponents must be an (N, n) matrix")
        if np.any(self.exponents < 0):
            raise ConfigurationError("basis exponents must be >= 0")
        self.partials = kernels.monomial_partials(self.exponents)

    @property
    def N(self) -> int:
        return self.exponents.shape[0]

    @property
    def n(self) -> int:
        return self.exponents.shape[1]

    @classmethod
    def default(cls) -> "BasisSet":
        return cls(DEFAULT_EXPONENTS.copy())


@dataclass
class CostConfig:
    """Running-cost weights: state matrix Q, saturation bound beta, slope c_bar."""

    Q: np.ndarray
    beta: float = 2.0
    c_bar: float = 2.0

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ConfigurationError("Q must be square")
        if not np.allclose(self.Q, self.Q.T):
            raise ConfigurationError("Q must be symmetric")
        if np.linalg.eigvalsh(self.Q)[0] <= 0.0:
            raise ConfigurationError("Q must be positive definite")
        # the control is clamped to |u| <= beta - SATURATION_MARGIN
        if not self.beta > kernels.SATURATION_MARGIN:
            raise ConfigurationError(f"beta must be > {kernels.SATURATION_MARGIN!r}")
        if not self.c_bar > 0.0:
            raise ConfigurationError("c_bar must be > 0")
