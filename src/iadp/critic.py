"""Polynomial value-function approximator, cost weights and saturation penalty.

The critic is V(x) ~ w^T Phi(x) with Phi a fixed monomial basis. The
regression pairs (Y, Theta) it learns from are formed by the control laws
in ``controllers``.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import monomial_eval, monomial_grad, penalty_sat
from .plant import ConfigurationError


class SaturationDomainError(ValueError):
    """Raised when a penalty argument exceeds the saturation bound materially."""


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
    """Monomial basis defined by an (N, n) integer exponent matrix."""

    exponents: np.ndarray

    def __post_init__(self):
        self.exponents = np.asarray(self.exponents, dtype=np.int64)
        if self.exponents.ndim != 2:
            raise ConfigurationError("basis exponents must be an (N, n) matrix")

    @property
    def N(self) -> int:
        return self.exponents.shape[0]

    @property
    def n(self) -> int:
        return self.exponents.shape[1]

    @classmethod
    def default(cls) -> "BasisSet":
        return cls(DEFAULT_EXPONENTS.copy())


def phi(basis: BasisSet, x) -> np.ndarray:
    """Feature vector Phi(x), shape (N,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise ConfigurationError(f"state has shape {x.shape}, basis expects ({basis.n},)")
    return monomial_eval(basis.exponents, x)


def grad_phi(basis: BasisSet, x) -> np.ndarray:
    """Feature Jacobian, shape (N, n); row k is the gradient of feature k."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise ConfigurationError(f"state has shape {x.shape}, basis expects ({basis.n},)")
    return monomial_grad(basis.exponents, x)


def value(w, basis: BasisSet, x) -> float:
    """Approximate value w^T Phi(x)."""
    return float(np.asarray(w, dtype=float) @ phi(basis, x))


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
        if self.beta <= 0.0:
            raise ConfigurationError("beta must be > 0")
        if self.c_bar <= 0.0:
            raise ConfigurationError("c_bar must be > 0")


def penalty_W(v, beta: float) -> float:
    """Closed-form saturation penalty 2b*v*atanh(v/b) + b^2*log(1 - v^2/b^2).

    Arguments are clamped to magnitude (1 - 1e-9)*beta before evaluation; a
    hard error fires only if the pre-clamp overshoot exceeds 1e-6.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    over = np.max(np.abs(v)) - beta
    if over > 1e-6:
        raise SaturationDomainError(f"penalty argument exceeds beta by {over:.3g}")
    return float(penalty_sat(v, beta))
