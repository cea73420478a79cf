import contextlib
import math

import numpy as np
import pytest

from helpers import gphi_t, law_pair, monomials
from iadp import checks, kernels
from iadp.controllers import IadpLaw, TadpLaw, ZsadpLaw
from iadp.critic import DEFAULT_EXPONENTS, MAX_DEGREE, BasisSet
from iadp.plant import ConfigurationError
from iadp.sim import SimConfig


def iadp_law(cfg=None):
    return IadpLaw(cfg or SimConfig(Q=np.eye(2), beta=2.0, c_bar=2.0, g_bar=[[0.0], [0.1]]))


class TestBasis:
    def test_a_basis_cannot_change_the_default_exponents(self):
        # checks.grad_phi_fd_error and helpers.gphi_t hold this basis; a
        # write through it must raise or leave later configs' basis alone
        exponents = BasisSet(DEFAULT_EXPONENTS).exponents
        default = SimConfig().basis_exponents
        with contextlib.suppress(ValueError):
            exponents[0, 0] = 9
        try:
            assert np.array_equal(SimConfig().basis_exponents, default)
        finally:
            if exponents.flags.writeable:
                exponents[...] = default

    def test_phi_frozen_point(self):
        # [x1^2, x1 x2, x2^2, x2^3, x1 x2^2, x1^2 x2] at (2, -2)
        assert np.array_equal(monomials([2.0, -2.0]),
                              [4.0, -4.0, 4.0, -8.0, 8.0, -8.0])

    def test_phi_zero_at_origin(self):
        assert np.array_equal(monomials([0.0, 0.0]), np.zeros(6))

    def test_grad_frozen_point(self):
        expect = np.array([
            [4.0, 0.0],
            [-2.0, 2.0],
            [0.0, -4.0],
            [0.0, 12.0],
            [4.0, -8.0],
            [-8.0, 4.0],
        ])
        assert np.array_equal(gphi_t([2.0, -2.0]).T, expect)

    def test_grad_matches_finite_difference(self, rng):
        error = checks.grad_phi_fd_error(rng, square=True)
        assert error < checks.grad_phi_fd_error.tol

    def test_custom_exponents(self):
        basis = BasisSet([[1, 0, 0], [0, 2, 1]])
        assert basis.N == 2 and basis.n == 3
        assert np.array_equal(monomials([2.0, 3.0, 4.0], basis.exponents), [2.0, 36.0])

    def test_degree_bound(self, monkeypatch):
        # a feature of the bound's degree compiles through SimConfig, its
        # partial 1000 * x0^999; one degree more is refused, and so is
        # degree 1e9, before any factor list or code is generated
        cfg = SimConfig(basis_exponents=[[MAX_DEGREE, 0], [1, 1]], Gamma=1e-4)
        assert cfg.basis.partials((-1.0, 2.0)) == [[-1000.0, 2.0], [0.0, -1.0]]
        monkeypatch.setattr(kernels, "monomial_partials", lambda E: pytest.fail("generated"))
        for degree in (MAX_DEGREE + 1, 10**9):
            with pytest.raises(ConfigurationError,
                               match=f"^basis degree must be <= 1000, got {degree}$"):
                BasisSet([[degree, 0], [1, 1]])

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            BasisSet(np.arange(6))


class TestPenalty:
    def test_frozen_value(self):
        # 2*2*1*atanh(0.5) + 4*log(0.75)
        expect = 4 * math.atanh(0.5) + 4 * math.log(0.75)
        assert kernels.penalty_sat(1.0, 2.0) == pytest.approx(expect, abs=1e-12)
        assert kernels.penalty_sat(1.0, 2.0) == pytest.approx(1.0464963, abs=1e-6)

    def test_even_and_monotone(self, rng):
        # W(0) = 0 as well
        assert checks.penalty_shape_defect(rng) < checks.penalty_shape_defect.tol

    def test_matches_quadrature(self, rng):
        error = checks.penalty_quadrature_error(rng)
        assert error < checks.penalty_quadrature_error.tol

    def test_gauss_legendre_reference_matches_quad(self):
        # the check's reference against an independent, adaptive integrator
        from scipy.integrate import quad
        beta, rule = 2.0, np.polynomial.legendre.leggauss(200)
        for v in np.linspace(-0.99 * beta, 0.99 * beta, 41):
            ref, _ = quad(lambda s: 2 * beta * np.arctanh(s / beta), 0.0, v,
                          epsabs=1e-13, epsrel=1e-13)
            assert checks.penalty_integral(v, beta, rule) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_domain_clamp_and_error(self):
        # arguments at the bound are clamped off it; the engine raises on
        # |u| > beta itself (tests/test_cli.py, exit code 4)
        assert math.isfinite(kernels.penalty_sat(2.0, 2.0))


class TestCost:
    """The IADP running cost x^T Q x + W(u0 + du) + c_bar^2 ||du||^2."""

    def test_frozen_value(self):
        # x^T x = 2, W(1) ~ 1.046496, c_bar^2 |du|^2 = 1
        _, got = law_pair(iadp_law(), [1.0, 1.0], 1.0, du=0.5)
        assert got == pytest.approx(2.0 + 1.0464963 + 1.0, abs=1e-6)

    def test_zero_at_rest(self):
        law = iadp_law(SimConfig(Q=np.eye(2)))
        assert law_pair(law, [0.0, 0.0], 0.0, du=0.0)[1] == 0.0

    def test_nonnegative(self, rng):
        law = iadp_law()
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            u0 = rng.uniform(-1.0, 1.0)
            du = rng.uniform(-0.9, 0.9)
            assert law_pair(law, x, u0 + du, du=du)[1] >= 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="Q must be symmetric"):
            SimConfig(Q=np.array([[1.0, 0.0], [0.5, 1.0]]))
        with pytest.raises(ConfigurationError, match="Q must be positive definite"):
            SimConfig(Q=-np.eye(2))
        with pytest.raises(ConfigurationError, match="beta must be > 1e-12"):
            SimConfig(Q=np.eye(2), beta=0.0)
        with pytest.raises(ConfigurationError, match="c_bar must be > 0"):
            SimConfig(Q=np.eye(2), c_bar=-1.0)


class TestRegressor:
    def test_incremental_form(self):
        g_bar = np.array([0.0, 0.1])
        du = 0.5
        x0dot = np.array([-2.0, -4.0])
        got, _ = law_pair(iadp_law(), [2.0, -2.0], 0.5, du=du, x0dot=x0dot)
        gphi = gphi_t([2.0, -2.0]).T
        assert np.allclose(got, gphi @ (g_bar * du + x0dot), atol=0)

    def test_baseline_form(self, rng):
        cfg = SimConfig(Q=np.eye(2))
        g, k = (0.0, 0.25), (1.0, -0.2)
        x = rng.uniform(-2, 2, 2)
        xdot = rng.uniform(-5, 5, 2)
        gphi = gphi_t(x).T
        for law in (ZsadpLaw(cfg, g, k), TadpLaw(cfg, g, k)):
            got, _ = law_pair(law, x, 0.0, xdot=xdot, aux=0.0)
            assert np.allclose(got, gphi @ xdot, atol=0)

    def test_linear_in_du(self, rng):
        law = iadp_law()
        x0dot = rng.uniform(-1, 1, 2)
        y0, y1, y2 = (law_pair(law, [1.0, 0.5], 0.0, du=du, x0dot=x0dot)[0]
                      for du in (0.0, 1.0, 2.0))
        assert np.allclose(y2 - y1, y1 - y0, atol=1e-12)
