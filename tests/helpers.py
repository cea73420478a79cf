"""Shared test helpers: the cached scenario episodes, and the basis and
law-pair forms the unit tests compare against. A plain module, not the
conftest, so that test directories with a conftest of their own can run in
the same pytest session."""

import functools

import numpy as np

from iadp import kernels
from iadp.critic import DEFAULT_EXPONENTS, BasisSet
from iadp.scenarios import run_scenario
from iadp.sim import SimConfig


def cached_run(scenario="s1", controller="iadp", dt=1e-3, t_end=80.0, seed=0,
               xdot_source="backward_difference"):
    """Full scenario episodes are expensive; share them across tests.

    The cache keys on every argument, defaults filled in and passed by
    position, so ``cached_run()`` and ``cached_run(scenario="s1")`` share one
    episode.
    """
    return _run_cached(scenario, controller, dt, t_end, seed, xdot_source)


@functools.lru_cache(maxsize=None)
def _run_cached(scenario, controller, dt, t_end, seed, xdot_source):
    cfg = SimConfig(scenario=scenario, controller=controller, dt=dt,
                    t_end=t_end, seed=seed, xdot_source=xdot_source)
    return run_scenario(cfg)


def monomials(x, exponents=DEFAULT_EXPONENTS):
    """The monomial features prod_i x_i**e_i of each exponent row, in numpy."""
    return np.prod(np.asarray(x, dtype=float) ** exponents, axis=1)


def gphi_t(x, basis=BasisSet.default()):
    """grad_phi^T at x as the engine forms it (``kernels.monomial_grad``), as
    an (n, N) array."""
    return np.array(kernels.monomial_grad(basis.partials, x))


def law_pair(law, x, u, du=0.0, x0dot=(0.0, 0.0), xdot=(0.0, 0.0), aux=None):
    """law.pair at state x, input u and xdot, with input increment du and the
    delayed sample's xdot x0dot; returns (Y as an array, Theta)."""
    x, x0dot, xdot = (np.asarray(v, dtype=float) for v in (x, x0dot, xdot))
    Y, theta = law.pair(x, float(u), xdot, float(du), x0dot, gphi_t(x), aux)
    return np.asarray(Y), theta
