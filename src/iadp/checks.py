"""The ten properties behind the CLI ``check`` subcommand, one body each.

A body takes an rng, then what its callers vary (count, domain, noise seed,
buffer shape) with ``iadp check``'s values as the defaults, and returns its
worst defect; the property holds when that is below the body's ``tol``.
``iadp check``, acceptance criteria c01, c02 and c04 and the unit tests all
call these bodies, each with its own seed and parameters. The bodies of the
deterministic properties ignore the rng. A nan defect fails. The bodies
call the kernels through the module, as the engine does, so they test the
code it runs; the slowest runs two 2 s episodes.
"""

import math

import numpy as np

from . import kernels
from .critic import DEFAULT_EXPONENTS, BasisSet
from .learner import ExperienceBuffer, try_insert
from .plant import DisturbanceSignal, NoiseSpec, NoiseState, add_measurement_noise
from .scenarios import WORLDS, run_scenario
from .sim import SimConfig, TrajectoryLog

# the least positive float: a defect below it is exactly 0
EXACT = math.ulp(0.0)


def plant_affine_defect(rng, count=100):
    """Largest |f(x, a u1 + (1 - a) u2) - a f(x, u1) - (1 - a) f(x, u2)| of the
    nominal pendulum's dynamics (s1's plant) over count draws of x in
    [-3, 3]^2, u1, u2 in [-2, 2] and a in [0, 1), each without a disturbance
    and with a square wave d = 0.3."""
    p = WORLDS["s1"].plant.params
    dists = (DisturbanceSignal().packed(),
             DisturbanceSignal(amplitude=0.3, period=2.0, t_on=0.0, t_off=10.0).packed())
    defects = []
    for _ in range(count):
        x = rng.uniform(-3, 3, 2).tolist()
        u1, u2 = rng.uniform(-2, 2, 2).tolist()
        a = rng.uniform()
        for dist in dists:
            lhs, r1, r2 = (np.array(kernels.pendulum_rhs(*x, u, p, dist, 0.5))
                           for u in (a * u1 + (1 - a) * u2, u1, u2))
            defects.append(np.max(np.abs(lhs - (a * r1 + (1 - a) * r2))))
    return float(np.max(defects))
plant_affine_defect.tol = 1e-12


def vanishing_bound_defect(rng, count=300):
    """Largest |d| - |w1||x1| of s1's disturbance, the vanishing term
    w1 x1 sin(w2 x2) alone, over count draws of x in [-6, 6]^2; it is at most
    0 where |d| <= |w1||x1|."""
    sig = WORLDS["s1"].disturbance
    return float(np.max([abs(kernels.disturbance_value(*x, sig.packed(), 0.0)) - abs(sig.w1 * x[0])
                         for x in rng.uniform(-6, 6, (count, 2)).tolist()]))
vanishing_bound_defect.tol = 1e-15


def square_wave_mean_error(rng, amplitude=0.2):
    """|mean| of a square wave of the given amplitude over one 5 s period from
    its t_on, sampled every 1 ms."""
    dist = DisturbanceSignal(amplitude=amplitude, period=5.0, t_on=20.0, t_off=60.0).packed()
    ts = 20.0 + np.arange(0, 5.0, 1e-3)
    return abs(float(np.mean([kernels.disturbance_value(0.0, 0.0, dist, t) for t in ts])))
square_wave_mean_error.tol = 1e-12


def noise_determinism_defect(rng, snr_db=30.0, seed=7):
    """Largest difference between two noisy measurements of one state, drawn
    from [-3, 3]^2, by two generators of one seed."""
    spec = NoiseSpec(kind="gaussian", snr_db=snr_db, t_on=0.0, t_off=1.0)
    x = rng.uniform(-3, 3, 2)

    def measured():
        state = NoiseState(np.random.default_rng(seed))
        state.update(x)
        return add_measurement_noise(x, spec, 0.5, state)
    return float(np.max(np.abs(np.subtract(measured(), measured()))))
noise_determinism_defect.tol = EXACT


def gbar_pinv_error(rng):
    """|g_bar^+ . g_bar - 1| of the default g_bar as SimConfig resolves it."""
    cfg = SimConfig()
    return abs(kernels.dot(cfg.g_bar_pinv, cfg.g_bar_col) - 1.0)
gbar_pinv_error.tol = 1e-14


def grad_phi_fd_error(rng, count=200, square=False):
    """Largest error of the basis gradient against central differences
    (h = 1e-6), relative to max(|entry|, 1), over count draws of x in
    [-3, 3]^2 pulled into the radius-3 disc unless ``square``. Below tol it
    is also below 1e-5 + 1e-6 |entry|."""
    basis = BasisSet(DEFAULT_EXPONENTS)
    h = 1e-6
    errors = []
    for _ in range(count):
        x = rng.uniform(-3, 3, 2)
        if not square:
            x *= min(1.0, 3.0 / max(np.linalg.norm(x), 1e-12))
        g = np.array(kernels.monomial_grad(basis.partials, x)).T
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (np.prod((x + e) ** basis.exponents, axis=1)
                  - np.prod((x - e) ** basis.exponents, axis=1)) / (2 * h)
            errors.append(np.max(np.abs(fd - g[:, j]) / np.maximum(np.abs(g[:, j]), 1.0)))
    return float(np.max(errors))
grad_phi_fd_error.tol = 1e-6


def penalty_integral(v, beta, rule):
    """The integral of 2 beta atanh(s / beta) from 0 to v by a Gauss-Legendre
    ``rule``, the (nodes, weights) of ``np.polynomial.legendre.leggauss``."""
    nodes, weights = rule
    return 0.5 * v * float(weights @ (2 * beta * np.arctanh(0.5 * v * (nodes + 1.0) / beta)))


def penalty_quadrature_error(rng, count=100):
    """Largest relative error of W(v) against the integral of 2 beta
    atanh(s / beta) from 0 to v by a 200-node Gauss-Legendre rule, over count
    draws of v in +-0.99 beta, beta = 2. |W| <= 5.3 there, so below tol the
    absolute error is also below 1e-9. The rule must also lie within tol of
    a 400-node rule, relative to its own size; a draw that breaks this gives
    that gap instead."""
    beta = 2.0
    rule, finer = (np.polynomial.legendre.leggauss(k) for k in (200, 400))
    errors = []
    for _ in range(count):
        v = rng.uniform(-0.99 * beta, 0.99 * beta)
        ref = penalty_integral(v, beta, rule)
        err, gap = (abs(w - ref) / max(abs(ref), 1e-300)
                    for w in (kernels.penalty_sat(v, beta), penalty_integral(v, beta, finer)))
        errors.append(err if gap < penalty_quadrature_error.tol else gap)
    return float(np.max(errors))
penalty_quadrature_error.tol = 1e-10


def penalty_shape_defect(rng, magnitudes=np.linspace(0.05, 1.95, 40)):
    """W(0) = 0, W(-v) = W(v), and W rising strictly from 0 through the
    increasing magnitudes, beta = 2: the largest of |W(0)|, |W(v) - W(-v)|
    and each rise's shortfall below one float step."""
    w = [kernels.penalty_sat(v, 2.0) for v in (0.0, *magnitudes)]
    even = [abs(kernels.penalty_sat(-v, 2.0) - wv) for v, wv in zip(magnitudes, w[1:])]
    rise = [np.nextafter(lo, math.inf) - hi for lo, hi in zip(w, w[1:])]
    return float(np.max([abs(w[0]), *even, *rise]))
penalty_shape_defect.tol = EXACT


def update_gradient_error(rng, count=20, N=6, P=8):
    """Largest error of the update law's wdot against -Gamma grad of the summed
    half-squared residuals (central differences, h = 1e-6), relative to the
    largest |element| of the latter (floored at 1e-9), at the benchmark
    gains over count draws of P buffered pairs (Y, theta) of size N, w and
    the current pair. Each element must also lie within tol of its own
    size, plus 1e-12; a draw that breaks this gives that error instead."""
    cfg = SimConfig()
    Gamma = cfg.Gamma[0, 0] * np.eye(N)
    tol = update_gradient_error.tol
    errors = []
    for _ in range(count):
        buf = ExperienceBuffer(P, N)
        for _ in range(P):
            try_insert(buf, rng.uniform(-5, 5, N), rng.uniform(-1, 5))
        w = rng.uniform(-3, 3, N)
        Y, theta = rng.uniform(-5, 5, N), rng.uniform(-1, 5)
        wdot = np.array(kernels.weight_derivative_kernel(
            w, Y, theta + w @ Y, buf.M, buf.b, Gamma, cfg.k_c, cfg.k_e))

        def energy(wv):
            e = 0.5 * cfg.k_c * (theta + wv @ Y) ** 2
            for l in range(len(buf)):
                e += 0.5 * cfg.k_e * (buf.Theta[l] + wv @ buf.Y[l]) ** 2
            return e

        h = 1e-6
        grad = np.array([(energy(w + h * e) - energy(w - h * e)) / (2 * h)
                         for e in np.eye(N)])
        expect = -Gamma @ grad
        err = np.abs(wdot - expect)
        rel = np.max(err) / max(np.max(np.abs(expect)), 1e-9)
        elementwise = np.max(err / (1e-12 / tol + np.abs(expect)))
        errors.append(rel if elementwise < tol else elementwise)
    return float(np.max(errors))
update_gradient_error.tol = 1e-6


def short_run_defect(rng, seed=1):
    """Two 2 s s1 iadp episodes of one seed: the largest of any difference
    between their logs (determinism), any fall of E_u or E_x (monotone
    metrics) and max |u| - (beta - margin) (saturation)."""
    cfg = SimConfig(scenario="s1", controller="iadp", t_end=2.0, seed=seed)
    a, b = run_scenario(cfg), run_scenario(cfg)
    return float(np.max([
        *(np.max(np.abs(getattr(a, k) - getattr(b, k))) for k in TrajectoryLog.ARRAYS),
        *(np.max(e[:-1] - e[1:]) for e in (a.E_u, a.E_x)),
        np.max(np.abs(a.u)) - (cfg.beta - kernels.SATURATION_MARGIN)]))
short_run_defect.tol = EXACT


# (name, body, what its defect measures), in ``iadp check``'s order
ALL_CHECKS = [
    ("plant_affine_in_u", plant_affine_defect, "max affine defect"),
    ("vanishing_disturbance_bound", vanishing_bound_defect, "max |d1| - |w1||x1|"),
    ("square_wave_zero_mean", square_wave_mean_error, "|mean over one period|"),
    ("noise_determinism", noise_determinism_defect, "same-seed draw difference"),
    ("gbar_left_inverse", gbar_pinv_error, "|g_bar^+ g_bar - 1|"),
    ("grad_phi_finite_difference", grad_phi_fd_error, "max grad rel err"),
    ("penalty_vs_quadrature", penalty_quadrature_error, "max penalty rel err"),
    ("penalty_shape", penalty_shape_defect, "max zero, evenness or rise defect"),
    ("update_law_gradient_identity", update_gradient_error, "max gradient-identity rel err"),
    ("short_run_invariants", short_run_defect, "max determinism, monotone or saturation defect"),
]


def run_all(seed: int = 0):
    rng = np.random.default_rng(seed)
    results = []
    for name, body, what in ALL_CHECKS:
        try:
            worst = body(rng)
            ok, detail = worst < body.tol, f"{what} = {worst:.2e}"
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
