"""Fast property suites behind the CLI ``check`` subcommand.

Each check returns (name, passed, detail). These are deliberately cheap
(seconds, short horizons); the full acceptance suite lives in the test
tree and also covers the long scenario runs. The checks call the kernels
through the module, as the engine does, so they test the code it runs.

The three analytic oracles (``*_error``) take (rng, count) and return the
worst error, which passes below the body's ``tol``. ``check`` and acceptance
criteria c01, c02 and c04 share these bodies, each with its own seed and count.
"""

import numpy as np
from scipy.integrate import quad

from . import kernels
from .critic import BasisSet
from .learner import ExperienceBuffer, try_insert
from .plant import DisturbanceSignal, NoiseSpec, NoiseState, add_measurement_noise, \
    pendulum_nominal
from .scenarios import run_scenario
from .sim import SimConfig


def check_plant_affine(rng):
    p, dist = pendulum_nominal().params, DisturbanceSignal().packed()
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-3, 3, 2).tolist()
        u1, u2 = rng.uniform(-2, 2, 2).tolist()
        a = rng.uniform(0, 1)
        lhs, r1, r2 = (np.array(kernels.pendulum_rhs(*x, u, p, dist, 0.0))
                       for u in (a * u1 + (1 - a) * u2, u1, u2))
        worst = max(worst, float(np.max(np.abs(lhs - (a * r1 + (1 - a) * r2)))))
    return worst < 1e-12, f"max affine defect {worst:.2e}"


def check_vanishing_bound(rng):
    sig = DisturbanceSignal(w1=-0.3906, w2=1.0051)
    for _ in range(200):
        x = rng.uniform(-5, 5, 2)
        d = kernels.disturbance_value(*x, sig.packed(), 0.0)
        if abs(d) > abs(sig.w1) * abs(x[0]) + 1e-15:
            return False, f"bound violated at x={x}"
    return True, "|d1| <= |w1||x1| on 200 samples"


def check_square_wave_mean():
    dist = DisturbanceSignal(amplitude=0.2, period=5.0, t_on=20.0, t_off=60.0).packed()
    ts = 20.0 + np.arange(0, 5.0, 1e-3)
    mean = np.mean([kernels.disturbance_value(0.0, 0.0, dist, t) for t in ts])
    return abs(mean) < 1e-12, f"|mean over one period| = {abs(mean):.2e}"


def check_noise_determinism():
    spec = NoiseSpec(kind="gaussian", snr_db=30.0, t_on=0.0, t_off=1.0)
    x = np.array([1.0, -1.0])
    state = NoiseState(2)
    state.update(x)
    a = [add_measurement_noise(x, spec, 0.5, np.random.default_rng(7), state)
         for _ in range(2)]
    return bool(np.array_equal(a[0], a[1])), "same seed, same noise draw"


def check_gbar_pinv():
    cfg = SimConfig(g_bar=[[0.0], [0.1]])
    err = abs(kernels.dot(cfg.g_bar_pinv, cfg.g_bar_col) - 1.0)
    return err < 1e-12, f"|g_bar^+ g_bar - I| = {err:.2e}"


def grad_phi_fd_error(rng, count):
    basis = BasisSet.default()
    h = 1e-6
    worst = 0.0
    for _ in range(count):
        x = rng.uniform(-3, 3, 2)
        x *= min(1.0, 3.0 / max(np.linalg.norm(x), 1e-12))  # into the radius-3 disc
        g = np.array(kernels.monomial_grad(basis.partials, x)).T
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (np.prod((x + e) ** basis.exponents, axis=1)
                  - np.prod((x - e) ** basis.exponents, axis=1)) / (2 * h)
            denom = np.maximum(np.abs(g[:, j]), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - g[:, j]) / denom)))
    return worst
grad_phi_fd_error.tol = 1e-6


def penalty_quadrature_error(rng, count):
    beta = 2.0
    worst = 0.0
    for _ in range(count):
        v = rng.uniform(-0.99 * beta, 0.99 * beta)
        ref, _ = quad(lambda s: 2 * beta * np.arctanh(s / beta), 0.0, v,
                      epsabs=1e-13, epsrel=1e-13)
        worst = max(worst, abs(kernels.penalty_sat(v, beta) - ref) / max(abs(ref), 1e-300))
    return worst
penalty_quadrature_error.tol = 1e-8


def check_penalty_shape(rng):
    beta = 2.0
    if kernels.penalty_sat(0.0, beta) != 0.0:
        return False, "penalty nonzero at 0"
    prev = 0.0
    for v in np.linspace(0.05, 1.9, 40):
        p = kernels.penalty_sat(v, beta)
        if p <= prev or abs(p - kernels.penalty_sat(-v, beta)) > 1e-12:
            return False, f"monotonicity/evenness broken at v={v}"
        prev = p
    return True, "nonnegative, even, increasing in |v|"


def update_gradient_error(rng, count):
    cfg = SimConfig()  # the benchmark gains
    worst = 0.0
    for _ in range(count):
        buf = ExperienceBuffer(8, 6)
        for _ in range(8):
            try_insert(buf, rng.uniform(-5, 5, 6), rng.uniform(-1, 5))
        w = rng.uniform(-3, 3, 6)
        Y, theta = rng.uniform(-5, 5, 6), rng.uniform(-1, 5)
        wdot = np.array(kernels.weight_derivative_kernel(
            w, Y, theta + w @ Y, buf.M, buf.b, cfg.Gamma, cfg.k_c, cfg.k_e))

        def energy(wv):
            e = 0.5 * cfg.k_c * (theta + wv @ Y) ** 2
            for l in range(len(buf)):
                e += 0.5 * cfg.k_e * (buf.Theta[l] + wv @ buf.Y[l]) ** 2
            return e

        h = 1e-6
        grad = np.array([(energy(w + h * e) - energy(w - h * e)) / (2 * h)
                         for e in np.eye(6)])
        expect = -cfg.Gamma @ grad
        worst = max(worst, float(np.max(np.abs(wdot - expect))
                                 / max(np.max(np.abs(expect)), 1e-9)))
    return worst
update_gradient_error.tol = 1e-6


def _oracle(error, count, what):
    def check(rng):
        worst = error(rng, count)
        return worst < error.tol, f"max {what} rel err {worst:.2e}"
    return check


def check_short_run_invariants():
    cfg = SimConfig(scenario="s1", controller="iadp", t_end=2.0, seed=1)
    log1 = run_scenario(cfg)
    log2 = run_scenario(cfg)
    if not np.array_equal(log1.x_true, log2.x_true):
        return False, "determinism broken"
    if np.any(np.diff(log1.E_u) < 0) or np.any(np.diff(log1.E_x) < 0):
        return False, "metrics not monotone"
    if np.max(np.abs(log1.u)) > cfg.beta - kernels.SATURATION_MARGIN:
        return False, "saturation bound violated"
    return True, "determinism, metric monotonicity, saturation on 2 s run"


ALL_CHECKS = [
    ("plant_affine_in_u", check_plant_affine),
    ("vanishing_disturbance_bound", check_vanishing_bound),
    ("square_wave_zero_mean", lambda rng: check_square_wave_mean()),
    ("noise_determinism", lambda rng: check_noise_determinism()),
    ("gbar_left_inverse", lambda rng: check_gbar_pinv()),
    ("grad_phi_finite_difference", _oracle(grad_phi_fd_error, 200, "grad")),
    ("penalty_vs_quadrature", _oracle(penalty_quadrature_error, 100, "penalty")),
    ("penalty_shape", check_penalty_shape),
    ("update_law_gradient_identity", _oracle(update_gradient_error, 20, "gradient-identity")),
    ("short_run_invariants", lambda rng: check_short_run_invariants()),
]


def run_all(seed: int = 0):
    rng = np.random.default_rng(seed)
    results = []
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
