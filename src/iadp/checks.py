"""Fast property suites behind the CLI ``check`` subcommand.

Each check returns (name, passed, detail). These are deliberately cheap
(seconds, short horizons); the full acceptance suite lives in the test
tree and also covers the long scenario runs.
"""

import numpy as np
from scipy.integrate import quad

from .critic import BasisSet, CostConfig, grad_phi, penalty_W, phi
from .learner import (ExperienceBuffer, LearnerGains, RegressionPair, residual,
                      try_insert, weight_derivative)
from .plant import DisturbanceSignal, NoiseSpec, add_measurement_noise, \
    disturbance_value, eval_dynamics, pendulum_nominal
from .scenarios import run_scenario
from .sim import SimConfig
from .tde import IncrementalModelConfig


def check_plant_affine(rng):
    plant = pendulum_nominal()
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-3, 3, 2)
        u1, u2 = rng.uniform(-2, 2, (2, 1))
        a = rng.uniform(0, 1)
        lhs = eval_dynamics(plant, x, a * u1 + (1 - a) * u2, [0.0])
        rhs = a * eval_dynamics(plant, x, u1, [0.0]) + (1 - a) * eval_dynamics(plant, x, u2, [0.0])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst < 1e-12, f"max affine defect {worst:.2e}"


def check_vanishing_bound(rng):
    sig = DisturbanceSignal(kind="vanishing", w1=-0.3906, w2=1.0051)
    for _ in range(200):
        x = rng.uniform(-5, 5, 2)
        d = disturbance_value(sig, x, 0.0)
        if abs(d[0]) > abs(sig.w1) * abs(x[0]) + 1e-15:
            return False, f"bound violated at x={x}"
    return True, "|d1| <= |w1||x1| on 200 samples"


def check_square_wave_mean():
    sig = DisturbanceSignal(kind="square_wave", amplitude=0.2, period=5.0,
                            t_on=20.0, t_off=60.0)
    ts = 20.0 + np.arange(0, 5.0, 1e-3)
    mean = np.mean([disturbance_value(sig, np.zeros(2), t)[0] for t in ts])
    return abs(mean) < 1e-12, f"|mean over one period| = {abs(mean):.2e}"


def check_noise_determinism():
    spec = NoiseSpec(kind="gaussian", snr_db=30.0, t_on=0.0, t_off=1.0)
    x = np.array([1.0, -1.0])
    a = [add_measurement_noise(x, spec, 0.5, np.random.default_rng(7)) for _ in range(2)]
    return bool(np.array_equal(a[0], a[1])), "same seed, same noise draw"


def check_gbar_pinv():
    imc = IncrementalModelConfig([[0.0], [0.1]])
    err = np.max(np.abs(np.array(imc.g_bar_pinv) @ np.array(imc.g_bar) - np.eye(1)))
    return err < 1e-12, f"|g_bar^+ g_bar - I| = {err:.2e}"


def check_grad_phi_fd(rng):
    basis = BasisSet.default()
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-3, 3, 2)
        g = grad_phi(basis, x)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (phi(basis, x + e) - phi(basis, x - e)) / (2 * h)
            denom = np.maximum(np.abs(g[:, j]), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - g[:, j]) / denom)))
    return worst < 1e-6, f"max grad rel err {worst:.2e}"


def check_penalty_quadrature(rng):
    beta = 2.0
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(-0.99 * beta, 0.99 * beta)
        ref, _ = quad(lambda s: 2 * beta * np.arctanh(s / beta), 0.0, v,
                      epsabs=1e-12, epsrel=1e-12)
        got = penalty_W([v], beta)
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    return worst < 1e-8, f"max penalty rel err {worst:.2e}"


def check_penalty_shape(rng):
    beta = 2.0
    if penalty_W([0.0], beta) != 0.0:
        return False, "penalty nonzero at 0"
    prev = 0.0
    for v in np.linspace(0.05, 1.9, 40):
        p = penalty_W([v], beta)
        if p <= prev or abs(p - penalty_W([-v], beta)) > 1e-12:
            return False, f"monotonicity/evenness broken at v={v}"
        prev = p
    return True, "nonnegative, even, increasing in |v|"


def check_lip_identity(rng):
    for _ in range(50):
        w = rng.uniform(-5, 5, 6)
        Y = rng.uniform(-10, 10, 6)
        pair = RegressionPair(Y=Y, Theta=float(-w @ Y))
        if abs(residual(w, pair)) > 1e-9:
            return False, "synthetic residual nonzero"
    return True, "residual(w, Y, -w.Y) == 0"


def check_update_gradient(rng):
    gains = LearnerGains(1e-4 * np.eye(6))
    worst = 0.0
    for _ in range(20):
        buf = ExperienceBuffer(8, 6)
        for _ in range(8):
            try_insert(buf, rng.uniform(-5, 5, 6), rng.uniform(-1, 5))
        w = rng.uniform(-3, 3, 6)
        pair = RegressionPair(rng.uniform(-5, 5, 6), rng.uniform(-1, 5))
        wdot = weight_derivative(w, pair, buf, gains)

        def energy(wv):
            e = 0.5 * gains.k_c * residual(wv, pair) ** 2
            for l in range(len(buf)):
                e += 0.5 * gains.k_e * (buf.Theta[l] + wv @ buf.Y[l]) ** 2
            return e

        h = 1e-6
        grad = np.zeros(6)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            grad[j] = (energy(w + e) - energy(w - e)) / (2 * h)
        expect = -gains.Gamma @ grad
        worst = max(worst, float(np.max(np.abs(wdot - expect))
                                 / max(np.max(np.abs(expect)), 1e-9)))
    return worst < 1e-6, f"max gradient-identity rel err {worst:.2e}"


def check_short_run_invariants():
    cfg = SimConfig(scenario="s1", controller="iadp", t_end=2.0, seed=1)
    log1 = run_scenario(cfg)
    log2 = run_scenario(cfg)
    if not np.array_equal(log1.x_true, log2.x_true):
        return False, "determinism broken"
    if np.any(np.diff(log1.E_u) < 0) or np.any(np.diff(log1.E_x) < 0):
        return False, "metrics not monotone"
    if np.max(np.abs(log1.u)) > cfg.beta - 1e-12:
        return False, "saturation bound violated"
    return True, "determinism, metric monotonicity, saturation on 2 s run"


ALL_CHECKS = [
    ("plant_affine_in_u", check_plant_affine),
    ("vanishing_disturbance_bound", check_vanishing_bound),
    ("square_wave_zero_mean", lambda rng: check_square_wave_mean()),
    ("noise_determinism", lambda rng: check_noise_determinism()),
    ("gbar_left_inverse", lambda rng: check_gbar_pinv()),
    ("grad_phi_finite_difference", check_grad_phi_fd),
    ("penalty_vs_quadrature", check_penalty_quadrature),
    ("penalty_shape", check_penalty_shape),
    ("lip_consistency", check_lip_identity),
    ("update_law_gradient_identity", check_update_gradient),
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
