"""Acceptance suite: one test and one printed PASS/FAIL line per criterion,
plus a test that the oracle criteria fail when a kernel they check is broken.

The long closed-loop episodes are shared through helpers.cached_run, so the
whole module costs a handful of full 80 s runs rather than one per test.
"""

import hashlib

import numpy as np
import pytest

from helpers import cached_run
from iadp import checks, kernels
from iadp.cli import main
from iadp.plant import DisturbanceSignal
from iadp.scenarios import WORLDS

CONTROLLERS = ("iadp", "zsadp", "tadp")
SCENARIOS = ("s1", "s2", "s3")


_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")


def report(idx, name, ok, detail):
    line = f"criterion {idx:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _capman is not None:
        # bypass pytest's fd-level capture so the line reaches the terminal
        with _capman.global_and_fixture_disabled():
            print("\n" + line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_c01_basis_gradient_oracle():
    err = checks.grad_phi_fd_error(np.random.default_rng(1), 200)
    report(1, "basis-gradient-oracle", err < checks.grad_phi_fd_error.tol,
           f"max rel err {err:.2e}")


def test_c02_penalty_quadrature_oracle():
    err = checks.penalty_quadrature_error(np.random.default_rng(2), 100)
    report(2, "penalty-quadrature-oracle", err < checks.penalty_quadrature_error.tol,
           f"max rel err {err:.2e}")


def test_c03_weight_convergence_oracle():
    # planted weights, exact linear-in-parameters stream, benchmark gains
    rng = np.random.default_rng(42)
    w_star = rng.uniform(-1, 1, 6)
    w_star *= 5.0 / np.linalg.norm(w_star)
    mag = 60.0  # regressors at closed-loop trajectory magnitude
    Yb = rng.uniform(-mag, mag, (8, 6))
    while np.linalg.matrix_rank(Yb) < 6:
        Yb = rng.uniform(-mag, mag, (8, 6))
    Theta_b = -Yb @ w_star
    Gamma = 1e-4 * np.eye(6)
    w = np.zeros(6)
    dt = 1e-3
    V = np.empty(10001)
    V[0] = float((w - w_star) @ (w - w_star))
    M, b = Yb.T @ Yb, Yb.T @ Theta_b
    for i in range(10000):
        Yc = rng.uniform(-mag, mag, 6)
        wdot = np.array(kernels.weight_derivative_kernel(
            w, Yc, -float(w_star @ Yc) + float(w @ Yc), M, b, Gamma, 5.0, 3.0))
        w = w + dt * wdot
        V[i + 1] = float((w - w_star) @ (w - w_star))
    err = float(np.linalg.norm(w - w_star))
    strictly = bool(np.all(np.diff(V) < 0.0))
    report(3, "weight-convergence-oracle", err < 1e-3 and strictly,
           f"final err {err:.2e} after 10 s, V strictly decreasing: {strictly}")


def test_c04_update_law_gradient_identity():
    err = checks.update_gradient_error(np.random.default_rng(4), 50)
    report(4, "update-law-gradient-identity", err < checks.update_gradient_error.tol,
           f"max rel err {err:.2e} over 50 configs")


def test_c05_saturation_bound_all_runs():
    worst = 0.0
    for sc in SCENARIOS:
        for ctrl in CONTROLLERS:
            log = cached_run(scenario=sc, controller=ctrl)
            worst = max(worst, float(np.max(np.abs(log.u))))
    report(5, "saturation-bound", worst <= 2.0 - 1e-12,
           f"max |u| over 9 full runs = {worst:.15f}")


def test_c06_s1_stabilization():
    log = cached_run()
    quarter = log.rows() // 4
    sup_x = float(np.max(np.linalg.norm(log.x_true[-quarter:], axis=1)))
    i40 = int(round(40.0 / 1e-3))
    w_drift = float(np.linalg.norm(log.w[-1] - log.w[i40]))
    ok = sup_x <= 0.1 and w_drift <= 1e-3 and log.wall_time < 10.0
    report(6, "s1-stabilization", ok,
           f"final-quarter sup||x|| {sup_x:.4g}, weight drift {w_drift:.2e}, "
           f"wall {log.wall_time:.2f} s")


def test_c07_s1_energy_ordering():
    eu = {c: float(cached_run(controller=c).E_u[-1]) for c in CONTROLLERS}
    ok = eu["iadp"] < eu["zsadp"] and eu["iadp"] < eu["tadp"]
    report(7, "s1-energy-ordering", ok,
           f"E_u iadp {eu['iadp']:.4g}, ratios zsadp/iadp "
           f"{eu['zsadp'] / eu['iadp']:.3g}, tadp/iadp {eu['tadp'] / eu['iadp']:.3g}")


def test_c08_s2_robustness():
    logs = {c: cached_run(scenario="s2", controller=c) for c in CONTROLLERS}
    none_diverged = not any(l.diverged for l in logs.values())
    ex = {c: float(l.E_x[-1]) for c, l in logs.items()}
    ok = none_diverged and ex["iadp"] <= ex["zsadp"] and ex["iadp"] <= ex["tadp"]
    report(8, "s2-robustness", ok,
           f"diverged: {[c for c, l in logs.items() if l.diverged] or 'none'}, "
           f"E_x iadp {ex['iadp']:.6g} vs zsadp {ex['zsadp']:.6g}, "
           f"tadp {ex['tadp']:.6g}")


def test_c09_s3_stress():
    logs = {c: cached_run(scenario="s3", controller=c) for c in CONTROLLERS}
    ia = logs["iadp"]
    window = (ia.t >= 20.0) & (ia.t <= 60.0)
    sup_x = float(np.max(np.linalg.norm(ia.x_true[window], axis=1)))
    base_div = all(logs[c].diverged and logs[c].t[-1] < 60.0
                   for c in ("zsadp", "tadp"))
    ok = (not ia.diverged) and sup_x <= 5.0 and base_div
    div_at = {c: (float(logs[c].t[-1]) if logs[c].diverged else None)
              for c in ("zsadp", "tadp")}
    report(9, "s3-stress", ok,
           f"iadp sup||x|| on [20,60] = {sup_x:.3g}, baselines diverge at {div_at}")


def test_c10_tde_first_order_scaling():
    coarse = cached_run()
    fine = cached_run(dt=5e-4)
    ratio = float(np.max(np.abs(fine.xi)) / np.max(np.abs(coarse.xi)))
    report(10, "tde-first-order-scaling", 0.3 <= ratio <= 0.7,
           f"max||xi|| ratio (dt/2 over dt) = {ratio:.3f}")


def test_c11_integrator_order():
    p = WORLDS["s1"].plant.params
    dist = DisturbanceSignal().packed()
    x0 = (2.0, -2.0)

    def integrate(dt, t_end=0.5):
        x = x0
        for k in range(int(round(t_end / dt))):
            x = kernels.pendulum_rk4(x, 0.0, p, dist, k * dt, dt)
        return np.array(x)

    ref = integrate(1e-5)
    e_coarse = float(np.linalg.norm(integrate(2e-2) - ref))
    e_fine = float(np.linalg.norm(integrate(1e-2) - ref))
    ratio = e_coarse / e_fine
    report(11, "integrator-order", 16.0 * 0.7 <= ratio <= 16.0 * 1.3,
           f"error ratio under dt halving = {ratio:.2f} (target 16 +-30%)")


def test_c12_determinism_byte_identical(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = main(["run", "--scenario", "s2", "--t-end", "24", "--seed", "0",
                   "--out-dir", str(out)])
        assert rc == 0
        data = (out / "s2_iadp_seed0.csv").read_bytes()
        digests.append(hashlib.sha256(data).hexdigest())
    report(12, "determinism-byte-identical", digests[0] == digests[1],
           f"sha256 {digests[0][:16]}.. == {digests[1][:16]}..")


@pytest.mark.parametrize("criterion, kernel", [
    (test_c01_basis_gradient_oracle, "monomial_grad"),
    (test_c02_penalty_quadrature_oracle, "penalty_sat"),
    (test_c04_update_law_gradient_identity, "weight_derivative_kernel"),
])
def test_oracle_criterion_fails_on_a_broken_kernel(monkeypatch, criterion, kernel):
    # the shared bodies reach the engine's kernels at the criterion's seed and count
    real = getattr(kernels, kernel)
    monkeypatch.setattr(kernels, kernel, lambda *args: np.multiply(real(*args), 1.01).tolist())
    verdicts = []
    monkeypatch.setitem(globals(), "report", lambda *args: verdicts.append(args[2]))
    criterion()
    assert verdicts == [False]
