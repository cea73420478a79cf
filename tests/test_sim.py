import collections
import math
import sys
from dataclasses import FrozenInstanceError, dataclass, replace

from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from helpers import cached_run, law_pair
from iadp import checks, kernels, sim
from iadp.controllers import IadpLaw
from iadp.plant import (ConfigurationError, ControlAffinePlant, DisturbanceSignal,
                        NoiseSpec, NoiseState, World)
from iadp.scenarios import WORLDS, build_world, run_scenario
from iadp.sim import (CONTROLLERS, DIVERGENCE_NORM, XDOT_SOURCES, SimConfig, TrajectoryLog,
                      run_episode)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workload import fingerprint  # noqa: E402


@dataclass
class Metrics:
    E_u: np.ndarray
    E_x: np.ndarray


def accumulate_metrics(log: TrajectoryLog) -> Metrics:
    """Trapezoidal running integrals of ||u||^2 and ||x||^2 over the log: the
    oracle for the engine's in-loop E_u and E_x."""
    dt = np.diff(log.t)
    u_sq = log.u * log.u
    x_sq = np.sum(log.x_true * log.x_true, axis=1)
    E_u = np.concatenate([[0.0], np.cumsum(0.5 * dt * (u_sq[:-1] + u_sq[1:]))])
    E_x = np.concatenate([[0.0], np.cumsum(0.5 * dt * (x_sq[:-1] + x_sq[1:]))])
    return Metrics(E_u=E_u, E_x=E_x)


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.dt == 1e-3 and cfg.t_end == 80.0
        assert cfg.k_c == 5.0 and cfg.k_e == 3.0 and cfg.buffer_size == 8
        assert np.allclose(cfg.Gamma, 1e-4 * np.eye(6))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=0.0)
        with pytest.raises(ConfigurationError):
            SimConfig(dt=0.3, t_end=1.0)
        with pytest.raises(ConfigurationError):
            SimConfig(controller="lqr")
        with pytest.raises(ConfigurationError):
            SimConfig(xdot_source="spline")
        with pytest.raises(ConfigurationError):
            SimConfig(seed=-1)
        with pytest.raises(ConfigurationError):
            SimConfig(scenario="s9")

    @pytest.mark.parametrize("bad", [
        dict(seed=1.5), dict(buffer_size=2.5), dict(beta=math.inf), dict(k_c=math.inf),
        dict(basis_exponents=[[2.5, 0], [1, 1], [0, 2], [0, 3], [1, 2], [2, 1]]),
        dict(x0=[True, -2.0]), dict(Q=True), dict(seed=True), dict(t_end=True),
    ], ids=lambda bad: f"{next(iter(bad))}={next(iter(bad.values()))}")
    def test_value_type_checked_for_every_caller(self, bad):
        # what the CLI refuses at parse time, a direct construction refuses too
        with pytest.raises(ConfigurationError, match=f"bad value for {next(iter(bad))}: "):
            SimConfig(**bad)

    def test_nonfinite_step_rejected(self):
        for bad in (dict(dt=math.nan), dict(t_end=math.nan), dict(t_end=math.inf)):
            with pytest.raises(ConfigurationError):
                SimConfig(**bad)

    def test_x0_outside_the_divergence_ball_refused(self):
        # such a run only ever stopped on state_norm at row 1
        inside = SimConfig(x0=[7e5, -7e5], t_end=0.01)
        assert np.linalg.norm(inside.x0) < DIVERGENCE_NORM
        for x0 in ([7.1e5, -7.1e5], [1e300, -1e300], [1e6 + 1, 0.0]):
            with pytest.raises(ConfigurationError,
                               match=r"^x0 must have norm <= 1e\+06, the divergence bound$"):
                SimConfig(x0=x0)

    def test_unknown_scenario_at_build(self):
        # the config refuses the name, so build_world only ever looks up a known one
        for build in (lambda: SimConfig(scenario="s9"),
                      lambda: replace(SimConfig(), scenario="s9")):
            with pytest.raises(ConfigurationError, match="^unknown scenario 's9'$"):
                build()

    def test_resolved_attributes_follow_replace(self):
        # compare builds its configs with replace: the basis, g_bar, g_bar^+
        # and the law's cost are resolved from the new fields
        base = SimConfig()
        exps = [[2, 0], [1, 1], [0, 2], [3, 0], [0, 3], [1, 2]]
        cfg = replace(base, c_bar=1e300, g_bar=[[0.0], [0.2]], basis_exponents=exps)
        assert np.array_equal(cfg.basis.exponents, exps)
        assert cfg.basis.partials is not base.basis.partials
        assert cfg.g_bar_col == (0.0, 0.2) and cfg.g_bar_pinv == (0.0, 5.0)
        assert base.g_bar_col == (0.0, 0.1) and base.g_bar_pinv == (0.0, 10.0)
        # (c_bar du)^2 at du = 1e-300 is ~1 for c_bar = 1e300 and 0 for c_bar = 2
        law = IadpLaw(cfg)
        assert law.c_bar == 1e300 and law.g_bar == (0.0, 0.2)
        assert law_pair(law, [0.0, 0.0], 0.0, du=1e-300)[1] == pytest.approx(1.0)
        assert law_pair(IadpLaw(base), [0.0, 0.0], 0.0, du=1e-300)[1] == 0.0
        with pytest.raises(ConfigurationError, match="Q must be symmetric"):
            replace(base, Q=np.array([[1.0, 0.0], [0.5, 1.0]]))


class TestRk4:
    def test_linear_system_exact_to_order(self):
        # undisturbed pendulum linearized about origin behaves like the
        # matrix exponential for small steps
        x = np.array([1e-4, 0.0])
        got = kernels.pendulum_rk4(tuple(x), 0.0, WORLDS["s1"].plant.params,
                                   DisturbanceSignal().packed(), 0.0, 1e-3, 0.0)
        A = np.array([[0.0, 1.0], [-4.9 * np.cos(0.0), -0.2]])
        import scipy.linalg
        ref = scipy.linalg.expm(A * 1e-3) @ x
        assert np.allclose(got, ref, atol=1e-10)

    def test_stage_times_see_disturbance(self):
        # time-varying d must be sampled inside the step, not held at t
        p = WORLDS["s1"].plant.params
        sig = DisturbanceSignal(amplitude=0.5, period=1.0, t_on=0.0, t_off=10.0)
        # the same wave held at its value at t = 0.499: its sign flips at 1.0
        held = DisturbanceSignal(amplitude=0.5, period=2.0, t_on=0.0, t_off=10.0)
        x = (0.0, 0.0)
        # step straddling the sign flip at t = 0.5
        a, b = (kernels.pendulum_rk4(x, 0.0, p, s.packed(), 0.499, 2e-3,
                                     kernels.disturbance_value(*x, s.packed(), 0.499))
                for s in (sig, held))
        assert not np.allclose(a, b, atol=1e-9)

    def test_sim_rk4_step_is_the_kernel(self):
        # the name perfbench's hook table times is the one integrator, not a
        # second one beside it
        assert sim.rk4_step is kernels.pendulum_rk4


class TestEpisode:
    def test_determinism(self, rng):
        # also the monotone metrics and the saturation bound
        assert checks.short_run_defect(rng, seed=0) < checks.short_run_defect.tol

    def test_log_shapes(self):
        log = cached_run(t_end=2.0)
        S = 2001
        assert log.rows() == S
        assert log.x_true.shape == (S, 2)
        assert log.u.shape == (S,)
        assert log.w.shape == (S, 6)
        assert log.t[0] == 0.0 and log.t[-1] == pytest.approx(2.0)

    def test_warm_up_zero_input(self):
        log = cached_run(t_end=2.0)
        assert np.all(log.u[:2] == 0.0)
        assert np.all(log.w[:2] == 0.0)

    def test_weights_start_zero_and_move(self):
        log = cached_run(t_end=2.0)
        assert np.all(log.w[0] == 0.0)
        assert np.linalg.norm(log.w[-1]) > 0.0

    def test_metrics_match_accumulator(self):
        log = cached_run(t_end=2.0)
        met = accumulate_metrics(log)
        assert np.allclose(met.E_u, log.E_u, atol=1e-12)
        assert np.allclose(met.E_x, log.E_x, atol=1e-12)

    def test_zero_controller(self):
        log = run_scenario(SimConfig(controller="zero", t_end=1.0))
        assert np.all(log.u == 0.0)
        assert np.all(log.w == 0.0)
        assert log.E_u[-1] == 0.0

    def test_rank_fills_within_deadline(self):
        log = cached_run(t_end=8.0)
        assert log.rank[-1] == 6
        assert not log.insufficient_excitation
        assert log.buffer_sigma_min > 0.0

    def test_learning_disabled_freezes_weights(self, monkeypatch):
        # the law alone says whether the critic learns
        monkeypatch.setattr(IadpLaw, "learns", False)
        log = run_scenario(SimConfig(t_end=1.0))
        assert np.all(log.w == 0.0)
        assert np.all(log.u == 0.0)  # zero weights, zero control

    def test_increments_against_previous_sample(self):
        # xi is zero on the two warm-up rows, then formed against the sample
        # one step back
        log = cached_run(t_end=2.0)
        assert np.all(log.xi[:2] == 0.0)
        # xi = g_bar^+ dx_dot - du on the backward-difference xdot of rows 1..
        xdot = (log.x_meas[1:] - log.x_meas[:-1]) / SimConfig().dt
        g_bar_pinv = np.linalg.pinv(SimConfig().g_bar)
        xi = (xdot[1:] - xdot[:-1]) @ g_bar_pinv[0] - log.du[2:]
        assert np.allclose(log.xi[2:], xi, rtol=1e-12, atol=1e-12)

    @staticmethod
    def offers(monkeypatch):
        """Record every try_insert result the engine gets."""
        results = []
        original = sim.try_insert

        def counted(buf, Y, theta):
            result = original(buf, Y, theta)
            results.append(result[0])
            return result

        monkeypatch.setattr(sim, "try_insert", counted)
        return results

    def test_full_buffer_stops_offers_once_rank_met(self, monkeypatch):
        results = self.offers(monkeypatch)
        log = run_scenario(SimConfig(t_end=8.0))
        assert log.rank[-1] == 6
        assert len(results) == 8 and all(results)

    def test_rank_short_buffer_enriches(self, monkeypatch):
        # 4 points cannot span the 6 basis directions: after the fill, every
        # cadence step still offers its candidate, as a replacement
        results = self.offers(monkeypatch)
        log = run_scenario(SimConfig(t_end=6.0, buffer_size=4))
        assert log.insufficient_excitation
        assert log.rank.max() == log.rank[-1] == 4
        assert len(results) == 600
        assert all(results[:4]) and sum(results[4:]) > 0

    def test_enrichment_continues_through_excitation_phase(self, monkeypatch):
        # 6 points fill short of rank 6 and replacements complete it; offers
        # then go on at every cadence step while t < sim.BUFFER_UNTIL = 2 s
        results = self.offers(monkeypatch)
        log = run_scenario(SimConfig(t_end=3.0, buffer_size=6))
        assert log.rank[-1] == 6
        assert len(results) == 199

    def test_ground_truth_xdot_close_to_backward_difference(self):
        a = cached_run(t_end=2.0)
        b = cached_run(t_end=2.0, xdot_source="ground_truth")
        # same closed loop up to the O(dt) derivative estimate
        assert np.allclose(a.x_true[-1], b.x_true[-1], atol=5e-3)

    def test_event_swap_logged(self):
        log = cached_run(scenario="s2", t_end=21.0)
        assert (20.0, "swap_plant") in log.fired_events

    def test_logged_d_is_the_integrated_d(self):
        # over the window edge and the plant swap at t = 20 s: each row's d is
        # the kernel's value at (x, t), and the k d term the RHS integrates
        cfg = SimConfig(scenario="s3", t_end=21.0)
        world = build_world(cfg)
        log = run_episode(cfg, world)
        dist = world.disturbance.packed()
        k_only = (0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
        assert log.rows() == 21001 and log.fired_events == [(20.0, "swap_plant")]
        for i in range(log.rows()):
            d = kernels.disturbance_value(*log.x_true[i], dist, log.t[i])
            assert log.d[i].tobytes() == np.float64(d).tobytes(), i
            assert kernels.pendulum_rhs(*log.x_true[i], 0.0, k_only, d) == (d, d)

    def test_s1_no_events(self):
        log = cached_run(t_end=2.0)
        assert log.fired_events == []
        assert not log.diverged

    def test_seed_changes_noisy_runs_only(self):
        a = run_scenario(SimConfig(scenario="s1", t_end=1.0, seed=0))
        b = run_scenario(SimConfig(scenario="s1", t_end=1.0, seed=1))
        # s1 is noise-free, the seed must not matter
        assert np.array_equal(a.x_true, b.x_true)

    def test_divergence_truncates_log(self):
        log = unstable_uncontrolled_run()
        assert log.diverged and log.stop_cause == "state_norm"
        assert log.rows() < 80001
        assert log.rows() == log.diverged_step + 1
        assert np.all(np.isfinite(log.x_true))

    def test_plant_overflow_nonfinite_dynamics_truncates_log(self):
        # a = 1e308 overflows x1dot = a*x2 inside the first RK4 step: the
        # integrated state comes back non-finite and the episode ends there
        plant = ControlAffinePlant(1e308, -4.9, -0.2, 0.25, 1.0, -0.2)
        cfg = SimConfig(controller="zero", t_end=1.0)
        log = run_episode(cfg, World(plant, DisturbanceSignal(), NoiseSpec()))
        assert log.diverged and log.diverged_step == 1
        assert log.stop_cause == "nonfinite_dynamics"
        assert log.rows() == 2
        assert np.all(np.isfinite(log.x_true))


def unstable_uncontrolled_run(on_rows=None):
    """An unstable pendulum under the zero controller: the state leaves the
    DIVERGENCE_NORM ball, finite, after 2.3 s."""
    world = World(ControlAffinePlant(1.0, 500.0, 5.0, 0.25, 1.0, -0.2),
                  DisturbanceSignal(), NoiseSpec())
    return run_episode(SimConfig(controller="zero", t_end=80.0), world, on_rows)


class TestStopCause:
    """The stop cause of a full episode is empty. The state_norm and
    nonfinite_dynamics stops are checked in TestEpisode's divergence tests."""

    def test_completed_has_no_cause(self):
        log = cached_run(t_end=2.0)
        assert not log.diverged and log.stop_cause == ""

    def test_nonfinite_weights(self, monkeypatch):
        monkeypatch.setattr(kernels, "weight_derivative_kernel",
                            lambda w, *args: [math.inf] * len(w))
        log = run_scenario(SimConfig(t_end=1.0))
        # the first learning step (after two warm-up steps) stops the episode
        assert log.diverged and log.diverged_step == 2 and log.rows() == 3
        assert log.stop_cause == "nonfinite_weights"
        assert np.all(log.w == 0.0)

    def test_diverged_step_zeroes_only_nonfinite_weights(self, monkeypatch):
        cfg = SimConfig(t_end=1.0)
        N = cfg.basis.N
        monkeypatch.setattr(kernels, "weight_derivative_kernel",
                            lambda w, *args: [math.inf] + [1.0] * (N - 1))
        log = run_scenario(cfg)
        assert log.diverged_step == 2 and log.stop_cause == "nonfinite_weights"
        # the Euler step from w = 0 is [inf, dt, ...]: the inf is zeroed and
        # the finite entries are logged as they are
        assert log.w[-1].tolist() == [0.0] + [cfg.dt] * (N - 1)

    def test_s3_baselines_stop_on_weights(self):
        # the s3 baselines keep their pre-swap model: after the reset at 20 s
        # their critic weights overflow while the saturated loop keeps the
        # state near the origin
        log = cached_run(scenario="s3", controller="zsadp", t_end=21.0)
        assert log.diverged and log.diverged_step == 20176
        assert log.stop_cause == "nonfinite_weights"
        assert np.max(np.linalg.norm(log.x_true[20000:], axis=1)) < 1.0

    def test_truncated_log_owns_its_rows(self):
        # a view of the kept rows would keep all 21,001 preallocated rows alive
        log = cached_run(scenario="s3", controller="zsadp", t_end=21.0)
        arrays = {k: v for k, v in vars(log).items() if isinstance(v, np.ndarray)}
        assert len(arrays) == 12
        for name, arr in arrays.items():
            assert arr.flags.owndata and arr.flags.c_contiguous, name
            assert arr.shape[0] == log.diverged_step + 1, name


def assert_logs_identical(a, b):
    """Every field of two logs equal, arrays bit for bit; the wall clock aside."""
    fields = vars(a).keys() - {"wall_time"}
    assert fields == vars(b).keys() - {"wall_time"}
    for name in sorted(fields):
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and va.shape == vb.shape, name
            assert va.flags.c_contiguous and vb.flags.c_contiguous, name
            assert va.tobytes() == vb.tobytes(), name
        else:
            assert va == vb, name


def scaled(lo, hi):
    """+-10**e, e drawn from [lo, hi]."""
    return st.builds(lambda sign, e: sign * 10.0 ** e,
                     st.sampled_from((-1.0, 1.0)), st.floats(lo, hi))


def spd(draw, n):
    """An n x n symmetric matrix scaled by 1e-300..1e300, positive definite by
    Gershgorin: a diagonal in [1, 2] and off-diagonal entries under 1/(2n)."""
    off = np.triu(draw(hnp.arrays(float, (n, n), elements=st.floats(-0.5 / n, 0.5 / n))), 1)
    diag = np.diag(draw(hnp.arrays(float, n, elements=st.floats(1.0, 2.0))))
    return abs(draw(scaled(-300, 300))) * (diag + off + off.T)


@st.composite
def short_episodes(draw):
    """A config SimConfig accepts, from its extremes, and a 0.05-0.5 s World
    of s1-s3 whose noise window, square wave and plant swap fall inside it."""
    exponents = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4))
                              .filter(lambda e: sum(e) <= 4), min_size=1, max_size=6,
                              unique=True))
    g_bar = [draw(scaled(-300, 2)) for _ in range(2)]
    if (zero := draw(st.sampled_from((None, 0, 1)))) is not None:
        g_bar[zero] = 0.0
    # x0 inside the DIVERGENCE_NORM ball: entries up to 10**5.8, a norm under
    # 9e5
    lo, hi = draw(st.sampled_from(((-3, 1), (1, 5.8))))
    cfg = SimConfig(
        scenario=draw(st.sampled_from(sorted(WORLDS))),
        controller=draw(st.sampled_from(CONTROLLERS)),
        xdot_source=draw(st.sampled_from(XDOT_SOURCES)),
        t_end=draw(st.integers(50, 500)) / 1000, seed=draw(st.integers(0, 3)),
        x0=[draw(scaled(lo, hi)) for _ in range(2)], g_bar=[[g] for g in g_bar],
        Q=spd(draw, 2), Gamma=spd(draw, len(exponents)),
        beta=draw(st.one_of(st.just(kernels.BETA_MAX), scaled(-11.999, 100).map(abs))),
        c_bar=abs(draw(scaled(-300, 300))), k_c=abs(draw(scaled(-300, 300))),
        k_e=abs(draw(scaled(-300, 300))), buffer_size=draw(st.integers(1, 8)),
        basis_exponents=exponents)
    world = WORLDS[cfg.scenario]
    if world.events:
        t_on = draw(st.floats(0.0, cfg.t_end))
        t_off = draw(st.floats(t_on, cfg.t_end))
        # the swapped plant may take one coefficient near the float's top,
        # where RK4 overflows: from x0 inside the ball, |u| <= beta and the
        # scenarios' coefficients, no step leaves the floats
        plant = world.events[0].plant
        if draw(st.booleans()):
            name = draw(st.sampled_from(("a", "b", "c", "g2", "k1", "k2")))
            plant = replace(plant, **{name: draw(scaled(300, 308))})
        world = replace(world, noise=replace(world.noise, t_on=t_on, t_off=t_off),
                        disturbance=replace(world.disturbance, t_on=t_on, t_off=t_off),
                        events=tuple(replace(ev, time=draw(st.floats(cfg.dt, cfg.t_end)),
                                             plant=plant)
                                     for ev in world.events))
    return cfg, world


def assert_contract(cfg, log):
    """The divergence contract of TrajectoryLog's docstring."""
    S = int(round(cfg.t_end / cfg.dt)) + 1
    rows, cause = log.rows(), log.stop_cause
    assert log.diverged == bool(cause)
    if cause:
        assert cause in ("state_norm", "nonfinite_dynamics", "nonfinite_weights")
        assert rows == log.diverged_step + 1 <= S
    else:
        assert rows == S and log.diverged_step == -1
    assert all(getattr(log, name).shape[0] == rows for name in TrajectoryLog.ARRAYS)
    # every row but a nonfinite_weights stop row keeps the bound, and a nan
    # u breaks it
    kept = slice(rows - (cause == "nonfinite_weights"))
    assert np.all(np.abs(log.u[kept]) <= cfg.beta - kernels.SATURATION_MARGIN)
    for name in ("du", "theta_tilde", "E_u"):
        assert np.all(np.isfinite(getattr(log, name)[kept])), name
    # xi is a diagnostic that may overflow on any row
    for name in ("t", "x_true", "x_meas", "w", "d", "E_x"):
        assert np.all(np.isfinite(getattr(log, name))), name


class TestContract:
    @settings(max_examples=100, deadline=None)
    @given(short_episodes())
    def test_short_episodes_keep_the_contract(self, episode):
        # the drawn extremes reach all three stop causes; no episode raises,
        # and a rerun gives the same log
        cfg, world = episode
        log = run_episode(cfg, world)
        assert_contract(cfg, log)
        assert_logs_identical(log, run_episode(cfg, world))


# perfbench's fingerprint of the nine seed-0 80 s reference logs, each
# scenario x controller: a change to the arithmetic, its order or the noise
# stream moves them
REFERENCE_FINGERPRINTS = {
    ("s1", "iadp"): "0e6aa73cbc62b5a35c4436408cef5a6460b16dcfee6833c87e053cf6372c8c95",
    ("s1", "zsadp"): "3910837ba86fef09d787157462194c27275ca0c0317e65322b1327dfaacd5508",
    ("s1", "tadp"): "32612842bcf2f61b887fae572509924f69870f5f6cc4a7a498e8922b78441f1e",
    ("s2", "iadp"): "51d6da78cc7d19c2e1b82af2e6c9bbe12f54d3cfb35c34455aeea6519fba2542",
    ("s2", "zsadp"): "c9a5d214db71604e9298fcb73dcf85b53e81b610d9427adc695f1a6cdcc7f135",
    ("s2", "tadp"): "b07a872394f4ddefeb45236e51df720eb9d89ca601cc10cae92776f540afc7a8",
    ("s3", "iadp"): "d3a6e3fd1d61aaa3e8cd0b00889ffda3cbd8cb153f8dd9ee5d73b2adb6f88d4e",
    ("s3", "zsadp"): "703c4290433b41286b388d47f5835368dfc8e39e6dbccd79492e8ee5fe25719f",
    ("s3", "tadp"): "17f8123bbdfa139eb43736bbf59a8b71028f356516d077c5df4c855e2aeaea59",
}


def test_reference_logs_keep_their_fingerprints():
    got = {key: fingerprint(cached_run(*key)) for key in REFERENCE_FINGERPRINTS}
    assert got == REFERENCE_FINGERPRINTS


class TestWorld:
    """An episode reads its World and changes nothing in it."""

    def test_rerun_on_one_world(self):
        cfg = SimConfig(scenario="s2", t_end=21.0)
        world = build_world(cfg)
        first, second = run_episode(cfg, world), run_episode(cfg, world)
        fresh = cached_run(scenario="s2", t_end=21.0)
        for log in (first, second, fresh):
            assert log.fired_events == [(20.0, "swap_plant")]
        assert_logs_identical(first, second)
        assert_logs_identical(first, fresh)

    def test_frozen(self):
        world = build_world(SimConfig(scenario="s2"))
        event = world.events[0]
        for obj, name, value in ((world, "plant", event.plant), (world.plant, "a", 2.0),
                                 (world.disturbance, "amplitude", 0.0),
                                 (world.noise, "snr_db", 0.0), (event, "time", 1.0)):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, value)


class TestStagedLog:
    """Rows staged and flushed in chunks give the same log as rows written
    one at a time (a chunk of 1), at and around the chunk boundary and for
    an episode that stops mid-chunk."""

    @pytest.mark.parametrize("t_end, rows", [(0.254, 255), (0.255, 256), (0.256, 257)])
    def test_chunk_boundaries(self, monkeypatch, t_end, rows):
        assert sim.LOG_CHUNK_ROWS == 256
        chunked = run_scenario(SimConfig(t_end=t_end))
        monkeypatch.setattr(sim, "LOG_CHUNK_ROWS", 1)
        single = run_scenario(SimConfig(t_end=t_end))
        assert chunked.rows() == rows
        assert_logs_identical(chunked, single)
        # the last row is written (x(t) of the pendulum from (2, -2) is not 0)
        assert np.all(chunked.x_true[-1] != 0.0) and chunked.E_x[-1] > 0.0

    def test_weights_stop_mid_chunk(self, monkeypatch):
        def run():
            return run_scenario(SimConfig(scenario="s3", controller="zsadp", t_end=21.0))
        chunked = run()
        assert chunked.rows() % sim.LOG_CHUNK_ROWS not in (0, 1)
        monkeypatch.setattr(sim, "LOG_CHUNK_ROWS", 1)
        assert_logs_identical(chunked, run())
        # the stopping step's row: zeroed weights, non-finite residual
        assert np.all(chunked.w[-1] == 0.0) and np.any(chunked.w[-2] != 0.0)
        assert np.isinf(chunked.theta_tilde[-1])
        assert np.all(chunked.x_true[-1] != 0.0) and chunked.E_x[-1] > 0.0

    def test_state_stop_mid_chunk(self, monkeypatch):
        chunked = unstable_uncontrolled_run()
        assert chunked.rows() % sim.LOG_CHUNK_ROWS not in (0, 1)
        monkeypatch.setattr(sim, "LOG_CHUNK_ROWS", 1)
        assert_logs_identical(chunked, unstable_uncontrolled_run())
        # the diverged row holds the state that left the ball, measured as is
        last = chunked.x_true[-1]
        assert np.linalg.norm(last) > DIVERGENCE_NORM
        assert np.array_equal(chunked.x_meas[-1], last)
        assert chunked.E_x[-1] == chunked.E_x[-2] > 0.0


class TestNoiseTracker:
    """The SNR reference is a running mean square from t = 0: it is tracked on
    every step before the noise window closes, when noise can be on, and not
    at all when it never can."""

    @pytest.fixture
    def updates(self, monkeypatch):
        calls = []
        update = NoiseState.update
        monkeypatch.setattr(NoiseState, "update",
                            lambda self, x: calls.append(x) or update(self, x))
        return calls

    def test_skipped_without_noise(self, updates):
        log = run_scenario(SimConfig(scenario="s1", t_end=0.5))
        assert log.rows() == 501
        assert updates == []

    def test_every_step_with_noise_spec(self, updates):
        log = run_scenario(SimConfig(scenario="s2", t_end=0.5))
        assert len(updates) == log.rows() == 501

    def test_stops_at_window_end(self, updates):
        cfg = SimConfig(scenario="s2", t_end=0.5)
        noise = NoiseSpec(kind="gaussian", snr_db=50.0, t_on=0.1, t_off=0.3)
        log = run_episode(cfg, replace(build_world(cfg), noise=noise))
        assert log.rows() == 501
        assert len(updates) == np.count_nonzero(log.t < noise.t_off) == 300
        # the rows before the window are clean, those inside it are not
        assert np.array_equal(log.x_meas[:100], log.x_true[:100])
        assert np.all(log.x_meas[100:300] != log.x_true[100:300])


class TestStepPath:
    """A step builds no comprehension: each is a function call on Python
    3.11. Only the episode's set-up and the replay buffer's ``try_insert``
    (its Gram rebuild, and numpy under it) make them, about ten per stored
    point, so an episode makes fewer than one per 20 steps, while one
    per-step comprehension would make one per step."""

    def test_no_comprehension_per_step(self):
        cfg = SimConfig(scenario="s2", t_end=2.0)
        # the noise window lies inside the episode: clean and noisy steps run
        noise = NoiseSpec(kind="gaussian", snr_db=50.0, t_on=0.5, t_off=1.5)
        world = replace(build_world(cfg), noise=noise)
        # generate every shape kernel first, the buffer's up to its capacity
        run_episode(replace(cfg, t_end=0.2), world)
        names = {"<listcomp>", "<genexpr>", "<dictcomp>"}
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name in names:
                calls.append(frame.f_back.f_code.co_name)

        sys.setprofile(profile)
        try:
            log = run_episode(cfg, world)
        finally:
            sys.setprofile(None)
        assert not log.diverged and log.rows() == 2001
        assert len(calls) < log.rows() / 20, collections.Counter(calls)


class RowsRecorder:
    """An ``on_rows`` callback that keeps each block it is handed."""

    def __init__(self):
        self.blocks = []

    def __call__(self, block):
        self.blocks.append(block)

    def lengths(self):
        return [len(block) for block in self.blocks]

    def check(self, log, dt=1e-3):
        """Each block is read-only, the blocks together are the final log's
        rows, every array's columns in order, bit for bit, and the t column
        is np.arange(rows) * dt, bit for bit."""
        assert all(not block.flags.writeable for block in self.blocks)
        assert 0 not in self.lengths()
        stacked = np.column_stack([getattr(log, name) for name in TrajectoryLog.ARRAYS])
        assert np.concatenate(self.blocks).tobytes() == stacked.tobytes()
        assert log.t.tobytes() == (np.arange(log.rows()) * dt).tobytes()


class TestOnRows:
    """``run_episode``'s ``on_rows`` callback hands over each flushed block
    of rows once, in order, after the rows are written, and leaves the log
    as it is without one."""

    def test_full_episode(self):
        rec = RowsRecorder()
        log = run_scenario(SimConfig(t_end=1.0), rec)
        assert not log.diverged and log.rows() == 1001
        assert rec.lengths() == [256, 256, 256, 233]
        rec.check(log)

    def test_nonfinite_weights_stop(self, monkeypatch):
        monkeypatch.setattr(kernels, "weight_derivative_kernel",
                            lambda w, *args: [math.inf] * len(w))
        rec = RowsRecorder()
        log = run_scenario(SimConfig(t_end=1.0), rec)
        assert log.stop_cause == "nonfinite_weights" and rec.lengths() == [3]
        rec.check(log)

    def test_state_norm_stop(self):
        rec = RowsRecorder()
        log = unstable_uncontrolled_run(rec)
        assert log.stop_cause == "state_norm" and log.rows() % sim.LOG_CHUNK_ROWS
        rec.check(log)

    @pytest.mark.parametrize("scenario, controller", [("s2", "iadp"), ("s3", "zsadp")])
    def test_log_unchanged_by_callback(self, scenario, controller):
        rec = RowsRecorder()
        log = run_scenario(SimConfig(scenario=scenario, controller=controller), rec)
        assert fingerprint(log) == fingerprint(cached_run(scenario, controller))
        rec.check(log)


# A non-default config with cross terms in Q, both g_bar entries non-zero,
# a non-uniform Gamma and an off-default x0
SKEWED = dict(Q=[[2.0, 0.3], [0.3, 0.5]], g_bar=[[0.05], [0.1]],
              Gamma=np.diag([1e-4, 3e-4, 5e-5, 2e-4, 1e-4, 4e-4]), x0=[1.5, -0.7])


def assert_mirror_holds(cfg, world):
    """The run from -x0, with the disturbance's w1 and square-wave amplitude
    negated, is cfg's run mirrored, bit for bit: the states, u, du, xi and d
    and the odd-degree weights negated, and every other column equal."""
    d = world.disturbance
    a = run_episode(cfg, world)
    b = run_episode(replace(cfg, x0=-cfg.x0),
                    replace(world, disturbance=replace(d, w1=-d.w1, amplitude=-d.amplitude)))
    for name in ("x_true", "x_meas", "u", "du", "xi", "d"):
        assert np.array_equal(getattr(b, name), -getattr(a, name)), name
    for name in ("t", "theta_tilde", "E_u", "E_x", "rank"):
        assert np.array_equal(getattr(b, name), getattr(a, name)), name
    odd = cfg.basis_exponents.sum(axis=1) % 2 == 1
    assert np.array_equal(b.w[:, ~odd], a.w[:, ~odd])
    assert np.array_equal(b.w[:, odd], -a.w[:, odd])
    for name in ("diverged", "diverged_step", "stop_cause",
                 "insufficient_excitation", "fired_events"):
        assert getattr(b, name) == getattr(a, name), name


# the exponent pairs of the features of total degree 1 to 6
MIRROR_EXPONENTS = [(k, degree - k) for degree in range(1, 7) for k in range(degree + 1)]


@st.composite
def mirror_cases(draw, controllers=CONTROLLERS):
    """A noise-free config off the defaults, its controller one of
    ``controllers``, and a 0.2-0.5 s World with a square wave and s3's plant
    swap inside it: a full Q, both g_bar entries non-zero, a basis of 2-7
    features of degree 1-6, and a Gamma that couples weights of equal
    degree parity only, as the mirror relation needs; every other symmetric
    positive definite Gamma breaks it."""
    exponents = np.array(draw(st.lists(st.sampled_from(MIRROR_EXPONENTS), min_size=2,
                                       max_size=7, unique=True)))
    N = len(exponents)
    odd = exponents.sum(axis=1) % 2 == 1
    # positive definite by Gershgorin, as in spd
    off = np.triu(draw(hnp.arrays(float, (N, N), elements=st.floats(-0.5 / N, 0.5 / N))), 1)
    off[odd[:, None] != odd] = 0.0
    diag = np.diag(draw(hnp.arrays(float, N, elements=st.floats(1.0, 2.0))))
    q01 = draw(st.floats(-0.9, 0.9))
    cfg = SimConfig(
        controller=draw(st.sampled_from(controllers)),
        xdot_source=draw(st.sampled_from(XDOT_SOURCES)),
        t_end=draw(st.integers(200, 500)) / 1000,
        x0=[draw(scaled(-1, 0.3)) for _ in range(2)],
        g_bar=[[draw(scaled(-2, 0))] for _ in range(2)],
        Q=[[draw(st.floats(1.0, 2.0)), q01], [q01, draw(st.floats(1.0, 2.0))]],
        Gamma=10.0 ** draw(st.floats(-5, -3)) * (diag + off + off.T),
        buffer_size=draw(st.integers(1, 8)), basis_exponents=exponents)
    t_on = draw(st.floats(0.0, 0.1))
    disturbance = replace(WORLDS["s1"].disturbance, w1=draw(scaled(-2, 0)),
                          amplitude=draw(scaled(-2, 0)), period=draw(st.floats(0.01, 0.1)),
                          t_on=t_on, t_off=draw(st.floats(t_on + 0.05, cfg.t_end)))
    swap = replace(WORLDS["s3"].events[0], time=draw(st.floats(cfg.dt, 0.2)))
    return cfg, replace(WORLDS["s1"], disturbance=disturbance, events=(swap,))


class TestMirror:
    """The closed loop is odd in x: started from -x0, with the disturbance's
    w1 and square-wave amplitude negated, a noise-free world logs every
    state, u, du, xi and d negated and the odd weights negated, bit for bit.
    s1 has no noise and no square wave; the drawn worlds have no noise, a
    square wave and a plant swap.

    Odd and even parts are only told apart here, so an error that keeps
    parity goes unseen: a Q01<->Q10 swap, or a Gamma applied transposed.
    Gamma must not couple even- and odd-degree weights for the relation to
    hold: here it is diagonal, and the drawn Gammas are block-diagonal by
    degree parity."""

    @pytest.mark.parametrize("skewed", [False, True], ids=["default", "skewed"])
    @pytest.mark.parametrize("xdot_source", ["backward_difference", "ground_truth"])
    @pytest.mark.parametrize("controller", ["iadp", "zsadp", "tadp", "zero"])
    def test_mirror_run_is_negated(self, controller, xdot_source, skewed):
        cfg = SimConfig(controller=controller, xdot_source=xdot_source, t_end=2.0,
                        **(SKEWED if skewed else {}))
        assert list(cfg.basis_exponents.sum(axis=1) % 2) == [0] * 3 + [1] * 3
        assert_mirror_holds(cfg, WORLDS["s1"])

    # no shrink phase: a failing draw shows its config, and shrinking reruns
    # two episodes per try
    @settings(max_examples=100, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(mirror_cases())
    def test_mirror_holds_on_drawn_configs(self, case):
        assert_mirror_holds(*case)



def gauged(cfg, world, k):
    """cfg and world under the power-of-two gauge 2^k: Q -> 4^k Q, beta ->
    2^k beta, g_bar -> g_bar / 2^k, and the plant's g2 -> g2 / 2^k, in the
    World's plant and in each swap event's."""
    s = 2.0 ** k

    def plant(p):
        return replace(p, g2=p.g2 / s)
    return (replace(cfg, Q=s * s * cfg.Q, beta=s * cfg.beta, g_bar=cfg.g_bar / s),
            replace(world, plant=plant(world.plant),
                    events=tuple(replace(ev, plant=plant(ev.plant)) for ev in world.events)))


def assert_gauge_holds(cfg, world, k):
    """The gauged run logs t, the states, d, E_x and rank equal, u, du and
    xi times 2^k, and w, theta_tilde and E_u times 4^k, bit for bit, on the
    rows before the first row on which either run clamps u; with no clamped
    row, the whole logs and their buffer_sigma_min and stop fields too."""
    a = run_episode(cfg, world)
    cfg_k, world_k = gauged(cfg, world, k)
    b = run_episode(cfg_k, world_k)
    rows = min(a.rows(), b.rows())
    clamped = np.flatnonzero(
        (np.abs(a.u[:rows]) >= cfg.beta - kernels.SATURATION_MARGIN)
        | (np.abs(b.u[:rows]) >= cfg_k.beta - kernels.SATURATION_MARGIN))
    if clamped.size:
        rows = clamped[0]
    else:
        assert a.rows() == b.rows() and b.buffer_sigma_min == a.buffer_sigma_min
        for name in ("diverged_step", "stop_cause", "insufficient_excitation",
                     "fired_events"):
            assert getattr(b, name) == getattr(a, name), name
    s = 2.0 ** k
    for name, scale in [("t", 1.0), ("x_true", 1.0), ("x_meas", 1.0), ("d", 1.0),
                        ("E_x", 1.0), ("rank", 1), ("u", s), ("du", s), ("xi", s),
                        ("w", s * s), ("theta_tilde", s * s), ("E_u", s * s)]:
        assert np.array_equal(getattr(b, name)[:rows], scale * getattr(a, name)[:rows]), name


class TestGauge:
    """The closed loop is invariant under a power-of-two gauge 2^k: with Q
    times 4^k, beta times 2^k, and g_bar and the plant's g2 over 2^k, IADP's
    and the zero law's logs keep t, the states, d, E_x, rank and sigma_min,
    scale u, du and xi by 2^k, and scale w, theta_tilde and E_u by 4^k, bit
    for bit, as a power of two scales a float exactly. It sees errors that
    keep parity and that the defaults Q = I and g_bar = (0, 0.1) hide from
    the fingerprints.

    The clamp |u| <= beta - SATURATION_MARGIN has an absolute margin, 1e-12,
    which does not scale, so a clamped row breaks the relation from that
    row on: the rows before the first clamped row of either run are
    checked, and a draw that clamps none is checked whole. That keeps every
    draw's checkable rows, where dropping clamped draws would lose them.
    The relation does not hold for ZSADP or TADP: their gamma and rho, and
    the disturbance column k their auxiliary terms read, do not scale."""

    # no shrink phase, as in TestMirror
    @settings(max_examples=100, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(mirror_cases(controllers=("iadp", "zero")), st.integers(-3, 3))
    def test_gauge_holds_on_drawn_configs(self, case, k):
        assert_gauge_holds(*case, k)
