import collections
import math
import sys
from dataclasses import FrozenInstanceError, dataclass, replace

from pathlib import Path

import numpy as np
import pytest

from helpers import cached_run, law_pair
from iadp import checks, kernels, sim
from iadp.controllers import IadpLaw
from iadp.plant import (ConfigurationError, ControlAffinePlant, DisturbanceSignal,
                        NoiseSpec, NoiseState, World)
from iadp.scenarios import WORLDS, build_world, run_scenario
from iadp.sim import DIVERGENCE_NORM, SimConfig, TrajectoryLog, run_episode

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
        dict(seed=1.5), dict(buffer_size=2.5), dict(buffer_until=math.nan),
        dict(rank_deadline=math.nan), dict(beta=math.inf), dict(k_c=math.inf),
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
                                   DisturbanceSignal().packed(), 0.0, 1e-3)
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
        a = kernels.pendulum_rk4(x, 0.0, p, sig.packed(), 0.499, 2e-3)
        b = kernels.pendulum_rk4(x, 0.0, p, held.packed(), 0.499, 2e-3)
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
            ins, rep = original(buf, Y, theta)
            results.append(ins)
            return ins, rep

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
        # then go on at every cadence step while t < buffer_until = 2 s
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
            assert kernels.pendulum_rhs(*log.x_true[i], 0.0, k_only, dist, log.t[i]) == (d, d)

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
    """An ``on_rows`` callback that keeps a copy of each range it is handed,
    read from the log arrays at the time of the call."""

    def __init__(self):
        self.ranges = []
        self.copies = []

    def __call__(self, log, start, stop):
        self.ranges.append((start, stop))
        self.copies.append({name: value[start:stop].copy()
                            for name, value in vars(log).items()
                            if isinstance(value, np.ndarray)})

    def check(self, log):
        """The ranges tile [0, rows) in order, and each copy is the final log's
        rows, bit for bit."""
        assert self.ranges[0][0] == 0 and self.ranges[-1][1] == log.rows()
        for (_, stop), (start, _) in zip(self.ranges, self.ranges[1:]):
            assert stop == start
        for (start, stop), copy in zip(self.ranges, self.copies):
            assert start < stop
            for name, rows in copy.items():
                assert rows.tobytes() == getattr(log, name)[start:stop].tobytes(), name


class TestOnRows:
    """``run_episode``'s ``on_rows`` callback hands over each flushed range of
    rows once, in order, after the rows are written, and leaves the log as it
    is without one."""

    def test_full_episode(self):
        rec = RowsRecorder()
        log = run_scenario(SimConfig(t_end=1.0), rec)
        assert not log.diverged and log.rows() == 1001
        assert rec.ranges == [(0, 256), (256, 512), (512, 768), (768, 1001)]
        rec.check(log)

    def test_nonfinite_weights_stop(self, monkeypatch):
        monkeypatch.setattr(kernels, "weight_derivative_kernel",
                            lambda w, *args: [math.inf] * len(w))
        rec = RowsRecorder()
        log = run_scenario(SimConfig(t_end=1.0), rec)
        assert log.stop_cause == "nonfinite_weights" and rec.ranges == [(0, 3)]
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
