from dataclasses import dataclass

import numpy as np
import pytest

from conftest import cached_run
from iadp.plant import (ConfigurationError, DisturbanceSignal, NoiseSpec,
                        disturbance_value, pendulum_nominal)
from iadp.scenarios import build_world, run_scenario
from iadp.sim import SimConfig, TrajectoryLog, World, rk4_step, run_episode


@dataclass
class Metrics:
    E_u: np.ndarray
    E_x: np.ndarray


def accumulate_metrics(log: TrajectoryLog) -> Metrics:
    """Trapezoidal running integrals of ||u||^2 and ||x||^2 over the log: the
    oracle for the engine's in-loop E_u and E_x."""
    dt = np.diff(log.t)
    u_sq = np.sum(log.u * log.u, axis=1)
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
            SimConfig(scenario="s9") and run_scenario(SimConfig(scenario="s9"))

    def test_unknown_scenario_at_build(self):
        cfg = SimConfig()
        cfg.scenario = "s9"
        with pytest.raises(ConfigurationError):
            build_world(cfg)


class TestRk4:
    def test_linear_system_exact_to_order(self):
        # undisturbed pendulum linearized about origin behaves like the
        # matrix exponential for small steps
        plant = pendulum_nominal()
        x = np.array([1e-4, 0.0])
        got = rk4_step(plant, x, np.zeros(1), lambda xs, ts: np.zeros(1), 0.0, 1e-3)
        A = np.array([[0.0, 1.0], [-4.9 * np.cos(0.0), -0.2]])
        import scipy.linalg
        ref = scipy.linalg.expm(A * 1e-3) @ x
        assert np.allclose(got, ref, atol=1e-10)

    def test_fourth_order_convergence(self):
        plant = pendulum_nominal()
        x0 = np.array([2.0, -2.0])
        d_fn = lambda xs, ts: np.zeros(1)

        def integrate(dt, t_end=0.5):
            x = x0.copy()
            for k in range(int(round(t_end / dt))):
                x = rk4_step(plant, x, np.zeros(1), d_fn, k * dt, dt)
            return x

        ref = integrate(1e-5)
        e1 = np.linalg.norm(integrate(2e-2) - ref)
        e2 = np.linalg.norm(integrate(1e-2) - ref)
        assert 10.0 < e1 / e2 < 24.0  # ~2^4

    def test_stage_times_see_disturbance(self):
        # time-varying d must be sampled inside the step, not held at t
        plant = pendulum_nominal()
        sig = DisturbanceSignal(kind="square_wave", amplitude=0.5, period=1.0,
                                t_on=0.0, t_off=10.0)
        d_fn = lambda xs, ts: disturbance_value(sig, xs, ts)
        x = np.array([0.0, 0.0])
        # step straddling the sign flip at t = 0.5
        a = rk4_step(plant, x, np.zeros(1), d_fn, 0.499, 2e-3)
        b = rk4_step(plant, x, np.zeros(1),
                     lambda xs, ts: disturbance_value(sig, xs, 0.499), 0.499, 2e-3)
        assert not np.allclose(a, b, atol=1e-9)


class TestEpisode:
    def test_determinism(self):
        a = cached_run(t_end=2.0)
        b = run_scenario(SimConfig(t_end=2.0))
        assert np.array_equal(a.x_true, b.x_true)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.u, b.u)

    def test_log_shapes(self):
        log = cached_run(t_end=2.0)
        S = 2001
        assert log.rows() == S
        assert log.x_true.shape == (S, 2)
        assert log.u.shape == (S, 1)
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

    def test_metrics_monotone_and_match_accumulator(self):
        log = cached_run(t_end=2.0)
        assert np.all(np.diff(log.E_u) >= 0.0)
        assert np.all(np.diff(log.E_x) >= 0.0)
        met = accumulate_metrics(log)
        assert np.allclose(met.E_u, log.E_u, atol=1e-12)
        assert np.allclose(met.E_x, log.E_x, atol=1e-12)

    def test_saturation_invariant(self):
        log = cached_run(t_end=2.0)
        assert np.max(np.abs(log.u)) <= 2.0 - 1e-12

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

    def test_learning_disabled_freezes_weights(self):
        log = run_scenario(SimConfig(t_end=1.0, learning_enabled=False))
        assert np.all(log.w == 0.0)
        assert np.all(log.u == 0.0)  # zero weights, zero control

    def test_ground_truth_xdot_close_to_backward_difference(self):
        a = cached_run(t_end=2.0)
        b = cached_run(t_end=2.0, xdot_source="ground_truth")
        # same closed loop up to the O(dt) derivative estimate
        assert np.allclose(a.x_true[-1], b.x_true[-1], atol=5e-3)

    def test_event_swap_logged(self):
        log = cached_run(scenario="s2", t_end=21.0)
        assert (20.0, "swap_plant") in log.fired_events

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
        # an unstable plant with no control authority blows up quickly
        from iadp.plant import make_pendulum
        cfg = SimConfig(controller="zero", t_end=80.0)
        world = World(make_pendulum(1.0, 500.0, 5.0, 0.25, 1.0, -0.2),
                      DisturbanceSignal(), NoiseSpec())
        from iadp.plant import EventSchedule
        log = run_episode(cfg, world, EventSchedule([]))
        assert log.diverged
        assert log.rows() < 80001
        assert log.rows() == log.diverged_step + 1
        assert np.all(np.isfinite(log.x_true))
