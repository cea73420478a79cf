import numpy as np
import pytest

from iadp import kernels
from iadp.plant import (ConfigurationError, DisturbanceSignal, Event,
                        EventSchedule, NoiseSpec, NoiseState,
                        add_measurement_noise, apply_event_schedule,
                        disturbance_value, pendulum_nominal,
                        pendulum_reset_mild)
from iadp.sim import SimConfig, World, run_episode

NOMINAL = pendulum_nominal().params
NO_D = DisturbanceSignal().packed()


class TestEvalDynamics:
    """The plant's dynamics as ``kernels.pendulum_rhs`` evaluates them."""

    def test_pendulum_drift(self):
        # f entries at x=[2,-2]: [-2, -4.9*sin(2) + 0.4]
        out = kernels.pendulum_rhs(2.0, -2.0, 0.0, NOMINAL, NO_D, 0.0)
        assert np.allclose(out, [-2.0, -4.9 * np.sin(2.0) + 0.4], atol=1e-12)
        assert np.allclose(out, [-2.0, -4.055564], atol=1e-6)

    def test_equilibrium(self):
        out = kernels.pendulum_rhs(0.0, 0.0, 0.0, NOMINAL, NO_D, 0.0)
        assert np.array_equal(out, [0.0, 0.0])

    def test_input_column(self):
        out = kernels.pendulum_rhs(0.0, 0.0, 1.0, NOMINAL, NO_D, 0.0)
        assert np.allclose(out, [0.0, 0.25], atol=1e-15)

    def test_dimension_mismatch(self):
        # consistent set-ups with 3 states, or with 2 inputs, against the
        # plant's (n, m) = (2, 1) are refused before the first step
        three_states = SimConfig(
            basis_exponents=np.array([[2, 0, 0], [1, 1, 0], [0, 2, 0],
                                      [0, 0, 2], [1, 0, 1], [0, 1, 1]]),
            x0=np.array([2.0, -2.0, 0.0]), g_bar=[[0.0], [0.1], [0.0]], Q=1.0, t_end=1.0)
        two_inputs = SimConfig(g_bar=[[1.0, 0.0], [0.0, 0.1]], t_end=1.0)
        for cfg, sizes in ((three_states, r"\(3, 1\)"), (two_inputs, r"\(2, 2\)")):
            world = World(pendulum_nominal(), DisturbanceSignal(), NoiseSpec())
            with pytest.raises(ConfigurationError, match=sizes):
                run_episode(cfg, world, EventSchedule([]))

    def test_affine_in_u(self, rng):
        # d = 0.3 on [0, 1)
        dist = DisturbanceSignal(kind="square_wave", amplitude=0.3, period=2.0,
                                 t_on=0.0, t_off=10.0).packed()

        def rhs(x, u):
            return np.array(kernels.pendulum_rhs(*x, u, NOMINAL, dist, 0.5))

        assert np.allclose(rhs((0.0, 0.0), 0.0), [0.3, -0.06], atol=1e-15)  # k d
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            u1, u2 = rng.uniform(-2, 2, 2)
            a = rng.uniform()
            lhs = rhs(x, a * u1 + (1 - a) * u2)
            assert np.allclose(lhs, a * rhs(x, u1) + (1 - a) * rhs(x, u2), atol=1e-12)


class TestDisturbance:
    def test_vanishing_value(self):
        sig = DisturbanceSignal(kind="vanishing", w1=-0.3906, w2=1.0051)
        d = disturbance_value(sig, [2.0, -2.0], 0.0)
        assert d[0] == pytest.approx(-0.3906 * 2.0 * np.sin(-2.0102), abs=1e-12)
        assert d[0] == pytest.approx(0.70699, abs=1e-5)

    def test_vanishing_zero_angle(self):
        sig = DisturbanceSignal(kind="vanishing", w1=0.5, w2=1.7)
        assert disturbance_value(sig, [0.0, 3.0], 1.0)[0] == 0.0

    def test_vanishing_bound(self, rng):
        sig = DisturbanceSignal(kind="vanishing", w1=-0.3906, w2=1.0051)
        for _ in range(300):
            x = rng.uniform(-6, 6, 2)
            assert abs(disturbance_value(sig, x, 0.0)[0]) <= 0.3906 * abs(x[0]) + 1e-14

    def test_square_wave(self):
        sig = DisturbanceSignal(kind="square_wave", amplitude=0.2, period=5.0,
                                t_on=20.0, t_off=60.0)
        assert disturbance_value(sig, [0, 0], 21.0)[0] == 0.2
        assert disturbance_value(sig, [0, 0], 23.5)[0] == -0.2
        assert disturbance_value(sig, [0, 0], 10.0)[0] == 0.0
        assert disturbance_value(sig, [0, 0], 60.0)[0] == 0.0

    def test_square_wave_zero_mean(self):
        sig = DisturbanceSignal(kind="square_wave", amplitude=0.5, period=5.0,
                                t_on=20.0, t_off=60.0)
        ts = 20.0 + np.arange(0, 5.0, 1e-3)
        vals = [disturbance_value(sig, np.zeros(2), t)[0] for t in ts]
        assert abs(np.mean(vals)) < 1e-12

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DisturbanceSignal(kind="square_wave", amplitude=1, period=0.0,
                              t_on=0, t_off=1)
        with pytest.raises(ConfigurationError):
            DisturbanceSignal(kind="square_wave", amplitude=1, period=1.0,
                              t_on=2, t_off=1)


class TestNoise:
    def test_none_is_identity(self, rng):
        x = np.array([1.0, 2.0])
        out = add_measurement_noise(x, NoiseSpec(kind="none"), 0.0, rng)
        assert np.array_equal(out, x)

    def test_window_gate(self, rng):
        spec = NoiseSpec(kind="gaussian", snr_db=10, t_on=20, t_off=60)
        x = np.array([1.0, 2.0])
        assert np.array_equal(add_measurement_noise(x, spec, 5.0, rng), x)
        assert not np.array_equal(add_measurement_noise(x, spec, 30.0, rng), x)

    def test_snr_power_ratio(self):
        # 50 dB vs 10 dB on the same clean stream: noise power ratio ~40 dB
        n_samples = 200_000
        state = NoiseState(1)
        x = np.array([1.0])
        state.update(x)
        powers = {}
        for snr in (50.0, 10.0):
            spec = NoiseSpec(kind="gaussian", snr_db=snr, t_on=0.0, t_off=1e9)
            gen = np.random.default_rng(0)
            noise = np.array([
                add_measurement_noise(x, spec, 1.0, gen, state)[0] - x[0]
                for _ in range(n_samples // 100)])
            # scale check is deterministic per-sample, variance over draws
            powers[snr] = np.var(noise)
        ratio_db = 10 * np.log10(powers[10.0] / powers[50.0])
        assert ratio_db == pytest.approx(40.0, abs=1.0)

    def test_seed_reproducibility(self):
        spec = NoiseSpec(kind="gaussian", snr_db=20, t_on=0, t_off=10)
        x = np.array([0.5, -0.5])
        a = add_measurement_noise(x, spec, 1.0, np.random.default_rng(3))
        b = add_measurement_noise(x, spec, 1.0, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestEvents:
    def make_world(self):
        return World(pendulum_nominal(), DisturbanceSignal(), NoiseSpec())

    def test_not_yet_due(self):
        world = self.make_world()
        sched = EventSchedule([Event(20.0, "swap_plant", pendulum_reset_mild())])
        assert apply_event_schedule(sched, 19.999, world) == []
        assert world.plant.name == "pendulum_nominal"

    def test_fires_exactly_once(self):
        world = self.make_world()
        sched = EventSchedule([Event(20.0, "swap_plant", pendulum_reset_mild())])
        fired = apply_event_schedule(sched, 20.0, world)
        assert len(fired) == 1
        assert world.plant.name == "pendulum_reset_mild"
        assert apply_event_schedule(sched, 25.0, world) == []

    def test_empty_schedule(self):
        assert apply_event_schedule(EventSchedule([]), 100.0, self.make_world()) == []

    def test_monotone_times_required(self):
        with pytest.raises(ConfigurationError):
            EventSchedule([Event(5.0, "swap_plant", None),
                           Event(5.0, "swap_plant", None)])

    def test_set_disturbance_and_noise(self):
        world = self.make_world()
        new_d = DisturbanceSignal(kind="vanishing", w1=1.0, w2=1.0)
        new_n = NoiseSpec(kind="gaussian", snr_db=10, t_on=0, t_off=1)
        sched = EventSchedule([Event(1.0, "set_disturbance", new_d),
                               Event(2.0, "set_noise", new_n)])
        apply_event_schedule(sched, 3.0, world)
        assert world.disturbance is new_d
        assert world.noise is new_n
