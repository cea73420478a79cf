import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iadp import checks, kernels
from iadp.plant import (NOISE_BLOCK_ROWS, ConfigurationError, DisturbanceSignal, Event,
                        NoiseSpec, NoiseState, World, add_measurement_noise,
                        apply_event_schedule)
from iadp.scenarios import WORLDS
from iadp.sim import SimConfig

NOMINAL_PLANT = WORLDS["s1"].plant
NOMINAL = NOMINAL_PLANT.params


class TestEvalDynamics:
    """The plant's dynamics as ``kernels.pendulum_rhs`` evaluates them."""

    def test_pendulum_drift(self):
        # f entries at x=[2,-2]: [-2, -4.9*sin(2) + 0.4]
        out = kernels.pendulum_rhs(2.0, -2.0, 0.0, NOMINAL, 0.0)
        assert np.allclose(out, [-2.0, -4.9 * np.sin(2.0) + 0.4], atol=1e-12)
        assert np.allclose(out, [-2.0, -4.055564], atol=1e-6)

    def test_equilibrium(self):
        out = kernels.pendulum_rhs(0.0, 0.0, 0.0, NOMINAL, 0.0)
        assert np.array_equal(out, [0.0, 0.0])

    def test_input_column(self):
        out = kernels.pendulum_rhs(0.0, 0.0, 1.0, NOMINAL, 0.0)
        assert np.allclose(out, [0.0, 0.25], atol=1e-15)

    def test_dimension_mismatch(self):
        # consistent set-ups with 3 states, or with 2 inputs, against the
        # plant's 2 states and one input are refused by the config
        three_states = dict(
            basis_exponents=np.array([[2, 0, 0], [1, 1, 0], [0, 2, 0],
                                      [0, 0, 2], [1, 0, 1], [0, 1, 1]]),
            x0=np.array([2.0, -2.0, 0.0]), g_bar=[[0.0], [0.1], [0.0]], Q=1.0, t_end=1.0)
        two_inputs = dict(g_bar=[[1.0, 0.0], [0.0, 0.1]], t_end=1.0)
        for kwargs, message in (
                (three_states, "basis exponents must have 2 columns, got 3"),
                (two_inputs, r"g_bar must hold 2 values, got \[\[1.0, 0.0\], \[0.0, 0.1\]\]")):
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                SimConfig(**kwargs)

    def test_affine_in_u(self, rng):
        # k d at rest, with the body's square wave d = 0.3 on [0, 1)
        dist = DisturbanceSignal(amplitude=0.3, period=2.0, t_on=0.0, t_off=10.0).packed()
        d = kernels.disturbance_value(0.0, 0.0, dist, 0.5)
        assert np.allclose(kernels.pendulum_rhs(0.0, 0.0, 0.0, NOMINAL, d),
                           [0.3, -0.06], atol=1e-15)
        assert checks.plant_affine_defect(rng) < checks.plant_affine_defect.tol


def d_at(sig, x, t):
    """``kernels.disturbance_value`` of sig at state x and time t."""
    return kernels.disturbance_value(*x, sig.packed(), t)


def tracked(x, rng):
    """A NoiseState on rng that has seen x once, so its mean square is x**2."""
    state = NoiseState(rng)
    state.update(x)
    return state


class TestDisturbance:
    """The one disturbance, as ``kernels.disturbance_value`` evaluates it."""

    def test_vanishing_value(self):
        sig = DisturbanceSignal(w1=-0.3906, w2=1.0051)
        d = d_at(sig, [2.0, -2.0], 0.0)
        assert d == pytest.approx(-0.3906 * 2.0 * np.sin(-2.0102), abs=1e-12)
        assert d == pytest.approx(0.70699, abs=1e-5)

    def test_vanishing_zero_angle(self):
        sig = DisturbanceSignal(w1=0.5, w2=1.7)
        assert d_at(sig, [0.0, 3.0], 1.0) == 0.0

    def test_vanishing_bound(self, rng):
        assert checks.vanishing_bound_defect(rng) < checks.vanishing_bound_defect.tol

    def test_square_wave(self):
        sig = DisturbanceSignal(amplitude=0.2, period=5.0, t_on=20.0, t_off=60.0)
        assert d_at(sig, [0, 0], 21.0) == 0.2
        assert d_at(sig, [0, 0], 23.5) == -0.2
        assert d_at(sig, [0, 0], 10.0) == 0.0
        assert d_at(sig, [0, 0], 60.0) == 0.0

    def test_square_wave_zero_mean(self, rng):
        error = checks.square_wave_mean_error(rng, amplitude=0.5)
        assert error < checks.square_wave_mean_error.tol

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DisturbanceSignal(amplitude=1, period=0.0, t_on=0, t_off=1)
        with pytest.raises(ConfigurationError):
            DisturbanceSignal(amplitude=1, period=1.0, t_on=2, t_off=1)


class TestNoise:
    def test_none_is_identity(self, rng):
        x = np.array([1.0, 2.0])
        out = add_measurement_noise(x, NoiseSpec(kind="none"), 0.0, tracked(x, rng))
        assert np.array_equal(out, x)

    def test_window_gate(self, rng):
        spec = NoiseSpec(kind="gaussian", snr_db=10, t_on=20, t_off=60)
        x = np.array([1.0, 2.0])
        assert np.array_equal(add_measurement_noise(x, spec, 5.0, tracked(x, rng)), x)
        assert not np.array_equal(add_measurement_noise(x, spec, 30.0, tracked(x, rng)), x)

    def test_snr_power_ratio(self):
        # 50 dB vs 10 dB on the same clean state: noise power ratio ~40 dB.
        # Each SNR draws 2,000 samples from its own generator, so the ratio
        # measures the drawn powers (39.99 dB) and not only the scale, as one
        # stream scaled twice would (exactly 40 dB)
        x = np.array([1.0, 1.0])
        powers = {}
        for snr, seed in ((50.0, 0), (10.0, 1)):
            spec = NoiseSpec(kind="gaussian", snr_db=snr, t_on=0.0, t_off=1e9)
            state = tracked(x, np.random.default_rng(seed))
            noise = np.array([
                add_measurement_noise(x, spec, 1.0, state)[0] - x[0]
                for _ in range(2_000)])
            powers[snr] = np.var(noise)
        ratio_db = 10 * np.log10(powers[10.0] / powers[50.0])
        assert ratio_db == pytest.approx(40.0, abs=1.0)

    def test_seed_reproducibility(self, rng):
        defect = checks.noise_determinism_defect(rng, snr_db=20.0, seed=3)
        assert defect < checks.noise_determinism_defect.tol

    @given(seed=st.integers(0, 2**32 - 1),
           count=st.integers(NOISE_BLOCK_ROWS + 1, 2 * NOISE_BLOCK_ROWS + 1))
    def test_blocked_stream_is_the_per_call_stream(self, seed, count):
        # every count crosses a block boundary, and the largest a second one
        state, per_call = NoiseState(np.random.default_rng(seed)), np.random.default_rng(seed)
        blocked = np.array([state.normals() for _ in range(count)])
        drawn = np.array([per_call.standard_normal(2) for _ in range(count)])
        assert blocked.shape == (count, 2) and blocked.tobytes() == drawn.tobytes()

    def test_no_block_before_the_window(self):
        spec = NoiseSpec(kind="gaussian", snr_db=10, t_on=20, t_off=60)
        state, x = NoiseState(np.random.default_rng(4)), (1.0, 2.0)
        for t in np.arange(0.0, 20.0, 0.5):
            state.update(x)
            assert add_measurement_noise(x, spec, t, state) is x
        assert state.rng.bit_generator.state == np.random.default_rng(4).bit_generator.state

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
    def test_nonfinite_snr_refused(self, snr_db):
        with pytest.raises(ConfigurationError, match="snr_db"):
            NoiseSpec(kind="gaussian", snr_db=snr_db, t_on=0.0, t_off=1.0)

    def test_scale_is_derived_not_a_field(self):
        spec = NoiseSpec(kind="gaussian", snr_db=10.0, t_on=20.0, t_off=60.0)
        assert spec.scale == 10.0 ** (-10.0 / 20.0)
        assert "scale" not in {f.name for f in fields(NoiseSpec)}
        assert replace(spec, snr_db=50.0).scale == 10.0 ** (-50.0 / 20.0)

    def test_inverted_window_refused(self):
        with pytest.raises(ConfigurationError, match="t_on <= t_off"):
            NoiseSpec(kind="gaussian", snr_db=10.0, t_on=60.0, t_off=20.0)


class TestEvents:
    SWAP = WORLDS["s2"].events[0]

    def test_not_yet_due(self):
        assert apply_event_schedule((self.SWAP,), 19.998, 19.999) == []

    def test_fires_exactly_once(self):
        # the engine's step windows: (i dt, (i + 1) dt], unbounded below on
        # step 0; each event fires on the first step landing on or past it
        early = Event(0.0005, NOMINAL_PLANT)
        events, dt = (early, self.SWAP), 1e-3
        fired = {i: apply_event_schedule(events, i * dt if i else -math.inf, (i + 1) * dt)
                 for i in range(20010)}
        assert {i: f for i, f in fired.items() if f} == {0: [early], 19999: [self.SWAP]}

    def test_empty_schedule(self):
        assert apply_event_schedule((), -math.inf, 100.0) == []

    def test_monotone_times_required(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            World(NOMINAL_PLANT, DisturbanceSignal(), NoiseSpec(),
                  (Event(5.0, NOMINAL_PLANT), Event(5.0, self.SWAP.plant)))
