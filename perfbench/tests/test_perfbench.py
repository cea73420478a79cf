"""The benchmark's own checks: outcome check, hook degradation, self time."""

from types import SimpleNamespace

import numpy as np

import outcome
import spans
import speed
import workload
from iadp import cli
from iadp.sim import SimConfig

ROWS = 80001


def passing_log(cfg):
    """A synthetic full-length log that meets every outcome check for cfg."""
    t = np.arange(ROWS) * cfg.dt
    x = np.zeros((ROWS, 2))
    x[0] = (2.0, -2.0)
    E_u, E_x = outcome.REFERENCE[(cfg.scenario, cfg.controller)]
    return SimpleNamespace(t=t, x_true=x, u=np.full((ROWS, 1), 0.5),
                           E_u=np.full(ROWS, E_u), E_x=np.full(ROWS, E_x),
                           diverged=False, rows=lambda: ROWS)


def test_outcome_check_accepts_the_synthetic_log():
    cfg = SimConfig(scenario="s1", controller="iadp", seed=4)
    assert outcome.check_episode(cfg, passing_log(cfg)) == []


def test_planted_wrong_outcomes_fail_the_check():
    cfg = SimConfig(scenario="s1", controller="iadp", seed=4)
    plants = {
        "max|u|": lambda log: log.u.__setitem__((7, 0), cfg.beta),
        "rows": lambda log: setattr(log, "rows", lambda: ROWS - 1),
        "final-quarter": lambda log: log.x_true.__setitem__((-5, 0), 0.2),
        "final E_x": lambda log: log.E_x.__setitem__(-1, log.E_x[-1] * (1 + 1e-5)),
    }
    for marker, plant in plants.items():
        log = passing_log(cfg)
        plant(log)
        problems = outcome.check_episode(cfg, log)
        assert len(problems) == 1 and marker in problems[0], (marker, problems)


def test_s3_baseline_that_does_not_diverge_fails():
    cfg = SimConfig(scenario="s3", controller="tadp", seed=3)
    problems = outcome.check_episode(cfg, passing_log(cfg))
    assert len(problems) == 1 and "expected divergence" in problems[0]


def test_reference_is_skipped_where_the_seed_matters():
    cfg = SimConfig(scenario="s2", controller="iadp", seed=5)
    log = passing_log(cfg)
    log.E_u[-1] *= 2.0
    assert outcome.check_episode(cfg, log) == []
    cfg.seed = 0
    assert "final E_u" in outcome.check_episode(cfg, log)[0]


def test_manifest_round_trip_and_a_planted_mismatch(tmp_path):
    cfg = cli.parse_config(None, {"scenario": "s3", "sim.seed": 2})
    path = tmp_path / "run.manifest"
    cli.write_manifest(cfg, path, [], 0.0)
    assert outcome.check_manifest(path, {"scenario": "s3", "sim.seed": 2}) == []
    problems = outcome.check_manifest(path, {"scenario": "s3", "sim.seed": 3})
    assert problems and "sim.seed" in problems[0]


def test_missing_hook_target_is_dropped_with_a_note():
    notes = []
    tracer = spans.Tracer()
    original = cli.write_csv
    missing, restore = spans.install(
        tracer, [("cli.renamed", "iadp.cli:no_such_function", None),
                 ("cli.write_csv", "iadp.cli:write_csv", None)], notes.append)
    try:
        assert missing == ["cli.renamed"]
        assert len(notes) == 1 and "iadp.cli:no_such_function" in notes[0]
        assert cli.write_csv is not original and cli.write_csv.__wrapped__ is original
    finally:
        restore()
    assert cli.write_csv is original


def test_layer_metrics_leave_out_a_missing_hook_and_keep_the_rest():
    tracer = spans.Tracer()
    missing = {"learner.try_insert", "plant.add_measurement_noise:result"}
    metrics = workload.layer_metrics(tracer, workload.Counts(), steps=10,
                                     iterations=1, missing=missing)
    assert not any(m.startswith("learner.") for m in metrics)
    assert "plant.noise_active_share" not in metrics
    assert "plant.add_measurement_noise.calls" in metrics
    assert "kernels.pendulum_rk4.share" in metrics


def test_counter_with_an_unexpected_result_is_switched_off():
    counts = workload.Counts()
    insert = counts.guard("learner.try_insert", counts.insert)
    insert((), {}, (True, None))
    insert((), {}, True)  # a result without the (inserted, report) pair
    insert((), {}, (True, None))
    assert counts.accepted == 1
    assert counts.broken == {"learner.try_insert:result"}


def test_self_time_on_a_synthetic_span_set():
    # outer [0, 100] holds a [10, 30] and b [40, 45]; b holds c [41, 44]
    ticks = iter([0, 10, 30, 40, 41, 44, 45, 100])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    c = tracer.wrap("c", lambda: None)
    b = tracer.wrap("b", lambda: c())
    a = tracer.wrap("a", lambda: None)
    outer = tracer.wrap("outer", lambda: (a(), b()))
    outer()
    got = {name: (t.calls, t.total_ns, t.self_ns) for name, t in tracer.totals.items()}
    assert got == {"outer": (1, 100, 75), "a": (1, 20, 20),
                   "b": (1, 5, 2), "c": (1, 3, 3)}


def test_slowdown_divides_out_of_spans():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_NS
    probe.samples = [(10, 2 * ref), (20, ref), (30, 3 * ref)]
    assert probe.slowdown(0, 15) == 2.0
    assert probe.slowdown(15, 40) == 2.0
    assert probe.slowdown(100, 200) == 2.0  # no sample inside: every sample
    episodes = workload.Episodes(speed=probe)
    assert episodes.seconds([(0, 15, 4_000_000_000)]) == [(4.0, 2.0)]
