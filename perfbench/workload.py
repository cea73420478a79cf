"""One benchmark workload in a fresh interpreter; perfbench/run.py starts it.

    python3 perfbench/workload.py --workload run-s1 --seed 3 --seconds 20 \
        --spawn-ns NS --out-dir DIR [--iterations K] [--trace | --probe]

It repeats whole workload iterations while another one fits in the time
budget (always at least one, exactly K with --iterations), checks every
episode and every CLI output, and prints one JSON object as its last line.
``--spawn-ns`` is the CLOCK_MONOTONIC reading taken just before this process
was started, so set-up time counts interpreter start and imports.
``--probe`` stops at the first episode's entry and reports set-up time only.
Times are reported as [raw, at reference speed] pairs (see speed.py); the
traced run has no speed probe and reports raw times for both.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import iadp
from iadp import cli, scenarios, sim
from iadp.sim import SimConfig

import outcome
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("monomial_grad", "saturated_control", "penalty_sat",
           "weight_derivative_kernel", "pendulum_rk4")
PLANT = ("NoiseState.update", "add_measurement_noise", "disturbance_value",
         "apply_event_schedule")
CLI_IO = ("write_csv", "write_manifest", "read_csv", "emit_plots")


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class SetupReached(Exception):
    """Raised at the first episode's entry in --probe mode."""


class Episodes:
    """Wraps ``iadp.sim.run_episode``: times, checks and fingerprints episodes.

    Episode and iteration times are (start ns, end ns, raw ns) spans, where
    raw excludes the time the speed probe's handler took inside the span.
    """

    def __init__(self, probe=False, speed=None):
        self.probe = probe
        self.speed = speed
        self.first_ns = None  # CLOCK_MONOTONIC at the first episode's entry
        self.iteration = None  # (perf_counter ns, probe time) at its first entry
        self.episode_spans = []
        self.iteration_spans = []
        self.count = 0
        self.failed = 0
        self.steps = 0
        self.problems = []
        self.digests = []
        self.rows = {}

    def clock(self):
        return time.perf_counter_ns(), self.speed.spent_ns if self.speed else 0

    def span(self, start):
        end, spent = self.clock()
        return start[0], end, end - start[0] - (spent - start[1])

    def end_iteration(self):
        self.iteration_spans.append(self.span(self.iteration))
        self.iteration = None

    def wrap(self, run_episode):
        def timed(cfg, *args, **kwargs):
            if self.first_ns is None:
                self.first_ns = monotonic_ns()
            if self.probe:
                raise SetupReached
            start = self.clock()
            if self.iteration is None:
                self.iteration = start
            self.count += 1
            try:
                log = run_episode(cfg, *args, **kwargs)
            except Exception as exc:
                self.failed += 1
                self.problems.append(f"{cfg.scenario}/{cfg.controller}/"
                                     f"seed{cfg.seed}: raised {exc!r}")
                raise
            self.episode_spans.append(self.span(start))
            self.steps += log.rows()
            self.rows[(cfg.scenario, cfg.controller, cfg.seed)] = log.rows()
            problems = outcome.check_episode(cfg, log)
            self.failed += bool(problems)
            self.problems += problems
            self.digests.append(fingerprint(log))
            return log
        return timed

    def seconds(self, spans):
        """(raw, at reference speed) seconds of each span."""
        return [(raw / 1e9, raw / 1e9 / (self.speed.slowdown(start, end)
                                         if self.speed else 1.0))
                for start, end, raw in spans]


def fingerprint(log) -> str:
    """sha256 over every logged array and flag, excluding the wall clock."""
    h = hashlib.sha256()
    for name, value in sorted(vars(log).items()):
        if name == "wall_time":
            continue
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def run_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def csv_rows(path) -> int:
    """Data rows of a trajectory CSV: lines minus the schema and header lines."""
    return Path(path).read_bytes().count(b"\n") - 2


# Each workload runs one iteration in ``out`` and returns a function that
# verifies the iteration's outputs; verification runs outside the timing.

def run_s1(seed, index, out, episodes):
    rc = run_cli("run", "--scenario", "s1", "--controller", "iadp",
                 "--seed", seed, "--out-dir", out)

    def verify():
        stem = f"s1_iadp_seed{seed}"
        problems = [] if rc == 0 else [f"iadp run exited {rc}"]
        want = episodes.rows.get(("s1", "iadp", seed))
        if csv_rows(out / f"{stem}.csv") != want:
            problems.append(f"{stem}.csv does not hold the episode's {want} rows")
        return problems + outcome.check_manifest(
            out / f"{stem}.manifest",
            {"scenario": "s1", "controller": "iadp", "sim.seed": seed})
    return verify


def sweep_s2(seed, index, out, episodes):
    # one episode per iteration, so the sweep covers consecutive seeds
    scenarios.run_scenario(SimConfig(scenario="s2", controller="iadp",
                                     seed=seed + index))
    return lambda: []


def compare_s3(seed, index, out, episodes):
    rc = run_cli("compare", "--scenario", "s3", "--seed", seed, "--out-dir", out)
    stems = [f"s3_{c}_seed{seed}" for c in ("iadp", "zsadp", "tadp")]
    plots = out / "plots"
    rc_plots = run_cli("plots", *(out / f"{s}.csv" for s in stems),
                       "--out-dir", plots)

    def verify():
        problems = []
        if rc != 2:
            problems.append(f"iadp compare exited {rc}, expected 2 "
                            f"(both baselines diverge)")
        if rc_plots != 0:
            problems.append(f"iadp plots exited {rc_plots}")
        for stem in stems:
            want = episodes.rows.get(("s3", stem.split("_")[1], seed))
            if csv_rows(out / f"{stem}.csv") != want:
                problems.append(f"{stem}.csv does not hold the episode's {want} rows")
            for fig in cli.FIGURES:
                dat = plots / f"{stem}_{fig}.dat"
                if not (dat.is_file() and dat.stat().st_size > 0):
                    problems.append(f"plot data {dat.name} missing or empty")
        return problems + outcome.check_manifest(
            out / f"s3_compare_seed{seed}.manifest",
            {"scenario": "s3", "sim.seed": seed})
    return verify


WORKLOADS = {"run-s1": run_s1, "sweep-s2": sweep_s2, "compare-s3": compare_s3}


class Counts:
    """Outcome counters read from hooked calls' arguments and results.

    A counter whose call no longer has the expected arguments or result is
    switched off with a printed note; its metric is then left out.
    """

    def __init__(self):
        self.noise_active = 0
        self.events = 0
        self.accepted = 0
        self.bytes = {"cli.write_csv": 0, "cli.read_csv": 0}
        self.broken = set()

    def guard(self, span, fn):
        key = f"{span}:result"

        def count(args, kwargs, result):
            if key in self.broken:
                return
            try:
                fn(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                self.broken.add(key)
                print(f"perfbench: cannot read {span} arguments or result "
                      f"({exc!r}); dropping its derived metrics", file=sys.stderr)
        return count

    def noise(self, args, kwargs, result):
        spec, t = args[1], args[2]
        self.noise_active += spec.kind != "none" and spec.t_on <= t < spec.t_off

    def fired(self, args, kwargs, result):
        self.events += len(result)

    def insert(self, args, kwargs, result):
        self.accepted += bool(result[0])

    def written(self, args, kwargs, result):
        self.bytes["cli.write_csv"] += os.path.getsize(args[1])

    def read(self, args, kwargs, result):
        self.bytes["cli.read_csv"] += os.path.getsize(args[0])


def hooks(counts):
    """(span name, target looked up by the caller, result callback)."""
    table = [("sim.run_episode", "iadp.sim:run_episode", None),
             ("sim.rk4_step", "iadp.sim:rk4_step", None),
             ("plant.NoiseState.update", "iadp.plant:NoiseState.update", None),
             ("plant.add_measurement_noise", "iadp.sim:add_measurement_noise",
              counts.noise),
             ("plant.disturbance_value", "iadp.sim:disturbance_value", None),
             ("plant.apply_event_schedule", "iadp.sim:apply_event_schedule",
              counts.fired),
             ("learner.try_insert", "iadp.sim:try_insert", counts.insert),
             ("scenarios.build_world", "iadp.scenarios:build_world", None),
             ("cli.parse_config", "iadp.cli:parse_config", None),
             ("cli.write_csv", "iadp.cli:write_csv", counts.written),
             ("cli.write_manifest", "iadp.cli:write_manifest", None),
             ("cli.read_csv", "iadp.cli:read_csv", counts.read),
             ("cli.emit_plots", "iadp.cli:emit_plots", None)]
    table += [(f"kernels.{k}", f"iadp.kernels:{k}", None) for k in KERNELS]
    return [(name, target, fn and counts.guard(name, fn))
            for name, target, fn in table]


def layer_metrics(tracer, counts, steps, iterations, missing):
    """Per-layer metrics as {name: [value, unit]}.

    Counts and seconds are per workload iteration. A metric is left out when
    a span or result counter it needs is in ``missing``.
    """
    def per_call(name):
        t = tracer.get(name)
        return t.total_ns / t.calls if t.calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(name):
        return tracer.get(name).calls / iterations

    episode = tracer.get("sim.run_episode")
    rows = []  # (metric, value, unit, spans and counters it needs)
    for k in KERNELS:
        name = f"kernels.{k}"
        rows += [(f"{name}.calls", calls(name), "count", (name,)),
                 (f"{name}.ns_per_call", per_call(name), "ns", (name,)),
                 (f"{name}.share", ratio(tracer.get(name).total_ns, episode.total_ns),
                  "fraction", (name, "sim.run_episode"))]
    rows += [("sim.self_ns_per_step", ratio(episode.self_ns, steps), "ns/step",
              ("sim.run_episode",)),
             ("sim.rk4_step.calls", calls("sim.rk4_step"), "count", ("sim.rk4_step",))]
    for p in PLANT:
        name = f"plant.{p}"
        rows += [(f"{name}.calls", calls(name), "count", (name,)),
                 (f"{name}.ns_per_call", per_call(name), "ns", (name,))]
    noise, events = "plant.add_measurement_noise", "plant.apply_event_schedule"
    insert = "learner.try_insert"
    rows += [("plant.noise_active_share",
              ratio(counts.noise_active, tracer.get(noise).calls), "fraction",
              (noise, f"{noise}:result")),
             ("plant.events_fired", counts.events / iterations, "count",
              (events, f"{events}:result")),
             (f"{insert}.calls", calls(insert), "count", (insert,)),
             (f"{insert}.ns_per_call", per_call(insert), "ns", (insert,)),
             ("learner.accept_ratio", ratio(counts.accepted, tracer.get(insert).calls),
              "fraction", (insert, f"{insert}:result"))]
    for name in ("scenarios.build_world", "cli.parse_config"):
        rows.append((f"{name}.ns", per_call(name), "ns", (name,)))
    for c in CLI_IO:
        name = f"cli.{c}"
        rows.append((f"{name}.s", tracer.get(name).total_ns / iterations / 1e9, "s",
                     (name,)))
    for name, nbytes in counts.bytes.items():
        # computed: the files' sizes over the call time, not measured I/O
        seconds = tracer.get(name).total_ns / 1e9
        rows.append((f"{name}.mb_per_s", ratio(nbytes / 1e6, seconds),
                     "MB/s-computed", (name, f"{name}:result")))
    return {metric: [value, unit] for metric, value, unit, needs in rows
            if not missing.intersection(needs)}


def environment() -> dict:
    try:
        from iadp import kernels
        use_numba = bool(getattr(kernels, "USE_NUMBA", False))
    except ImportError:
        use_numba = False
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"use_numba": use_numba,
            "IADP_NO_NUMBA": os.environ.get("IADP_NO_NUMBA"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--iterations", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    source = Path(iadp.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"perfbench: iadp imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3

    tracer, counts, missing = spans.Tracer(), Counts(), []
    if args.trace:
        missing, _ = spans.install(tracer, hooks(counts))
    # the traced run reports raw times only, so its spans hold no probe time
    probe = None if args.trace or args.probe else speed.SpeedProbe()
    episodes = Episodes(probe=args.probe, speed=probe)
    sim.run_episode = episodes.wrap(sim.run_episode)

    work = WORKLOADS[args.workload]
    iteration_problems = []
    begin = time.perf_counter_ns()
    index = 0
    with probe or contextlib.nullcontext():
        while True:
            out = args.out_dir / f"iteration{index}"
            out.mkdir(parents=True)
            try:
                verify = work(args.seed, index, out, episodes)
                episodes.end_iteration()
                iteration_problems += verify()
            except SetupReached:
                raw = (episodes.first_ns - args.spawn_ns) / 1e9
                slowdown = speed.SpeedProbe().setup_slowdown()
                print(json.dumps({"setup_s": [raw, raw / slowdown]}))
                return 0
            except Exception as exc:  # an episode or CLI call raised: report, stop
                iteration_problems.append(f"iteration {index} raised {exc!r}")
                break
            finally:
                shutil.rmtree(out, ignore_errors=True)
            index += 1
            elapsed = time.perf_counter_ns() - begin
            if args.iterations is not None:
                if index >= args.iterations:
                    break
            elif elapsed + elapsed / index > args.seconds * 1e9:
                break

    result = {
        "iterations": index,
        "episodes": episodes.count, "failed": episodes.failed,
        "problems": episodes.problems + iteration_problems,
        "steps": episodes.steps,
        "episode_s": episodes.seconds(episodes.episode_spans),
        "wall_s": episodes.seconds(episodes.iteration_spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digests": episodes.digests, "env": environment(),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, counts, episodes.steps,
                                         max(index, 1), set(missing) | counts.broken)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
