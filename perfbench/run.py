"""End-to-end and per-layer benchmark of the iadp closed loop.

    python3 perfbench/run.py --workload run-s1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload in turn

Workloads (each a closed loop: one caller starts the next episode only after
the previous one has finished; every episode is 80 s at dt = 1 ms):

- run-s1: ``iadp run --scenario s1 --controller iadp``, one episode plus its
  CSV and manifest. No noise and no events.
- sweep-s2: s2 iadp episodes over consecutive seeds through
  ``scenarios.run_scenario``, in memory, no files. Noise half the episode.
- compare-s3: ``iadp compare --scenario s3`` and then ``iadp plots`` on its
  three CSVs: plant swap, 10 dB noise, two baselines that diverge near 20 s.

Every workload runs in its own fresh interpreter (perfbench/workload.py) with
BLAS threads pinned to 1, one at a time. ``--trace 0`` prints the end-to-end
metrics; set-up is measured in several extra interpreters that stop at the
first episode, and the median is reported. End-to-end times are seconds at a
reference machine speed, measured alongside the work (speed.py explains
why); each line shows the raw figure beside it. ``--trace 1`` runs the
workload untraced and then traced with the same iterations, asserts that
both give bit-identical episode logs, and prints the per-layer metrics, which
are raw. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("run-s1", "sweep-s2", "compare-s3")
SETUP_PROBES = 7
DEADLINE_S = 170.0
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({name: "1" for name in BLAS_THREADS})
    return env


def git_sha():
    """HEAD's commit from the checkout's own .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, seconds: float, out_dir: Path):
        self.seconds = seconds
        self.out_dir = out_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()
        self.spawned = 0

    def child(self, workload, seed, *flags):
        """Run perfbench/workload.py in a fresh interpreter; return its JSON."""
        self.spawned += 1
        out = self.out_dir / f"child{self.spawned}"
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(self.seconds),
               "--out-dir", str(out), *map(str, flags)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a workload process")
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} process exceeded the time limit") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} process exited {proc.returncode}")
        return json.loads(lines[-1])


def check_env(reports) -> dict:
    env = reports[0]["env"]
    for r in reports[1:]:
        if r["env"] != env:
            raise BenchError(f"workload processes ran on different backends: "
                             f"{env} vs {r['env']}")
    return {**env, "git_sha": git_sha()}


def median_pair(pairs):
    """Medians of the raw and the reference-speed members of (raw, ref) pairs."""
    return (statistics.median(p[0] for p in pairs),
            statistics.median(p[1] for p in pairs))


def end_to_end(runner, workload, seed):
    probes = [runner.child(workload, seed, "--probe")["setup_s"]
              for _ in range(SETUP_PROBES)]
    r = runner.child(workload, seed)
    # a run in which no episode or iteration completed reports zeros and fails
    raw_s = sum(p[0] for p in r["episode_s"]) or float("inf")
    ref_s = sum(p[1] for p in r["episode_s"]) or float("inf")
    wall_raw, wall_ref = median_pair(r["wall_s"] or [(0.0, 0.0)])
    setup_raw, setup_ref = median_pair(probes)
    metrics = {  # name: (value, unit, raw value)
        "steps_per_s": (r["steps"] / ref_s, "steps/s", r["steps"] / raw_s),
        "wall_s": (wall_ref, "s", wall_raw),
        "setup_s": (setup_ref, "s", setup_raw),
        "peak_rss_mb": (r["peak_rss_mb"], "MB", None),
    }
    return metrics, [r]


def per_layer(runner, workload, seed):
    plain = runner.child(workload, seed)
    traced = runner.child(workload, seed, "--trace",
                          "--iterations", max(plain["iterations"], 1))
    if traced["digests"] != plain["digests"]:
        traced["problems"].append("traced episode logs differ from the untraced "
                                  "run's")
    metrics = {name: (value, unit, None)
               for name, (value, unit) in traced["layers"].items()}
    if plain["wall_s"] and traced["wall_s"]:
        overhead = median_pair(traced["wall_s"])[0] / median_pair(plain["wall_s"])[0]
        metrics["trace_overhead"] = (overhead - 1.0, "fraction", None)
    return metrics, [plain, traced]


def measure(runner, workload, seed, trace):
    metrics, reports = (per_layer if trace else end_to_end)(runner, workload, seed)
    return {
        "metrics": metrics, "env": check_env(reports),
        "attempted": sum(r["episodes"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "problems": [p for r in reports for p in r["problems"]],
        "iterations": reports[0]["iterations"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "iadp" / "__init__.py").is_file():
        print(f"perfbench: no iadp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    results = {}
    try:
        for w in workloads:
            runner = Runner(args.seconds, out_dir)
            results[w] = measure(runner, w, args.seed, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    envs = {json.dumps(r["env"], sort_keys=True) for r in results.values()}
    for w, r in results.items():
        for problem in r["problems"]:
            print(f"{w} FAIL {problem}")
        print(f"{w}: {r['iterations']} iteration(s), {r['attempted']} episodes, "
              f"{r['failed']} failed")
        for name, (value, unit, raw) in r["metrics"].items():
            note = "" if raw is None else f" (raw {raw:.6g})"
            print(f"{w} {name} = {value:.6g} {unit}{note}")
    for env in envs:
        print(f"perfbench-env {env}")

    prefix = len(results) > 1
    summary = {
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
                    for w, r in results.items()
                    for name, (value, unit, _) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
