"""Collect benchmark result sets over many seeds, and compare two of them.

    python3 perfbench/compare.py collect --seeds 0-9 --out base.json \
        [--workload W ...] [--trace 1]
    python3 perfbench/compare.py diff base.json new.json

``collect`` runs perfbench/run.py once per seed and workload with the
BENCHMARK.json run length, and records for every metric its median, its
quartiles (``statistics.quantiles(n=4)``), its sample count and the spread
(q3 - q1) / median, with the environment stamp of the runs. ``diff`` refuses
to compare sets whose backend differs; otherwise it prints each metric's
change against the bound BENCHMARK.json fixes for it.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BACKEND = ("use_numba", "IADP_NO_NUMBA")
# "<workload> <metric> = <value> <unit> (raw <value>)" lines of run.py
RAW = re.compile(r"\S+ (?P<name>\S+) = \S+ \S+ \(raw (?P<raw>\S+)\)$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds() -> dict:
    s = spec()
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines
               if l.startswith("perfbench-env "))
    raw = {m["name"]: float(m["raw"]) for m in map(RAW.match, lines) if m}
    return json.loads(lines[-1]), env, raw


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None, "values": values}


def collect(args):
    s = spec()
    workloads = args.workload or [w["name"] for w in s["workloads"]]
    known = bounds()
    out = {"run_seconds": s["run_seconds"], "trace": args.trace, "env": None,
           "workloads": {}}
    for w in workloads:
        runs, raws = [], []
        for seed in seed_range(args.seeds):
            result, env, raw = run_once(w, seed, s["run_seconds"], args.trace)
            raws.append(raw)
            if out["env"] is None:
                out["env"] = env
            elif any(env[k] != out["env"][k] for k in BACKEND):
                raise SystemExit(f"backend changed between runs: {env}")
            runs.append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             **summarize(values)}
        raw_metrics = {name: summarize([r[name] for r in raws])
                       for name in raws[0]}
        out["workloads"][w] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics,
            "raw": raw_metrics}
        for name, m in metrics.items():
            bound = known.get(name, {}).get("bound")
            flag = "" if bound is None or m["spread"] is None else (
                "  OVER bound" if m["spread"] > bound else
                "  over bound/3" if m["spread"] > bound / 3 else "")
            raw = raw_metrics.get(name)
            raw = "" if raw is None else f", raw spread {raw['spread']:.4f}"
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{w} {name}: median {m['median']:.6g} {m['unit']}, "
                  f"spread {spread} (bound {bound}){flag}{raw}")
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def diff(args):
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    for key in BACKEND:
        if base["env"][key] != new["env"][key]:
            raise SystemExit(f"refusing to compare: backend {key} is "
                             f"{base['env'][key]!r} in {args.base} and "
                             f"{new['env'][key]!r} in {args.new}")
    known = bounds()
    worse = 0
    for w, b in base["workloads"].items():
        n = new["workloads"].get(w)
        if n is None:
            continue
        for name, bm in b["metrics"].items():
            nm = n["metrics"].get(name)
            if nm is None or not bm["median"]:
                continue
            m = known.get(name, {})
            change = nm["median"] / bm["median"] - 1.0
            if m.get("better") == "higher":
                change = -change  # positive change means worse
            verdict = ""
            if m.get("bound") is not None:
                if max(bm["spread"], nm["spread"]) > m["bound"]:
                    verdict = "unresolved (spread over bound)"
                elif change > m["bound"]:
                    verdict, worse = "WORSE than bound", worse + 1
                else:
                    verdict = "within bound"
            print(f"{w} {name}: {bm['median']:.6g} -> {nm['median']:.6g} "
                  f"{bm['unit']} ({-change:+.1%} better) {verdict}")
    return 1 if worse else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--seeds", default="0-9")
    c.add_argument("--workload", action="append")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = p.parse_args(argv)
    return collect(args) if args.command == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
