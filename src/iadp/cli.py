"""Command-line front end: scenario runs, three-way comparisons, property
checks, and plot-script emission.

Config files are flat ``key = value`` text with dotted section keys; arrays
are bracketed comma lists (``[[1,0],[0,1]]`` for matrices). Flags override
file values. Every run writes the trajectory CSV plus a manifest that parses
back to the identical resolved config.

Exit codes: 0 ok, 1 input error (a bad flag, config value or file path,
or a log too large to allocate, reported on one stderr line), 2 episode
divergence (``run`` names the log's stop cause), 3 property-check failure,
4 engine fault (a broken invariant such as |u| > beta, reported with its
time and values).
"""

import argparse
import contextlib
import dataclasses
import fcntl
import itertools
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .plant import ConfigurationError
from .scenarios import WORLDS, run_scenario
from .sim import CONTROLLERS, LOG_CHUNK_ROWS, XDOT_SOURCES, SimConfig, TrajectoryLog

CSV_SCHEMA_VERSION = 1

# config key -> SimConfig field; SimConfig converts and checks the values
CONFIG_KEYS = {
    "scenario": "scenario",
    "controller": "controller",
    "sim.dt": "dt",
    "sim.t_end": "t_end",
    "sim.seed": "seed",
    "sim.xdot_source": "xdot_source",
    "init.x0": "x0",
    "tde.g_bar": "g_bar",
    "cost.Q": "Q",
    "cost.beta": "beta",
    "cost.c_bar": "c_bar",
    "learner.Gamma": "Gamma",
    "learner.k_c": "k_c",
    "learner.k_e": "k_e",
    "learner.P": "buffer_size",
    "basis.exponents": "basis_exponents",
}


def _parse_scalar(text: str):
    t = text.strip()
    for number in (int, float):
        with contextlib.suppress(ValueError):
            return number(t)
    return t


def _parse_value(text: str):
    """Parse a config value: scalar, [a, b, c], or [[..],[..]]."""
    t = text.strip()
    if not t.startswith("["):
        return _parse_scalar(t)
    # split the top bracket level on commas
    if not t.endswith("]"):
        raise ConfigurationError(f"unbalanced brackets in {text!r}")
    inner = t[1:-1]
    if not inner.strip():
        return []
    parts, depth, cur = [], 0, []
    for ch in inner:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if not all(p.strip() for p in parts):
        raise ConfigurationError(f"empty list element in {text!r}")
    return [_parse_value(p) for p in parts]


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, str):
        return v
    return "[" + ", ".join(_format_value(e) for e in np.asarray(v)) + "]"


def read_config_file(path) -> dict:
    """Read a flat key=value config file into a {key: raw_value} dict."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        out[key.strip()] = _parse_value(raw)
    return out


def parse_config(path=None, overrides: dict | None = None) -> SimConfig:
    """Resolve a SimConfig from an optional file plus override pairs: the
    parsed values go to one SimConfig construction, which converts and
    checks them; a key left out keeps its default."""
    raw = read_config_file(path) if path else {}
    for k, v in (overrides or {}).items():
        raw[k] = _parse_value(v) if isinstance(v, str) else v
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
    return SimConfig(**{CONFIG_KEYS[key]: value for key, value in raw.items()})


def config_dict(cfg: SimConfig) -> dict:
    """The resolved config as canonical {config key: value} pairs."""
    return {key: getattr(cfg, name) for key, name in CONFIG_KEYS.items()}


def csv_header(N: int) -> str:
    """The column names for N critic weights; the plant's one input keeps
    schema v1's _1 suffix."""
    return ",".join(["t", "x_true_1", "x_true_2", "x_meas_1", "x_meas_2", "u_1", "du_1",
                     *(f"w_{k+1}" for k in range(N)),
                     "theta_tilde", "xi_1", "d", "E_u", "E_x", "rank"])


# the CSV writer's pipe, whose rows the child still has to format when the
# episode ends; a send waits only while it is full. 1 MiB is Linux's default
# pipe-max-size, the most an unprivileged process may set; at 256 KiB the
# blocking sends made the 80 s s1 episode 6-8% slower (2 vCPUs)
CSV_PIPE_BYTES = 1 << 20


def _csv_lines(rows: np.ndarray) -> str:
    """CSV lines of an engine block of rows, a column at a time; ``repr`` of
    a Python float is its shortest round-trip decimal, and the rank, last,
    is written as an integer. A block whose x_meas holds x_true's bits, as
    wherever noise is off, reuses x_true's text: the bits decide, so -0.0
    never takes 0.0's text."""
    *cols, ranks = rows.T.tolist()
    same = np.array_equal(rows[:, 1:3].view(np.int64), rows[:, 3:5].view(np.int64))
    text = [list(map(repr, col)) for col in (cols[:3] + cols[5:] if same else cols)]
    if same:
        text[3:3] = text[1:3]
    text.append(list(map(str, map(int, ranks))))
    return "\n".join([*map(",".join, zip(*text)), ""])


@contextlib.contextmanager
def csv_writer(path, N: int):
    """Write a trajectory CSV at ``path``, with N critic weights, while the
    caller produces its rows; a forked child formats them all.

    Yields ``send(rows)``, which hands the writer a C-contiguous (k, C)
    float64 array of rows, every ``TrajectoryLog.ARRAYS`` column in order
    and the rank last as an exact float: ``run_episode``'s ``on_rows``
    blocks. The caller sends every row once, in order. ``send`` writes the
    array's bytes to the pipe, waiting only while the pipe is full; its
    write loop also finishes a write that a signal cut short. The child
    writes the schema line and the header, then reads LOG_CHUNK_ROWS rows,
    one engine block, at a time and formats each with ``_csv_lines`` into a
    temporary file beside ``path``: formatting the floats, at most one
    ``repr`` each, is the CSV's cost.

    When the with-block ends, this process closes the pipe, waits for the
    child and, once the child has exited 0, moves the file onto ``path``,
    so a CSV at ``path`` is whole. On every other path the child is reaped
    (killed first unless it has already stopped reading), the temporary
    file is removed and the exception goes on: an OSError that names the
    child's exit status if the child failed. The child runs no BLAS and
    leaves only through ``os._exit``, so it flushes none of this process's
    buffers and runs none of its exit handlers.
    """
    path = Path(path)
    header = csv_header(N)
    columns = header.count(",") + 1
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    read_end, write_end = os.pipe()
    pid = None
    try:
        with open(write_end, "wb", buffering=0) as pipe:
            with open(read_end, "rb") as src, open(part, "w") as f:
                fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, CSV_PIPE_BYTES)
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        pipe.close()
                        f.write(f"# iadp csv schema v{CSV_SCHEMA_VERSION}\n{header}\n")
                        while data := src.read(LOG_CHUNK_ROWS * columns * 8):
                            f.write(_csv_lines(np.frombuffer(data).reshape(-1, columns)))
                        f.close()
                        code = 0
                    finally:
                        os._exit(code)

            def send(rows):
                data = memoryview(rows).cast("B")
                while data:
                    data = data[os.write(write_end, data):]

            try:
                yield send
            except BrokenPipeError:
                # the child stopped reading, so it has exited: say why
                status, pid = os.waitpid(pid, 0)[1], None
                raise OSError(f"{path}: the CSV writer process exited with status "
                              f"{os.waitstatus_to_exitcode(status)}") from None
        status, pid = os.waitpid(pid, 0)[1], None
        if code := os.waitstatus_to_exitcode(status):
            raise OSError(f"{path}: the CSV writer process exited with status {code}")
        os.replace(part, path)
    except BaseException:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        part.unlink(missing_ok=True)
        raise


def write_csv(log: TrajectoryLog, path) -> None:
    """Trajectory CSV of a finished log, floats as shortest round-trip
    decimals.

    The log's arrays, stacked into rows, go in one ``send`` through
    ``csv_writer``, which ``iadp run`` and ``compare`` stream their
    episodes' blocks into, so a log gives the same bytes either way; here
    the child formats the whole log after the fact.
    """
    with csv_writer(path, log.w.shape[1]) as send:
        send(np.column_stack([getattr(log, name) for name in TrajectoryLog.ARRAYS]))


def read_csv(path):
    """Read a trajectory CSV back into (column name -> array)."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(names)}


def write_manifest(cfg: SimConfig, path, outputs: list, duration: float) -> None:
    lines = [
        f"# iadp run manifest, software version {__version__}",
        f"# outputs: {', '.join(str(o) for o in outputs)}",
        f"# wall_clock_s: {duration:.3f}",
    ]
    for key, value in config_dict(cfg).items():
        lines.append(f"{key} = {_format_value(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _resolved_cfg(args) -> SimConfig:
    overrides = {}
    for item in args.override or []:
        if "=" not in item:
            raise ConfigurationError(f"--override expects key=value, got {item!r}")
        k, _, v = item.partition("=")
        overrides[k.strip()] = v.strip()
    # dedicated flags win over file values; --override wins over both
    flag_map = {
        "scenario": args.scenario, "controller": getattr(args, "controller", None),
        "sim.seed": args.seed, "sim.dt": args.dt, "sim.t_end": args.t_end,
        "sim.xdot_source": args.xdot_source,
    }
    merged = {k: v for k, v in flag_map.items() if v is not None}
    merged.update(overrides)
    return parse_config(args.config, merged)


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("IADP_OUT_DIR") or "runs"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_to_csv(cfg: SimConfig, out: Path):
    """Run cfg's episode, its trajectory CSV written into ``out`` while it
    runs; returns (log, CSV path)."""
    csv_path = out / f"{cfg.scenario}_{cfg.controller}_seed{cfg.seed}.csv"
    with csv_writer(csv_path, cfg.basis.N) as on_rows:
        log = run_scenario(cfg, on_rows)
    return log, csv_path


def cmd_run(args) -> int:
    cfg = _resolved_cfg(args)
    out = _out_dir(args)
    t0 = time.perf_counter()
    log, csv_path = run_to_csv(cfg, out)
    write_manifest(cfg, csv_path.with_suffix(".manifest"), [csv_path],
                   time.perf_counter() - t0)
    status = f"diverged ({log.stop_cause})" if log.diverged else "completed"
    print(f"{csv_path.stem}: {status}, rows={log.rows()}, "
          f"E_u={log.E_u[-1]:.6g}, E_x={log.E_x[-1]:.6g} -> {csv_path}")
    return 2 if log.diverged else 0


def cmd_compare(args) -> int:
    # compare sets each controller itself; its manifest records the default
    cfg = dataclasses.replace(_resolved_cfg(args), controller=SimConfig.controller)
    out = _out_dir(args)
    t0 = time.perf_counter()
    results = {}
    csvs = []
    for ctrl in ("iadp", "zsadp", "tadp"):
        results[ctrl], csv_path = run_to_csv(dataclasses.replace(cfg, controller=ctrl), out)
        csvs.append(csv_path)

    summary = [f"# compare {cfg.scenario}, seed {cfg.seed}",
               "controller,E_u,E_x,diverged,diverged_t"]
    for ctrl, log in results.items():
        dt_at = log.t[-1] if log.diverged else ""
        summary.append(f"{ctrl},{float(log.E_u[-1])!r},{float(log.E_x[-1])!r},"
                       f"{int(log.diverged)},{dt_at}")
    iadp_eu = results["iadp"].E_u[-1]
    for base in ("zsadp", "tadp"):
        # iadp's E_u is 0 when its u stays 0 (inside warm-up, say): inf or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = results[base].E_u[-1] / iadp_eu
        summary.append(f"# E_u ratio {base}/iadp: {ratio:.4g}")
    spath = out / f"{cfg.scenario}_compare_seed{cfg.seed}.csv"
    spath.write_text("\n".join(summary) + "\n")
    write_manifest(cfg, out / f"{cfg.scenario}_compare_seed{cfg.seed}.manifest",
                   csvs + [spath], time.perf_counter() - t0)
    print("\n".join(summary))
    print(f"-> {spath}")
    return 2 if any(log.diverged for log in results.values()) else 0


def cmd_check(args) -> int:
    from .checks import run_all
    if args.seed < 0:
        raise ConfigurationError("--seed must be >= 0")
    results = run_all(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 3 if failed else 0


FIGURES = {
    "weights": (["w_"], "critic weights"),
    "states": (["x_true_", "x_meas_"], "states"),
    "controls": (["u_", "du_"], "controls"),
    "metrics": (["E_u", "E_x"], "accumulated metrics"),
}


def _figure_columns(path, names) -> dict:
    """{figure: the CSV column indices it plots}, the time column first."""
    if "t" not in names:
        raise ConfigurationError(f"{path}: no time column t")
    cols = {}
    for fig, (prefixes, _) in FIGURES.items():
        picked = [j for j, c in enumerate(names)
                  if any(c == p or c.startswith(p) for p in prefixes)]
        if not picked:
            raise ConfigurationError(
                f"{path}: no columns matching {prefixes} for figure {fig}")
        cols[fig] = [names.index("t")] + picked
    return cols


def _write_figure_data(path, out: Path, stem: str) -> dict:
    """Copy each figure's columns of a trajectory CSV into its .dat file.

    The fields pass through as the CSV's text, so each value keeps its
    shortest round-trip decimal. LOG_CHUNK_ROWS lines at a time become one
    flat list of fields, and each figure takes its columns from it as
    slices. A row whose field count is not the header's is a configuration
    error. Returns {figure: column names after t}.
    """
    with open(path) as src:
        names = next((ln for ln in src if ln != "\n" and ln[0] != "#"),
                     "").rstrip("\n").split(",")
        cols = _figure_columns(path, names)
        k = len(names)
        with contextlib.ExitStack() as stack:
            sinks = []
            for fig, idx in cols.items():
                f = stack.enter_context(open(out / f"{stem}_{fig}.dat", "w"))
                f.write("# " + " ".join(names[j] for j in idx) + "\n")
                sinks.append((f, idx))
            while block := list(itertools.islice(src, LOG_CHUNK_ROWS)):
                block[-1] = block[-1].rstrip("\n") + "\n"  # the file may end without it
                lines = [ln for ln in block if ln != "\n" and ln[0] != "#"]
                fields = ",".join(lines).split(",") if lines else []
                ends = fields[k - 1::k]  # where k fields to a row put every newline
                if len(fields) != k * len(lines) or "".join(ends).count("\n") != len(lines):
                    raise ConfigurationError(
                        f"{path}: a row does not have the header's {k} fields")
                fields[k - 1::k] = map(str.rstrip, ends, itertools.repeat("\n"))
                for f, idx in sinks:
                    f.write("\n".join([*map(" ".join, zip(*[fields[j::k] for j in idx])), ""]))
    return {fig: [names[j] for j in idx[1:]] for fig, idx in cols.items()}


def emit_plots(log_paths, out_dir) -> list:
    """Write per-figure data files plus gnuplot scripts for each log.

    With multiple logs an extra overlay figure compares their E_u curves. A
    log whose copy fails (a ragged row, say) leaves none of its data files,
    so no truncated one passes for complete; earlier logs' files stay.
    """
    stems = {}
    for path in log_paths:
        stem = Path(path).stem
        if stem in stems:
            raise ConfigurationError(f"two logs share the stem {stem!r} ({stems[stem]}, "
                                     f"{path}); their plot files would overwrite each other")
        stems[stem] = path
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, path in stems.items():
        try:
            figures = _write_figure_data(path, out, stem)
        except BaseException:
            for fig in FIGURES:
                (out / f"{stem}_{fig}.dat").unlink(missing_ok=True)
            raise
        for fig, (_, title) in FIGURES.items():
            dat = out / f"{stem}_{fig}.dat"
            gp = out / f"{stem}_{fig}.gp"
            plot_cmds = ", ".join(
                f"'{dat.name}' using 1:{j+2} with lines title '{c}'"
                for j, c in enumerate(figures[fig]))
            gp.write_text(
                f"set title '{stem}: {title}'\nset xlabel 't [s]'\n"
                f"set terminal pngcairo\nset output '{stem}_{fig}.png'\n"
                f"plot {plot_cmds}\n")
            written += [dat, gp]
    if len(stems) > 1:
        gp = out / "compare_E_u.gp"
        cmds = []
        for stem in stems:
            dat = out / f"{stem}_metrics.dat"
            idx = 2  # E_u is the first metrics column
            cmds.append(f"'{dat.name}' using 1:{idx} with lines title '{stem}'")
        gp.write_text(
            "set title 'control energy comparison'\nset xlabel 't [s]'\n"
            "set terminal pngcairo\nset output 'compare_E_u.png'\n"
            "plot " + ", ".join(cmds) + "\n")
        written.append(gp)
    return written


def cmd_plots(args) -> int:
    out = _out_dir(args)
    written = emit_plots(args.logs, out)
    for p in written:
        print(p)
    return 0


class _UsageError(Exception):
    """A bad command line, its message already naming the command."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which is the divergence code; main
    # reports it on one line and exits 1 instead. argparse passes an
    # ArgumentError back through each enclosing parser's error, so a
    # different type is raised: it reaches main with one prefix.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    # argparse refuses a subcommand's unknown arguments in the top parser,
    # whose message names no command; each parser refuses its own instead
    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="iadp", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--scenario", choices=WORLDS)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--dt", type=float)
        sp.add_argument("--t-end", type=float)
        sp.add_argument("--xdot-source", choices=XDOT_SOURCES)
        sp.add_argument("--config")
        sp.add_argument("--out-dir")
        sp.add_argument("--override", action="append", metavar="key=value")

    sp = sub.add_parser("run", help="run one episode")
    add_common(sp)
    sp.add_argument("--controller", choices=CONTROLLERS)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compare", help="run all three controllers on one scenario")
    add_common(sp)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("check", help="run the fast property suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("plots", help="emit plot scripts and data files from logs")
    sp.add_argument("logs", nargs="+")
    sp.add_argument("--out-dir")
    sp.set_defaults(fn=cmd_plots)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
