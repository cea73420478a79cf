import dataclasses
import errno
import functools
import hashlib
import itertools
import math
import os
import signal
import stat
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from helpers import cached_run
import iadp
from iadp import cli, kernels
from iadp.cli import (CONFIG_KEYS, CSV_PIPE_BYTES, CSV_SCHEMA_VERSION,
                      FIGURES, _format_value, _parse_value, _resolved_cfg, build_parser,
                      config_dict, csv_header, emit_plots, main, parse_config,
                      read_config_file, read_csv, write_csv, write_manifest)
from iadp.critic import MAX_DEGREE
from iadp.plant import ConfigurationError
from iadp.scenarios import WORLDS, run_scenario
from iadp.sim import CONTROLLERS, LOG_CHUNK_ROWS, XDOT_SOURCES, SimConfig, TrajectoryLog

SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4)
# what a manifest holds: ints, config strings, and floats, vectors and
# matrices, including +-0, +-inf and subnormals
MANIFEST_VALUES = st.one_of(
    st.integers(), st.floats(allow_nan=False),
    st.sampled_from(["s1", "iadp", "sigma_min_enrich"]),
    hnp.arrays(np.float64, SHAPES, elements=st.floats(allow_nan=False)),
    hnp.arrays(np.int64, SHAPES))


class TestValueParsing:
    def test_scalars(self):
        assert _parse_value("3") == 3
        assert _parse_value("3.5") == 3.5
        assert _parse_value("true") == "true"
        assert _parse_value("s2") == "s2"

    def test_vector(self):
        assert _parse_value("[2.0, -2.0]") == [2.0, -2.0]

    def test_matrix(self):
        assert _parse_value("[[1, 0], [0, 1]]") == [[1, 0], [0, 1]]

    def test_unbalanced(self):
        with pytest.raises(ConfigurationError):
            _parse_value("[1, 2")

    @pytest.mark.parametrize("text", ["[2.0,,-2.0]", "[1,]", "[,]", "[[1, 2], ]"])
    def test_empty_element_rejected(self, text):
        with pytest.raises(ConfigurationError):
            _parse_value(text)

    @given(MANIFEST_VALUES)
    def test_format_round_trip(self, v):
        # every value comes back bit-equal
        back = _parse_value(_format_value(v))
        if isinstance(v, np.ndarray):
            back = np.asarray(back, dtype=v.dtype)
            assert back.shape == v.shape and back.tobytes() == v.tobytes()
        elif isinstance(v, float):
            assert type(back) is float and struct.pack("<d", back) == struct.pack("<d", v)
        else:
            assert type(back) is type(v) and back == v


class TestConfigFile:
    def test_round_trip_manifest(self, tmp_path):
        cfg = SimConfig(scenario="s2", controller="zsadp", seed=3, t_end=1.0)
        mpath = tmp_path / "run.manifest"
        write_manifest(cfg, mpath, [], 0.0)
        back = parse_config(mpath)
        for key, val in config_dict(cfg).items():
            got = config_dict(back)[key]
            if isinstance(val, np.ndarray):
                assert np.array_equal(got, val), key
            else:
                assert got == val, key

    def test_every_field_has_one_key(self):
        # so a run's manifest replays every field of its config
        targets = sorted(CONFIG_KEYS.values())
        assert targets == sorted(f.name for f in dataclasses.fields(SimConfig))

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n\nscenario = s3  # trailing\nsim.seed = 7\n")
        raw = read_config_file(p)
        assert raw == {"scenario": "s3", "sim.seed": 7}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("sim.stepsize = 0.001\n")
        with pytest.raises(ConfigurationError):
            parse_config(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scenario s1\n")
        with pytest.raises(ConfigurationError):
            read_config_file(p)

    def test_override_precedence(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("sim.seed = 1\nscenario = s1\n")
        cfg = parse_config(p, {"sim.seed": "9"})
        assert cfg.seed == 9 and cfg.scenario == "s1"

    def test_matrix_scalar_shorthand(self):
        cfg = parse_config(None, {"cost.Q": "2.5", "learner.Gamma": "0.001"})
        assert np.array_equal(cfg.Q, 2.5 * np.eye(2))
        assert np.array_equal(cfg.Gamma, 1e-3 * np.eye(6))

    def test_scalar_shorthand_sized_by_basis(self):
        # c * I takes the resolved basis's size, whichever key comes first
        keys = [("basis.exponents", "[[2,0],[1,1],[0,2]]"), ("learner.Gamma", "1e-4")]
        for order in (keys, keys[::-1]):
            cfg = parse_config(None, dict(order))
            assert np.array_equal(cfg.Gamma, 1e-4 * np.eye(3))

    def test_invalid_value_is_config_error(self):
        with pytest.raises(ConfigurationError):
            parse_config(None, {"sim.dt": "-1"})
        with pytest.raises(ConfigurationError):
            parse_config(None, {"controller": "pid"})

    @pytest.mark.parametrize("key, value", [
        ("learner.k_c", "-1"), ("learner.k_e", "0"), ("learner.Gamma", "-1"),
        ("learner.Gamma", "[[1,0.2,0,0,0,0],[0,1,0,0,0,0],[0,0,1,0,0,0],"
                          "[0,0,0,1,0,0],[0,0,0,0,1,0],[0,0,0,0,0,1]]")])
    def test_learner_gains_checked_at_parse(self, key, value):
        with pytest.raises(ConfigurationError):
            parse_config(None, {key: value})


class TestCsv:
    def test_round_trip(self, tmp_path):
        log = run_scenario(SimConfig(t_end=0.5))
        path = tmp_path / "log.csv"
        write_csv(log, path)
        cols = read_csv(path)
        assert cols["t"].shape[0] == log.rows()
        # repr round-trip must be exact
        assert np.array_equal(cols["x_true_1"], log.x_true[:, 0])
        assert np.array_equal(cols["w_6"], log.w[:, 5])
        assert np.array_equal(cols["E_u"], log.E_u)
        assert np.array_equal(cols["rank"], log.rank.astype(float))

    def test_header_order(self):
        hdr = csv_header(6).split(",")
        assert hdr[0] == "t"
        assert hdr[1:3] == ["x_true_1", "x_true_2"]
        assert hdr[3:5] == ["x_meas_1", "x_meas_2"]
        assert hdr[5:7] == ["u_1", "du_1"]
        assert hdr[7:13] == [f"w_{k}" for k in range(1, 7)]
        assert hdr[13:] == ["theta_tilde", "xi_1", "d", "E_u", "E_x", "rank"]

    def test_schema_comment(self, tmp_path):
        log = run_scenario(SimConfig(t_end=0.1))
        path = tmp_path / "log.csv"
        write_csv(log, path)
        assert path.read_text().splitlines()[0].startswith("# iadp csv schema v")


def row_loop_lines(rows):
    """The per-row formatting: each float through repr(float(v)) and the
    last, the rank, through int, one line per row."""
    return "".join(",".join(repr(float(v)) for v in row[:-1]) + f",{int(row[-1])}\n"
                   for row in rows)


def write_csv_row_loop(log, path):
    """The per-row writer. The streamed writer must give the same bytes."""
    block = np.column_stack([
        log.t, log.x_true, log.x_meas, log.u, log.du, log.w,
        log.theta_tilde, log.xi, log.d, log.E_u, log.E_x, log.rank,
    ])
    Path(path).write_text(f"# iadp csv schema v{CSV_SCHEMA_VERSION}\n"
                          f"{csv_header(log.w.shape[1])}\n" + row_loop_lines(block))


# row counts around multiples of the block size, where the writer's child
# ends a read with a whole block, one row more or one row short
CUT_ROWS = (1, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049)


def cut_log(log, rows):
    """The log's first ``rows`` rows."""
    return dataclasses.replace(log, **{
        f.name: getattr(log, f.name)[:rows] for f in dataclasses.fields(log)
        if isinstance(getattr(log, f.name), np.ndarray)})


def record_bytes(log):
    """The bytes a row takes down the CSV writer's pipe: 8 a column."""
    return 8 * len(csv_header(log.w.shape[1]).split(","))


def record_shares(monkeypatch):
    """Record what the CSV writer's caller puts down its pipe (bytes a
    write) and the rows it formats itself (none, as the child formats them
    all)."""
    piped, formatted, parent = [], [], os.getpid()
    write, lines = os.write, cli._csv_lines

    def piping(fd, data):
        n = write(fd, data)
        if stat.S_ISFIFO(os.fstat(fd).st_mode):
            piped.append(n)
        return n

    def formatting(rows):
        if os.getpid() == parent:
            formatted.append(len(rows))
        return lines(rows)

    monkeypatch.setattr(os, "write", piping)
    monkeypatch.setattr(cli, "_csv_lines", formatting)
    return piped, formatted


def split_write(path, log, lengths, pipe_bytes):
    """Write ``log`` at ``path`` through ``csv_writer``, its rows in sends of
    the given lengths (cycled) and with CSV_PIPE_BYTES = ``pipe_bytes``.
    Returns the bytes piped and the rows this process formatted."""
    rows = np.column_stack([getattr(log, name) for name in TrajectoryLog.ARRAYS])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_PIPE_BYTES", pipe_bytes)
        piped, formatted = record_shares(mp)
        with cli.csv_writer(path, log.w.shape[1]) as send:
            start = 0
            for n in itertools.cycle(lengths):
                stop = min(start + n, log.rows())
                send(rows[start:stop])
                if stop == log.rows():
                    break
                start = stop
    return sum(piped), sum(formatted)


@pytest.fixture(scope="module")
def io_logs():
    """A log longer than one write block, a diverged s3 zsadp log (cut
    short, with non-finite theta_tilde entries), an s3 iadp log whose
    measurement noise starts in its last second, and the long log cut to
    each of CUT_ROWS."""
    long_log = cached_run(t_end=5.0)
    diverged = cached_run(scenario="s3", controller="zsadp")
    noisy = cached_run(scenario="s3", t_end=21.0)
    assert long_log.rows() > LOG_CHUNK_ROWS
    assert diverged.diverged and diverged.rows() < 80001
    assert not np.all(np.isfinite(diverged.theta_tilde))
    # x_meas is x_true's bits up to t = 20 s and noisy after
    same = np.all(noisy.x_meas.view(np.int64) == noisy.x_true.view(np.int64), axis=1)
    assert same[:20000].all() and not same[20000:].any()
    return {"long": long_log, "diverged": diverged, "noisy": noisy,
            **{f"rows{k}": cut_log(long_log, k) for k in CUT_ROWS}}


@pytest.fixture(scope="module")
def row_loop_bytes(io_logs, tmp_path_factory):
    """The row loop's CSV bytes of each log of ``io_logs``, made once."""
    out = tmp_path_factory.mktemp("row_loop")

    @functools.cache
    def csv_bytes(name):
        write_csv_row_loop(io_logs[name], out / f"{name}.csv")
        return (out / f"{name}.csv").read_bytes()
    return csv_bytes


# the floats a CSV block holds, with the cases of the x_meas reuse test
# weighted up: 0.0 and -0.0 (equal, but not the same text), nan, +-inf and
# subnormals
CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                     -2.2250738585072014e-308, 1e-05]),
    st.floats())


@st.composite
def csv_blocks(draw):
    """A block of rows as the CSV writer's child formats it, at N = 6, the
    rank last as an integral float within +-2^53: its x_meas columns copy
    x_true on all, some or none of its rows, and on some rows x_true is 0.0
    and x_meas -0.0."""
    n = draw(st.integers(0, 300))
    values = draw(hnp.arrays(np.float64, (n, csv_header(6).count(",") + 1),
                             elements=CSV_FLOATS))
    copied = draw(st.sampled_from([np.ones(n, bool), np.zeros(n, bool),
                                   draw(hnp.arrays(bool, n))]))
    values[copied, 3:5] = values[copied, 1:3]
    zeros = draw(hnp.arrays(bool, n))
    values[zeros, 1:3], values[zeros, 3:5] = 0.0, -0.0
    values[:, -1] = draw(hnp.arrays(np.int64, n, elements=st.integers(-2**53, 2**53)))
    return values


class TestStreamedIo:
    # no shrink phase: shrinking a failing block of up to 300 x 18 floats
    # took over 8 minutes, and the failing line shows in the diff as drawn
    @settings(max_examples=60, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(csv_blocks())
    def test_csv_lines_match_row_loop(self, rows):
        # the columnar formatting, x_meas's reuse of x_true's text included,
        # gives the row loop's text
        assert cli._csv_lines(rows) == row_loop_lines(rows)

    def test_blocks_stay_under_the_mmap_threshold(self, tmp_path):
        # a block of CSV text at N = 6, every float at the widest repr (24
        # characters) and every rank at the widest int64, is under 128 KiB;
        # what iadp plots joins from one block of such lines is that text
        # and 255 commas, and the .dat text it copies is under 128 KiB too
        header = csv_header(6)
        values = np.full((LOG_CHUNK_ROWS, header.count(",") + 1), -2.2250738585072014e-308)
        values[:, -1] = np.iinfo(np.int64).min
        text = cli._csv_lines(values)
        assert len(text.encode()) == LOG_CHUNK_ROWS * (18 * 25 + 21) < 1 << 17
        csv = tmp_path / "widest.csv"
        csv.write_text(f"# iadp csv schema v{CSV_SCHEMA_VERSION}\n{header}\n{text}")
        emit_plots([csv], tmp_path / "figs")
        for fig in FIGURES:
            dat = (tmp_path / "figs" / f"widest_{fig}.dat").read_bytes()
            body = dat.split(b"\n", 1)[1]
            assert body.count(b"\n") == LOG_CHUNK_ROWS and len(body) < 1 << 17

    @pytest.mark.parametrize("name", ["long", "diverged", "noisy",
                                      *(f"rows{k}" for k in CUT_ROWS)])
    def test_csv_bytes_match_row_loop(self, tmp_path, io_logs, name):
        write_csv(io_logs[name], tmp_path / "streamed.csv")
        write_csv_row_loop(io_logs[name], tmp_path / "rows.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()

    def test_s1_csv_matches_its_reference_sha256(self, tmp_path):
        # the 80 s s1 iadp seed-0 file, as the one-process writer wrote it
        write_csv(cached_run(), tmp_path / "s1.csv")
        assert hashlib.sha256((tmp_path / "s1.csv").read_bytes()).hexdigest() == \
            "784cea91a0d6ed737290a58dc201571580416a271df859ff3af643ee31a1c9fa"

    def test_csv_bytes_survive_signals(self, tmp_path, capsys, monkeypatch,
                                       row_loop_bytes):
        # a signal handler that returns cuts a pipe write or read short; the
        # streamed CSV must still hold every byte. The timer runs in the
        # episode's process and, restarted after the fork, in the writer's
        # child, with a 0.1 ms period. A one-page pipe is full at nearly
        # every send, so each send waits for the child to read a page: the
        # pipe writes and reads and the child's file writes are interrupted
        # many times
        monkeypatch.setattr(cli, "CSV_PIPE_BYTES", 4096)
        piped, formatted = record_shares(monkeypatch)
        period = (signal.ITIMER_REAL, 1e-4, 1e-4)
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid == 0:
                signal.setitimer(*period)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        old_handler = signal.signal(signal.SIGALRM, lambda signum, frame: None)
        old_timer = signal.setitimer(*period)
        try:
            assert main(["run", "--scenario", "s1", "--t-end", "5",
                         "--out-dir", str(tmp_path)]) == 0
        finally:
            signal.setitimer(signal.ITIMER_REAL, *old_timer)
            signal.signal(signal.SIGALRM, old_handler)
        assert (tmp_path / "s1_iadp_seed0.csv").read_bytes() == row_loop_bytes("long")
        # this process formatted no row, and the pipe carried every one
        assert formatted == []
        assert sum(piped) == 5001 * record_bytes(cached_run(t_end=5.0))

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(["long", "diverged", *(f"rows{k}" for k in CUT_ROWS)]),
           lengths=st.lists(st.integers(1, 2000), min_size=1, max_size=6),
           pipe_bytes=st.integers(4096, 1 << 20))
    def test_split_bytes_match_row_loop(self, tmp_path_factory, io_logs, row_loop_bytes,
                                        name, lengths, pipe_bytes):
        # however the sends and the pipe's size divide the rows, the CSV is
        # the row loop's, this process formats none of them, and the child
        # receives every one
        log = io_logs[name]
        path = tmp_path_factory.mktemp("split") / "split.csv"
        piped, formatted = split_write(path, log, lengths, pipe_bytes)
        assert path.read_bytes() == row_loop_bytes(name)
        assert formatted == 0 and piped == log.rows() * record_bytes(log)

    def test_send_waits_for_a_stopped_child(self, tmp_path, monkeypatch):
        # the writer's child is stopped with SIGSTOP right after its fork,
        # and a timer resumes it 1 s later, whatever the episode is doing
        # then. A 10 s episode's 10,001 rows are 1.5 MB packed, so the 1 MiB
        # pipe fills and a send waits on the stopped child, within two
        # blocks of a full pipe; it returns once the child reads again, and
        # the run completes with the row loop's bytes. The writer's reap
        # first ends the timer, so that a run which fails before the timer
        # fires leaves no timer to signal a reaped, or reused, pid
        piped, _ = record_shares(monkeypatch)
        sends, resumed, timers = [], [], []
        real_fork, real_waitpid, run = os.fork, os.waitpid, cli.run_scenario

        def resume(pid):
            resumed.append((time.monotonic(), sum(piped)))
            os.kill(pid, signal.SIGCONT)

        def fork():
            pid = real_fork()
            if pid:
                os.kill(pid, signal.SIGSTOP)
                timers.append(threading.Timer(1.0, resume, (pid,)))
                timers[-1].start()
            return pid

        def waitpid(pid, options):
            for timer in timers:
                timer.cancel()
                timer.join(10)  # a timer still alive fails no_thread_left
            # the child is not reaped yet, so pid is still its own: resume it
            # in case the timer had not fired
            os.kill(pid, signal.SIGCONT)
            return real_waitpid(pid, options)

        def timed(on_rows):
            def on_rows_timed(block):
                began = time.monotonic()
                on_rows(block)
                sends.append((began, time.monotonic()))
            return on_rows_timed

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(cli, "run_scenario", lambda cfg, on_rows: run(cfg, timed(on_rows)))
        rc = main(["run", "--scenario", "s1", "--t-end", "10", "--out-dir", str(tmp_path)])
        assert rc == 0 and len(resumed) == 1
        (at, during), = resumed
        log = cached_run(t_end=10.0)
        block = LOG_CHUNK_ROWS * record_bytes(log)
        assert log.rows() * record_bytes(log) > CSV_PIPE_BYTES
        assert CSV_PIPE_BYTES - 2 * block < during <= CSV_PIPE_BYTES
        assert any(began < at < ended for began, ended in sends)
        write_csv_row_loop(log, tmp_path / "rows.csv")
        assert (tmp_path / "s1_iadp_seed0.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()

    def test_pipe_carries_each_engine_block_unchanged(self, tmp_path, monkeypatch):
        # each block the engine hands on_rows goes down the pipe as its own
        # bytes, rank column included, in that block's one send, and nothing
        # is written to the pipe outside a send
        writes, sends, write, run = [], [], os.write, cli.run_scenario

        def piping(fd, data):
            n = write(fd, data)
            if stat.S_ISFIFO(os.fstat(fd).st_mode):
                writes.append(bytes(data[:n]))
            return n

        def recorded(on_rows):
            def on_rows_recorded(block):
                assert writes == []
                on_rows(block)
                sends.append((block.tobytes(), b"".join(writes)))
                writes.clear()
            return on_rows_recorded

        monkeypatch.setattr(os, "write", piping)
        monkeypatch.setattr(cli, "run_scenario", lambda cfg, on_rows: run(cfg, recorded(on_rows)))
        assert main(["run", "--scenario", "s1", "--t-end", "2",
                     "--out-dir", str(tmp_path)]) == 0
        assert writes == [] and len(sends) == 8
        for block, piped in sends:
            assert piped == block

    @pytest.mark.parametrize("name", ["long", "diverged", "noisy"])
    def test_plot_data_equals_csv_columns(self, tmp_path, io_logs, name):
        # each .dat line is the picked CSV fields, as text, joined by spaces
        csv = tmp_path / f"{name}.csv"
        write_csv(io_logs[name], csv)
        emit_plots([csv], tmp_path / "figs")
        header, *rows = [ln.split(",") for ln in csv.read_text().splitlines()
                         if not ln.startswith("#")]
        assert len(rows) == io_logs[name].rows()
        expected = {
            "weights": [f"w_{k}" for k in range(1, 7)],
            "states": ["x_true_1", "x_true_2", "x_meas_1", "x_meas_2"],
            "controls": ["u_1", "du_1"],
            "metrics": ["E_u", "E_x"],
        }
        assert set(expected) == set(FIGURES)
        for fig, names in expected.items():
            idx = [header.index(c) for c in ["t", *names]]
            dat = (tmp_path / "figs" / f"{name}_{fig}.dat").read_text().splitlines()
            assert dat[0] == "# t " + " ".join(names)
            assert dat[1:] == [" ".join(row[j] for j in idx) for row in rows], fig

    @pytest.mark.parametrize("rows", [["0.0,1.0,1.0"], ["1.0," * 19 + "0", "1.0," * 17 + "0"]],
                             ids=["short", "long_then_short"])
    def test_plots_refuses_a_ragged_row(self, tmp_path, capsys, rows):
        # a row with more or fewer fields than the header, even where a
        # longer and a shorter row hold as many fields as two whole ones
        csv = tmp_path / "ragged.csv"
        csv.write_text(f"# iadp csv schema v1\n{csv_header(6)}\n" + "\n".join(rows) + "\n")
        assert main(["plots", str(csv), "--out-dir", str(tmp_path / "figs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {csv}: ") and len(err.splitlines()) == 1, err
        # no truncated data file is left to pass for a complete one
        assert not list((tmp_path / "figs").glob("ragged_*"))

    @pytest.mark.parametrize("edit", ["no_last_newline", "blank_and_comment_lines"])
    def test_plots_reads_an_edited_csv(self, tmp_path, io_logs, edit):
        # a last line without its newline, and blank and # lines among the
        # rows (at a block boundary and inside a block), give the same .dat
        # files as the CSV as written
        write_csv(io_logs["rows1025"], tmp_path / "rows.csv")
        text = (tmp_path / "rows.csv").read_text()
        if edit == "no_last_newline":
            text = text[:-1]
        else:
            lines = text.splitlines(keepends=True)
            lines[2 + LOG_CHUNK_ROWS:2 + LOG_CHUNK_ROWS] = ["\n", "# a note\n"]
            lines[600:600] = ["# another note\n", "\n"]
            text = "".join(lines)
        (tmp_path / "edited" / "rows.csv").parent.mkdir()
        (tmp_path / "edited" / "rows.csv").write_text(text)
        for d in ("", "edited"):
            emit_plots([tmp_path / d / "rows.csv"], tmp_path / d / "figs")
        for fig in FIGURES:
            assert (tmp_path / "edited" / "figs" / f"rows_{fig}.dat").read_bytes() == \
                (tmp_path / "figs" / f"rows_{fig}.dat").read_bytes(), fig

    def test_plots_without_weight_columns_rejected(self, tmp_path, capsys):
        csv = tmp_path / "now.csv"
        csv.write_text("# iadp csv schema v1\nt,x_true_1,x_meas_1,u_1,du_1,E_u,E_x\n"
                       "0.0,1.0,1.0,0.0,0.0,0.0,0.0\n")
        with pytest.raises(ConfigurationError, match="figure weights"):
            emit_plots([csv], tmp_path / "figs")
        assert main(["plots", str(csv), "--out-dir", str(tmp_path / "figs")]) == 1
        assert "config error" in capsys.readouterr().err


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "s1_iadp_seed0.csv").exists()
        assert (tmp_path / "s1_iadp_seed0.manifest").exists()
        assert "completed" in capsys.readouterr().out

    def test_manifest_reparses(self, tmp_path):
        main(["run", "--scenario", "s1", "--t-end", "0.5", "--seed", "4",
              "--out-dir", str(tmp_path)])
        cfg = parse_config(tmp_path / "s1_iadp_seed4.manifest")
        assert cfg.seed == 4 and cfg.t_end == 0.5 and cfg.scenario == "s1"

    def test_config_error_exit_one(self, tmp_path, capsys):
        rc = main(["run", "--override", "sim.dt=-1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    # the cases on learner.buffer_every, learner.buffer_until,
    # learner.rank_deadline, zsadp.gamma and tadp.rho name keys that do not
    # exist and are refused as unknown; pytest names these cases by list
    # position, so each keeps its place
    @pytest.mark.parametrize("override, extra", [
        ("init.x0=[1,2,3]", []),
        ("init.x0=[nan,0]", ["--xdot-source", "ground_truth"]),
        ("tde.g_bar=[[0,0.1,0]]", []),
        ("cost.Q=[[1,0,0],[0,1,0],[0,0,1]]", []),
        ("learner.P=0", []),
        ("learner.buffer_every=0", []),
        ("sim.t_end=-1", []),
        ("init.x0=[2.0,,-2.0]", []),
        ("zsadp.gamma=0", ["--controller", "zsadp"]),
        ("zsadp.gamma=-1", []),
        ("tadp.rho=0", ["--controller", "tadp"]),
        ("learner.P=8.5", []),
        ("learner.P=true", []),
        ("sim.seed=1.5", []),
        ("cost.beta=true", []),
        ("basis.exponents=[[2.5,0],[1,1],[0,2],[0,3],[1,2],[2,1]]", []),
        ("cost.Q=true", []),
        ("init.x0=[true,-2]", []),
        ("tde.g_bar=[[false],[true]]", []),
        ("learner.Gamma=true", []),
        ("sim.dt=nan", []),
        ("sim.t_end=inf", []),
        ("cost.beta=nan", []),
        ("cost.beta=inf", []),
        ("cost.c_bar=inf", []),
        ("learner.k_e=nan", []),
        ("learner.buffer_until=nan", []),
        ("learner.rank_deadline=nan", []),
        ("basis.exponents=[[2,0],[1,1],[0,2],[0,3],[1,2],[-1,1]]", []),
        ("sim.seed=-1", []),
        ("cost.Q=[[1,0],[0.5,1]]", []),
        ("cost.Q=[[-1,0],[0,-1]]", []),
        ("cost.beta=0", []),
        ("cost.c_bar=0", []),
        ("tde.g_bar=[[0],[0]]", []),
        ("basis.exponents=[[1001,0],[1,1],[0,2],[0,3],[1,2],[2,1]]", []),
        ("basis.exponents=[[1000000000,0],[1,1],[0,2],[0,3],[1,2],[2,1]]", []),
        # a one-feature basis takes a scalar or a 1x1 Gamma, not a flat or 3-D one
        ("learner.Gamma=[1e-4]", ["--override", "basis.exponents=[[2,0]]"]),
        ("learner.Gamma=[[[1e-4]]]", ["--override", "basis.exponents=[[2,0]]"]),
    ])
    def test_bad_value_rejected_at_parse(self, tmp_path, capsys, override, extra):
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5", *extra,
                   "--override", override, "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("config error") and len(err.splitlines()) == 1

    def test_basis_state_size_must_match_plant(self, tmp_path, capsys):
        # a consistent 3-state set-up is refused by the config, as the plant
        # has 2 states
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5",
                   "--override", "basis.exponents=[[2,0,0],[1,1,0],[0,2,0],[0,0,2],[1,0,1],[0,1,1]]",
                   "--override", "init.x0=[2,-2,0]", "--override", "tde.g_bar=[[0],[0.1],[0]]",
                   "--override", "cost.Q=1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "config error: basis exponents must have 2 columns, got 3\n"

    def test_basis_of_the_highest_degree_runs(self, tmp_path, capsys):
        # a feature of degree 985 and up ended in a RecursionError traceback
        # from the CLI; one of the bound's degree runs (its critic diverges)
        rc = main(["run", "--scenario", "s1", "--t-end", "0.01", "--override",
                   f"basis.exponents=[[{MAX_DEGREE},0],[1,1],[0,2],[0,3],[1,2],[2,1]]",
                   "--out-dir", str(tmp_path)])
        assert rc == 2 and capsys.readouterr().err == ""

    def test_saturation_fault_exit_four(self, tmp_path, capsys, monkeypatch):
        from iadp.controllers import IadpLaw
        monkeypatch.setattr(IadpLaw, "control", lambda self, gphi_t, w: (3.0, None))
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: saturation invariant violated at t=0.002")
        assert "u=3.0" in err
        # no CSV, no temporary file and no writer process is left
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_nan_control_fault_exit_four(self, tmp_path, capsys, monkeypatch):
        # a nan u off a stop row is a fault: a test of abs(u) > clamp would
        # pass it, and the run would end on nonfinite_dynamics with exit 2
        from iadp.controllers import ZeroLaw
        monkeypatch.setattr(ZeroLaw, "control", lambda self, gphi_t, w: (math.nan, None))
        rc = main(["run", "--scenario", "s1", "--controller", "zero", "--t-end", "0.05",
                   "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 4 and len(err.splitlines()) == 1 and "u=nan" in err
        assert err.startswith("error: saturation invariant violated at t=0.002")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fault_mid_stream_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        # the fault comes at t = 2.001 s, after the episode has handed its
        # first 1,792 rows to the writer in 7 blocks of 256, and the writer
        # has put all of them down the pipe to its child
        from iadp.controllers import IadpLaw
        control, calls = IadpLaw.control, []

        def faulting(self, gphi_t, w):
            calls.append(None)
            return (3.0, None) if len(calls) == 2000 else control(self, gphi_t, w)

        handed, run = [], cli.run_scenario
        monkeypatch.setattr(IadpLaw, "control", faulting)
        monkeypatch.setattr(cli, "run_scenario", lambda cfg, on_rows: run(
            cfg, lambda block: handed.append(len(block)) or on_rows(block)))
        piped, _ = record_shares(monkeypatch)
        rc = main(["run", "--scenario", "s1", "--t-end", "5",
                   "--out-dir", str(tmp_path)])
        size = 1792 * record_bytes(cached_run(t_end=5.0))
        assert rc == 4 and handed == [256] * 7
        assert sum(piped) == size
        assert capsys.readouterr().err.startswith(
            "error: saturation invariant violated at t=2.001")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_run_names_stop_cause(self, tmp_path, capsys, monkeypatch):
        from iadp import kernels
        monkeypatch.setattr(kernels, "weight_derivative_kernel",
                            lambda w, *args: [float("inf")] * len(w))
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "s1_iadp_seed0: diverged (nonfinite_weights), rows=3," \
            in capsys.readouterr().out

    @pytest.mark.parametrize("override, rows", [
        ("learner.k_c=1e300", 4), ("learner.Gamma=1e300", 4), ("learner.k_e=1e300", 13)])
    def test_huge_gain_runs_to_nonfinite_weights(self, tmp_path, capsys, override, rows):
        # no magnitude bound refuses a finite gain at parse time: the run
        # stops under the divergence contract instead
        rc = main(["run", "--scenario", "s1", "--t-end", "0.05", "--override", override,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert f"s1_iadp_seed0: diverged (nonfinite_weights), rows={rows}," \
            in capsys.readouterr().out

    def test_huge_beta_refused(self, tmp_path, capsys):
        # above 1e100 the penalty W(u) = beta^2 q loses its small-u scale u^2
        # to underflow in q, and beyond 1.34e154 W(0) = inf * 0 is nan
        rc = main(["run", "--scenario", "s1", "--t-end", "0.05", "--override",
                   "cost.beta=1e300", "--out-dir", str(tmp_path / "out")])
        assert rc == 1 and capsys.readouterr().err == \
            "config error: beta must be > 1e-12 and <= 1e+100\n"
        assert not (tmp_path / "out").exists()

    def test_bad_override_syntax(self, tmp_path, capsys):
        rc = main(["run", "--override", "nonsense", "--out-dir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("override, refused", [
        # the clamp beta - 1e-12 is <= 0, so u is 0 or breaks the invariant
        ("cost.beta=1e-13", True), ("cost.beta=1e-12", True),
        # g_bar^+ overflows to (nan, inf)
        ("tde.g_bar=[[0],[1e-320]]", True),
        ("cost.beta=2e-12", False), ("cost.beta=1e300", True), ("cost.beta=1e100", False),
        ("cost.c_bar=5e-324", False), ("cost.c_bar=1e300", False),
        ("learner.k_c=5e-324", False), ("learner.k_c=1e300", False),
        ("learner.k_e=1e300", False),
        ("learner.Gamma=1e300", False), ("learner.Gamma=5e-324", False),
        ("cost.Q=1e300", False), ("cost.Q=5e-324", False),
        ("tde.g_bar=[[0],[1e-300]]", False),
        # x0 is read flat and a flat exponent list as one row
        ("init.x0=[[2],[-2]]", False), ("init.x0=[[1,2],[3,4]]", True),
        ("basis.exponents=[2,0] learner.Gamma=1e-4", False),
        ("basis.exponents=[[2,0]] learner.Gamma=[[1e-4]]", False),
        # t_end / dt overflows to inf; an empty basis leaves Q 0x0
        ("sim.dt=5e-324", True), ("cost.Q=1 basis.exponents=[]", True),
        # x0 outside the divergence ball
        ("init.x0=[1e300,-1e300]", True),
    ])
    def test_every_accepted_config_runs(self, tmp_path, capsys, override, refused):
        # a configuration (space-separated overrides) is refused at parse
        # time with one line, or every command runs it to an end (completed
        # or diverged) with no traceback, engine fault or warning; numpy
        # warnings are errors under tier-1
        overrides = [arg for item in override.split() for arg in ("--override", item)]
        for argv in (["compare"], ["run", "--controller", "zero"],
                     ["run", "--xdot-source", "ground_truth"]):
            rc = main([*argv, "--scenario", "s1", "--t-end", "0.05", *overrides,
                       "--out-dir", str(tmp_path)])
            err = capsys.readouterr().err
            if refused:
                assert rc == 1 and err.startswith("config error: ") \
                    and len(err.splitlines()) == 1, (argv, rc, err)
            else:
                assert rc in (0, 2) and err == "", (argv, rc, err)

    @pytest.mark.parametrize("argv, line", [
        (["run", "--scenario", "s9"], None),
        (["run", "--seed", "one"],
         "error: iadp run: argument --seed: invalid int value: 'one'"),
        (["run", "--bogus"], None),
        ([], "error: iadp: the following arguments are required: command"),
        (["run", "--config", "missing.cfg"], None),
        (["plots", "missing.csv"], None),
        (["check", "--seed", "-1"], None),
        (["plots"], "error: iadp plots: the following arguments are required: logs"),
        (["compare", "--controller", "zero"],
         "error: iadp compare: unrecognized arguments: --controller zero"),
    ], ids=["bad_choice", "bad_type", "unknown_flag", "no_command", "missing_config",
            "missing_csv", "negative_check_seed", "no_csv", "compare_controller"])
    def test_input_error_exit_one(self, tmp_path, capsys, monkeypatch, argv, line):
        # argparse's own usage exit, 2, is the divergence code; these and
        # missing files end on one stderr line instead of a traceback, and a
        # usage error names its command once
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        if line is not None:
            assert err == line + "\n"

    @pytest.mark.parametrize("via", ["override", "config"])
    @pytest.mark.parametrize("key, value", [
        ("learner.buffer_every", "10"), ("learner.buffer_until", "2.0"),
        ("learner.rank_deadline", "5.0"), ("zsadp.gamma", "1.0"), ("tadp.rho", "0.1"),
        ("learner.policy", "sigma_min_enrich"), ("baselines.track_swap", "false"),
        ("noise.absolute_power", "false")])
    def test_removed_key_refused(self, tmp_path, capsys, key, value, via):
        # a removed key, even at its old default, is an unknown key whether
        # it comes from --override or from a config file (an old manifest)
        if via == "override":
            args = ["--override", f"{key}={value}"]
        else:
            (tmp_path / "old.manifest").write_text(f"scenario = s1\n{key} = {value}\n")
            args = ["--config", str(tmp_path / "old.manifest")]
        out = tmp_path / "out"
        assert main(["run", "--t-end", "0.05", *args, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: unknown config key {key!r}\n"
        assert not out.exists()

    def test_compare_manifest_records_the_default_controller(self, tmp_path, capsys):
        # compare runs all three controllers, so a controller key given to it
        # is not what its manifest records, and the manifest reruns iadp
        assert main(["compare", "--scenario", "s1", "--t-end", "0.05",
                     "--override", "controller=zero", "--out-dir", str(tmp_path)]) == 0
        manifest = tmp_path / "s1_compare_seed0.manifest"
        assert "controller = iadp" in manifest.read_text().splitlines()
        rerun = tmp_path / "rerun"
        assert main(["run", "--config", str(manifest), "--out-dir", str(rerun)]) == 0
        assert sorted(p.name for p in rerun.iterdir()) == \
            ["s1_iadp_seed0.csv", "s1_iadp_seed0.manifest"]

    def test_unknown_scenario_refused_before_any_output(self, tmp_path, capsys, monkeypatch):
        # the config refuses the name before the out dir or the CSV writer's
        # child exists
        def no_fork():
            raise AssertionError("os.fork called")
        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "out"
        assert main(["run", "--override", "scenario=s9", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "config error: unknown scenario 's9'\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, files", [
        (["run"], ["s1_iadp_seed0.csv", "s1_iadp_seed0.manifest"]),
        (["compare"], ["s1_compare_seed0.csv", "s1_compare_seed0.manifest",
                       "s1_iadp_seed0.csv", "s1_tadp_seed0.csv", "s1_zsadp_seed0.csv"]),
    ], ids=["run", "compare"])
    def test_csv_writer_leaves_no_part_or_child(self, tmp_path, capsys, argv, files):
        assert main([*argv, "--scenario", "s1", "--t-end", "3",
                     "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("side, message", [
        ("child", "exited with status 1"), ("parent", "No space left on device")])
    def test_csv_writer_failure_exit_one(self, tmp_path, capsys, monkeypatch,
                                         side, message):
        # the child's formatting or this process's pipe write fails partway:
        # one stderr line, the child reaped and nothing, the temporary file
        # included, left in the out dir
        def fail(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        parent, lines, write = os.getpid(), cli._csv_lines, os.write
        if side == "child":
            monkeypatch.setattr(cli, "_csv_lines", lambda *args: (
                lines if os.getpid() == parent else fail)(*args))
        else:
            # this process's third write of rows fails to go down the pipe
            calls = []

            def failing(fd, data):
                if stat.S_ISFIFO(os.fstat(fd).st_mode):
                    calls.append(None)
                    if len(calls) == 3:
                        fail()
                return write(fd, data)
            monkeypatch.setattr(os, "write", failing)
        rc = main(["run", "--scenario", "s1", "--t-end", "3",
                   "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 1 and len(err.splitlines()) == 1 and message in err, err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_run_too_long_to_allocate_exit_one(self, tmp_path, capsys):
        # 1e15 steps: the log's first array would take 7.11 PiB, more than a
        # process's address space, so numpy refuses it at once and touches
        # no memory
        rc = main(["run", "--t-end", "1e12", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1, err
        assert err.startswith("error: Unable to allocate 7.11 PiB"), err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0

    @pytest.mark.parametrize("flag, key, name", [
        *(("--scenario", "scenario", s) for s in WORLDS),
        *(("--controller", "controller", c) for c in CONTROLLERS),
        *(("--xdot-source", "sim.xdot_source", x) for x in XDOT_SOURCES),
    ])
    def test_flag_matches_override(self, flag, key, name):
        # each flag offers every name the config validates
        def resolved(*argv):
            cfg = _resolved_cfg(build_parser().parse_args(["run", *argv]))
            return {k: _format_value(v) for k, v in config_dict(cfg).items()}

        by_flag = resolved(flag, name)
        assert by_flag[key] == name
        assert by_flag == resolved("--override", f"{key}={name}")

    def test_check_passes(self, capsys):
        rc = main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "10/10 checks passed" in out

    def test_check_loads_no_scipy(self):
        # scipy is a test-only dependency: ``iadp check`` runs without it
        script = ("import sys; from iadp.cli import main; rc = main(['check']); "
                  "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        path = [str(Path(iadp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("kernel, check", [
        ("monomial_grad", "grad_phi_finite_difference"),
        ("penalty_sat", "penalty_vs_quadrature"),
        ("weight_derivative_kernel", "update_law_gradient_identity"),
        ("disturbance_value", "vanishing_disturbance_bound"),
    ])
    def test_check_fails_on_a_broken_kernel(self, capsys, monkeypatch, kernel, check):
        # the checks reach the kernels the engine runs
        real = getattr(kernels, kernel)
        monkeypatch.setattr(kernels, kernel,
                            lambda *args: np.multiply(real(*args), 1.01).tolist())
        assert main(["check"]) == 3
        assert f"FAIL  {check}:" in capsys.readouterr().out

    @pytest.mark.parametrize("kernel, check", [
        ("penalty_sat", "penalty_vs_quadrature"),
        ("disturbance_value", "vanishing_disturbance_bound"),
    ])
    def test_check_fails_on_a_nan_kernel(self, capsys, monkeypatch, kernel, check):
        # a nan defect fails: it is not dropped by a max or passed by a comparison
        real = getattr(kernels, kernel)
        monkeypatch.setattr(kernels, kernel,
                            lambda *args: np.multiply(real(*args), np.nan).tolist())
        assert main(["check"]) == 3
        assert f"FAIL  {check}:" in capsys.readouterr().out

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IADP_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["run", "--scenario", "s1", "--t-end", "0.5"])
        assert rc == 0
        assert (tmp_path / "envout" / "s1_iadp_seed0.csv").exists()

    def test_plots(self, tmp_path):
        main(["run", "--scenario", "s1", "--t-end", "0.5",
              "--out-dir", str(tmp_path)])
        rc = main(["plots", str(tmp_path / "s1_iadp_seed0.csv"),
                   "--out-dir", str(tmp_path / "figs")])
        assert rc == 0
        for fig in ("weights", "states", "controls", "metrics"):
            assert (tmp_path / "figs" / f"s1_iadp_seed0_{fig}.dat").exists()
            assert (tmp_path / "figs" / f"s1_iadp_seed0_{fig}.gp").exists()

    def test_plots_overlay_for_multiple_logs(self, tmp_path):
        for seed in (0, 1):
            main(["run", "--scenario", "s1", "--t-end", "0.5",
                  "--seed", str(seed), "--out-dir", str(tmp_path)])
        emit_plots([tmp_path / "s1_iadp_seed0.csv",
                    tmp_path / "s1_iadp_seed1.csv"], tmp_path / "figs")
        assert (tmp_path / "figs" / "compare_E_u.gp").exists()

    @pytest.mark.parametrize("dirs", [("a", "b"), ("a", "a")], ids=["two_dirs", "same_path"])
    def test_plots_refuses_a_repeated_stem(self, tmp_path, capsys, dirs):
        # logs of one stem would write the same plot files, the later over the earlier
        for d in set(dirs):
            main(["run", "--t-end", "0.5", "--out-dir", str(tmp_path / d)])
        capsys.readouterr()
        rc = main(["plots", *(str(tmp_path / d / "s1_iadp_seed0.csv") for d in dirs),
                   "--out-dir", str(tmp_path / "figs")])
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1 and "'s1_iadp_seed0'" in err, err
        assert not any((tmp_path / "figs").iterdir())
