"""Machine-speed reference for timing on a shared host.

Other tenants of the 2-vCPU machine this benchmark was defined on change
its speed by up to 1.8x for tens of seconds: a fixed loop timed every 0.25 s
for four minutes gave 30 s window means whose interquartile range was 28% of
their median. No run length averages that out. The workload process
therefore times a fixed calibration chunk every PERIOD_S of wall time and
divides the time of the work done meanwhile by the slowdown the chunk saw.
Reported times read as seconds at the reference speed; the raw times are
reported beside them. The chunk's own time is excluded from both.

The chunk imitates the seed commit's episode loop. An engine whose mix of
work differs a lot from it is tracked less closely, which shows as a wider
spread, not as a bias: both sides of a comparison use the same chunk.
"""

import math
import signal
import statistics
import time

import numpy as np

# A chunk's time at the median speed seen when the benchmark was defined
# (2 vCPUs, Python 3.11.7, numpy 2.4.6), between stretches of episode work
# and back to back after set-up. They only set the units.
REFERENCE_NS = 3_400_000
SETUP_REFERENCE_NS = 2_100_000
PERIOD_S = 0.05
LOG_ROWS = 160_000


class SpeedProbe:
    """Times one calibration chunk every PERIOD_S of wall time (SIGALRM).

    The chunk is a frozen imitation of one stretch of the episode loop:
    small-array numpy calls, a Python loop over a replay buffer, and rows
    written into a log buffer that streams through memory. Among the loops
    tried it tracked the episode's speed best (correlation 0.93 over 0.5 s
    windows, against 0.78 for a bare numpy loop and 0.76 for plain floats).
    """

    def __init__(self):
        self.samples = []  # (perf_counter_ns at start, duration ns)
        self.spent_ns = 0
        self.log = np.zeros((LOG_ROWS, 12))
        self.row = 0
        self.g = np.array([[0.0], [0.1]])
        self.gamma = 1e-4 * np.eye(6)
        self.replay = np.linspace(-1.0, 1.0, 48).reshape(8, 6)

    def chunk(self) -> float:
        x = np.array([0.3, -0.2])
        w = np.linspace(-0.5, 0.5, 6)
        for _ in range(60):
            gphi = np.zeros((6, 2))
            for k in range(6):
                gphi[k, k % 2] = x[k % 2] ** 2 + k
            u = np.clip(-2.0 * np.tanh(self.g.T @ (gphi.T @ w) / 4.0), -1.999, 1.999)
            acc = 5.0 * (0.1 + w @ gphi[:, 0]) * gphi[:, 0]
            for y in self.replay:
                acc = acc + 3.0 * (0.1 + w @ y) * y
            w = w - 1e-3 * (self.gamma @ acc)
            if not np.all(np.isfinite(w)):
                break
            x = x + 1e-3 * np.array([x[1], -4.9 * math.sin(x[0]) + 0.25 * float(u[0])])
            row = self.log[self.row % LOG_ROWS]
            row[:2], row[2:8], row[8] = x, w, u[0]
            self.row += 1
        return float(w.sum())

    def setup_slowdown(self) -> float:
        """Median of nine back-to-back chunks over the set-up reference."""
        times = []
        for _ in range(9):
            start = time.perf_counter_ns()
            self.chunk()
            times.append(time.perf_counter_ns() - start)
        return statistics.median(times) / SETUP_REFERENCE_NS

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        start = time.perf_counter_ns()
        self.chunk()
        duration = time.perf_counter_ns() - start
        self.samples.append((start, duration))
        self.spent_ns += duration

    def slowdown(self, start_ns, end_ns) -> float:
        """Mean chunk time in [start_ns, end_ns) over the reference time.

        A span that no sample fell into uses every sample taken so far.
        """
        inside = [d for s, d in self.samples if start_ns <= s < end_ns]
        if not inside:
            inside = [d for _, d in self.samples] or [REFERENCE_NS]
        return statistics.fmean(inside) / REFERENCE_NS
