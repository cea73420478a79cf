"""Fixed-step closed-loop simulation engine.

Per step: measure (noise) -> control law -> xdot estimate and increments
against the sample one delay back -> learner update -> buffer candidate ->
integrate plant -> fire plant swaps -> accumulate metrics. One episode is
strictly sequential. It reads its config and its World and changes neither,
so episodes on one World are independent: a rerun gives the same log.
"""

import math
import struct
import time
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from . import kernels, tde
from .controllers import IadpLaw, TadpLaw, ZeroLaw, ZsadpLaw
from .critic import DEFAULT_EXPONENTS, BasisSet
from .kernels import disturbance_value
from .learner import ExperienceBuffer, try_insert
from .plant import (ConfigurationError, NoiseState, World, add_measurement_noise,
                    apply_event_schedule)
from .scenarios import WORLDS

DIVERGENCE_NORM = 1e6
# the replay schedule (steps, s, s); see the buffer collection in run_episode
BUFFER_EVERY = 10
BUFFER_UNTIL = 2.0
RANK_DEADLINE = 5.0
# log rows are staged as flat tuples and written into the log arrays this
# many at a time, a larger chunk holding more Python objects alive (~700 B a
# row); the CSV writer's child formats, and `iadp plots` copies, as many rows
# at a time. Each block (39 KB as float64, at most 121 KB as text at N = 6,
# as the tests check) stays under glibc's 128 KiB mmap threshold, which a
# freed larger block raises, and later log arrays then come from the heap
# (compare-s3's peak RSS read 97-104 MB, not 80-81 MB)
LOG_CHUNK_ROWS = 256
CONTROLLERS = ("iadp", "zsadp", "tadp", "zero")
XDOT_SOURCES = ("backward_difference", "ground_truth")


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _as_int(value) -> int:
    """An integral number as an int; a bool or a fraction is an error."""
    if isinstance(value, (bool, np.bool_)) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _as_float(value) -> float:
    """A finite number as a float; a bool, a string, nan or +-inf is an error."""
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"{value!r} is not a number")
    if not math.isfinite(value := float(value)):
        raise ValueError(f"{value!r} is not finite")
    return value


def _as_array(value, convert, dtype) -> np.ndarray:
    """Nested lists of numbers as an array, each entry through ``convert``."""
    arr = np.asarray(value, dtype=object)
    return np.array([convert(v) for v in arr.ravel()], dtype=dtype).reshape(arr.shape)


_CONVERT = {str: _as_str, int: _as_int, float: _as_float}


@dataclass
class SimConfig:
    """Fully resolved episode configuration (benchmark defaults), checked
    once, here, for every caller: a config the loop cannot run raises
    ConfigurationError, and no field is assigned after construction (a
    variant is a ``dataclasses.replace`` copy).

    Each value is first converted by its field's type: no field takes a
    bool, and every number must be finite (integral in an int field and in
    ``basis_exponents``), and ``scenario`` must be a key of
    ``scenarios.WORLDS``. ``x0`` is read flat, a flat ``basis_exponents`` as
    one row, and a ``g_bar`` with neither 0 nor 2 dimensions as a column; a
    scalar c for ``Q`` or ``Gamma`` is c times the identity of size 2 or N,
    and any other ``Q`` or ``Gamma`` must have that shape as given. The
    plant has 2 states and one input, so the basis must have 2 columns,
    ``x0`` hold 2 values, ``Q`` be 2x2 and ``g_bar`` hold 2 values, as a
    column or a row. ``x0`` must lie in the DIVERGENCE_NORM ball, which the
    episode stops on leaving.

    The replay schedule and the baselines' gamma and rho are not fields:
    they are constants of this module (``BUFFER_EVERY``, ``BUFFER_UNTIL``,
    ``RANK_DEADLINE``) and of the laws in ``controllers``.

    Construction also resolves what the loop reads, as plain attributes that
    are not config keys: ``basis``, the ``BasisSet`` of ``basis_exponents``;
    ``g_bar_col``, the one input's surrogate column g_bar as 2 floats; and
    ``g_bar_pinv``, its left pseudo-inverse g_bar^+ (g_bar^+ . g_bar = 1),
    2 floats.
    """

    scenario: str = "s1"
    controller: str = "iadp"
    dt: float = 1e-3
    t_end: float = 80.0
    seed: int = 0
    xdot_source: str = "backward_difference"
    x0: np.ndarray = field(default_factory=lambda: np.array([2.0, -2.0]))
    g_bar: np.ndarray = field(default_factory=lambda: np.array([[0.0], [0.1]]))
    Q: np.ndarray = field(default_factory=lambda: np.eye(2))
    beta: float = 2.0
    c_bar: float = 2.0
    Gamma: np.ndarray = field(default_factory=lambda: 1e-4 * np.eye(6))
    k_c: float = 5.0
    k_e: float = 3.0
    buffer_size: int = 8
    basis_exponents: np.ndarray = field(default_factory=DEFAULT_EXPONENTS.copy)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                if f.type is not np.ndarray:
                    value = _CONVERT[f.type](value)
                elif f.name == "basis_exponents":
                    value = np.atleast_2d(_as_array(value, _as_int, np.int64))
                else:
                    value = _as_array(value, _as_float, float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"bad value for {f.name}: {exc}") from exc
            setattr(self, f.name, value)
        self.x0 = self.x0.ravel()
        if self.g_bar.ndim not in (0, 2):
            self.g_bar = self.g_bar.reshape(-1, 1)
        if not (self.dt > 0 and self.t_end > 0):
            raise ConfigurationError("dt and t_end must be > 0")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-6):
            raise ConfigurationError("t_end must be a multiple of dt")
        if self.seed < 0:
            raise ConfigurationError("sim.seed must be >= 0")
        if self.scenario not in WORLDS:
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.controller not in CONTROLLERS:
            raise ConfigurationError(f"unknown controller {self.controller!r}")
        if self.xdot_source not in XDOT_SOURCES:
            raise ConfigurationError(f"unknown xdot source {self.xdot_source!r}")
        if self.buffer_size < 1:
            raise ConfigurationError("learner.P must be >= 1")
        basis = self.basis = BasisSet(self.basis_exponents)
        if basis.n != 2:
            raise ConfigurationError(f"basis exponents must have 2 columns, got {basis.n}")
        if self.Q.ndim == 0:
            self.Q = self.Q * np.eye(2)
        if self.Gamma.ndim == 0:
            self.Gamma = self.Gamma * np.eye(basis.N)
        if self.Q.shape != (2, 2):
            raise ConfigurationError("Q must be 2x2")
        if not np.allclose(self.Q, self.Q.T):
            raise ConfigurationError("Q must be symmetric")
        if np.linalg.eigvalsh(self.Q)[0] <= 0.0:
            raise ConfigurationError("Q must be positive definite")
        # the control is clamped to |u| <= beta - SATURATION_MARGIN
        if not kernels.SATURATION_MARGIN < self.beta <= kernels.BETA_MAX:
            raise ConfigurationError(f"beta must be > {kernels.SATURATION_MARGIN!r} "
                                     f"and <= {kernels.BETA_MAX!r}")
        if not self.c_bar > 0.0:
            raise ConfigurationError("c_bar must be > 0")
        if self.Gamma.shape != (basis.N, basis.N):
            raise ConfigurationError("learner.Gamma shape does not match basis size")
        if not np.allclose(self.Gamma, self.Gamma.T) or np.linalg.eigvalsh(self.Gamma)[0] <= 0:
            raise ConfigurationError("Gamma must be symmetric positive definite")
        if not (self.k_c > 0 and self.k_e > 0):
            raise ConfigurationError("k_c and k_e must be > 0")
        if self.x0.shape != (2,):
            raise ConfigurationError(f"x0 must be 2 values, got {self.x0.tolist()}")
        # an x0 outside the ball stopped on state_norm after its first step
        if not math.hypot(*self.x0) <= DIVERGENCE_NORM:
            raise ConfigurationError(f"x0 must have norm <= {DIVERGENCE_NORM:g}, "
                                     "the divergence bound")
        # the plant's one input column; a single row is read as a column
        if self.g_bar.size != 2:
            raise ConfigurationError(f"g_bar must hold 2 values, got {self.g_bar.tolist()}")
        g = self.g_bar.reshape(-1, 1)
        if np.linalg.matrix_rank(g) < 1:
            raise ConfigurationError("g_bar must have full column rank")
        self.g_bar_col = tuple(g[:, 0].tolist())
        # pinv, not g / (g . g): the closed form rounds 1/0.1 to 9.999999999999998
        with np.errstate(all="ignore"):  # 1/sigma overflows for a subnormal g_bar
            pinv = np.linalg.pinv(g)[0]
        if not np.all(np.isfinite(pinv)):
            raise ConfigurationError(f"g_bar^+ of g_bar = {self.g_bar_col} is not finite")
        self.g_bar_pinv = tuple(pinv.tolist())


@dataclass
class TrajectoryLog:
    """The per-step record of one episode, one C-contiguous array per signal:
    (S, 2) for the states, (S, N) for the weights, and (S,) for the rest.
    ``insufficient_excitation`` is set when the buffer's rank is still short
    of N at RANK_DEADLINE seconds of a learning law's episode.

    The divergence contract: a log has all S rows, ``stop_cause`` "" and
    ``diverged_step`` -1, or it ends on its stop row, row ``diverged_step``,
    with the cause "state_norm" (the state left the DIVERGENCE_NORM ball
    while finite), "nonfinite_dynamics" (the integrated state came back inf
    or nan) or "nonfinite_weights" (the critic's Euler step did). |u| <=
    beta - SATURATION_MARGIN on every row but a "nonfinite_weights" stop
    row, on which u, du, theta_tilde, xi and E_u may be nan; any other u,
    nan included, is an engine fault (FloatingPointError). xi is a
    diagnostic that may overflow on any row. A rerun gives an identical log.
    """

    t: np.ndarray
    x_true: np.ndarray
    x_meas: np.ndarray
    u: np.ndarray
    du: np.ndarray
    w: np.ndarray
    theta_tilde: np.ndarray
    xi: np.ndarray
    d: np.ndarray
    E_u: np.ndarray
    E_x: np.ndarray
    rank: np.ndarray
    diverged: bool = False
    diverged_step: int = -1
    stop_cause: str = ""
    insufficient_excitation: bool = False
    fired_events: list = field(default_factory=list)
    buffer_sigma_min: float = 0.0
    wall_time: float = 0.0

    def rows(self) -> int:
        return self.t.shape[0]


# the per-step arrays' names in field order, which is the CSV's column order
TrajectoryLog.ARRAYS = tuple(f.name for f in fields(TrajectoryLog) if f.type is np.ndarray)


# the engine steps kernels.pendulum_rk4 itself; this alias stays only because
# perfbench's hook table names iadp.sim:rk4_step (its call count reads 0)
rk4_step = kernels.pendulum_rk4


def run_episode(cfg: SimConfig, world: World, on_rows=None) -> TrajectoryLog:
    """Run one closed-loop episode and return the complete per-step log.

    The per-step state (x, xm, u, w, ...) is held in Python floats and
    tuples. Each step stages its log row, t included, as one flat tuple of
    every ``TrajectoryLog.ARRAYS`` column in order, the CSV's order. Every
    LOG_CHUNK_ROWS rows (and once at the end) the staged rows are converted
    in one ``struct.pack`` into a (k, C) float64 block, the rank last as an
    exact float, and written into the preallocated log arrays, one slice of
    the block's columns per array.

    ``on_rows(block)``, if given, is called after each such write with that
    block, read-only: the blocks hold rows [0, rows) in order, each row
    once, and each row is final in the log arrays when it is handed over.
    It lets a caller consume the log while the episode runs; the returned
    log is the same with or without it. An exception it raises ends the
    episode.
    """
    t_start = time.perf_counter()

    partials = cfg.basis.partials
    N = cfg.basis.N
    dot_N = kernels._dot(N)
    difference, tde_error = tde.backward_difference, tde.tde_error
    euler = kernels._euler(N)
    g_bar_pinv = cfg.g_bar_pinv
    gamma, k_c, k_e = cfg.Gamma.tolist(), cfg.k_c, cfg.k_e
    buf = ExperienceBuffer(cfg.buffer_size, N)

    # the baselines' model: the true g and k as columns, kept through plant swaps
    g_ctrl, k_ctrl = (0.0, world.plant.g2), (world.plant.k1, world.plant.k2)
    law = {
        "iadp": lambda: IadpLaw(cfg),
        "zsadp": lambda: ZsadpLaw(cfg, g_ctrl, k_ctrl),
        "tadp": lambda: TadpLaw(cfg, g_ctrl, k_ctrl),
        "zero": ZeroLaw,
    }[cfg.controller]()
    learning = law.learns

    dt = cfg.dt
    steps = int(round(cfg.t_end / dt))
    S = steps + 1

    log = TrajectoryLog(
        t=np.zeros(S),
        x_true=np.zeros((S, 2)), x_meas=np.zeros((S, 2)),
        u=np.zeros(S), du=np.zeros(S), w=np.zeros((S, N)),
        theta_tilde=np.zeros(S), xi=np.zeros(S), d=np.zeros(S),
        E_u=np.zeros(S), E_x=np.zeros(S), rank=np.zeros(S, dtype=np.int64),
    )

    x = tuple(np.asarray(cfg.x0, dtype=float).tolist())
    w = [0.0] * N
    noise, events = world.noise, world.events
    noise_state = NoiseState(np.random.default_rng(cfg.seed))
    # the SNR reference is a running mean from t = 0, so it is tracked on
    # every step until the noise window closes, and never without noise
    track_until = noise.t_off if noise.kind != "none" else -math.inf
    clamp = cfg.beta - kernels.SATURATION_MARGIN

    cause = ""  # the stop cause, set once, on the stop row
    E_u = E_x = 0.0
    u_sq = 0.0
    x0, x1 = x
    x_sq = 0.0 + x0 * x0 + x1 * x1
    ground_truth = cfg.xdot_source == "ground_truth"
    buffer_every, buffer_until, rank_deadline = BUFFER_EVERY, BUFFER_UNTIL, RANK_DEADLINE

    # the kernel arguments of the current plant and of the disturbance
    coeffs, dist = world.plant.params, world.disturbance.packed()
    # a staged row is one flat tuple of every array's values in column
    # order; each array takes its columns of a block
    columns = []
    width = 0
    for name in TrajectoryLog.ARRAYS:
        arr = getattr(log, name)
        if arr.ndim == 2:
            columns.append((arr, slice(width, width + arr.shape[1])))
            width += arr.shape[1]
        else:
            columns.append((arr, width))
            width += 1
    staged = []
    stage = staged.append
    chunk = LOG_CHUNK_ROWS
    flushed = 0

    def flush():
        nonlocal flushed
        k = len(staged)
        # the chunk's values as one stream of native doubles, bit for bit;
        # struct converts a float in about 14 ns, np.fromiter in 23 (2 vCPUs,
        # Python 3.11); the rank is a small int, exact in float64
        block = np.frombuffer(struct.pack(f"{k * width}d", *chain.from_iterable(staged)))
        block = block.reshape(k, width)
        for arr, cols in columns:
            arr[flushed:flushed + k] = block[:, cols]
        flushed += k
        staged.clear()
        if on_rows is not None and k:
            on_rows(block)

    for i in range(S):
        t = i * dt

        # --- measurement
        if t < track_until:
            noise_state.update(x)
        xm = add_measurement_noise(x, noise, t, noise_state)

        # --- control; u is held at 0 until the sample one delay back
        # carries a real xdot estimate
        warm = i < 2
        if warm:
            u, aux = 0.0, None
        else:
            gphi_t = kernels.monomial_grad(partials, xm)
            u, aux = law.control(gphi_t, w)

        # --- the disturbance at the sample (x, t): the log's d, and RK4's
        # first stage
        d_val = disturbance_value(x0, x1, dist, t)

        # --- xdot estimate at the newest sample
        if ground_truth:
            xdot = kernels.pendulum_rhs(x0, x1, u, coeffs, d_val)
        elif i:
            xdot = difference(xm_prev, xm, dt)
        else:
            xdot = (0.0, 0.0)

        du = xi = theta_tilde = 0.0
        if not warm:
            # increments against the sample one delay L = dt back
            du = u - u_prev
            xi = tde_error(xdot, xdot_prev, du, g_bar_pinv)
            if learning:
                Y, theta = law.pair(xm, u, xdot, du, xdot_prev, gphi_t, aux)
                theta_tilde = theta + dot_N(w, Y)
                wdot = kernels.weight_derivative_kernel(
                    w, Y, theta_tilde, buf.M, buf.b, gamma, k_c, k_e)
                w_next, finite = euler(w, wdot, dt)
                if not finite:
                    # the critic has diverged: zero the non-finite entries,
                    # so the logged weights stay finite
                    w_next = [v if math.isfinite(v) else 0.0 for v in w_next]
                    cause = "nonfinite_weights"
                w = w_next

                # buffer collection: cadence while the buffer's rank is short
                # of N, and during the excitation phase while it fills or
                # once it has enriched (been offered a candidate while full)
                if i % buffer_every == 0:
                    if buf.rank < N or t < buffer_until and (
                            len(buf) < buf.capacity or buf.enriched):
                        try_insert(buf, Y, theta)
                if buf.rank < N and t >= rank_deadline:
                    log.insufficient_excitation = True

        # --- saturation fault, which a nan u fails; a critic stop row is exempt
        if not (cause or abs(u) <= clamp):
            raise FloatingPointError(
                f"saturation invariant violated at t={t!r}: u={u!r}, beta={cfg.beta!r}")

        # --- log row; x_sq is x's, from the integrate step before
        prev_u_sq, u_sq = u_sq, u * u
        if i > 0:
            E_u += 0.5 * dt * (prev_u_sq + u_sq)
            E_x += 0.5 * dt * (prev_x_sq + x_sq)
        stage((t, *x, *xm, u, du, *w, theta_tilde, xi, d_val, E_u, E_x, buf.rank))
        # the next step's sample one delay L = dt back
        xm_prev, xdot_prev, u_prev = xm, xdot, u
        if len(staged) >= chunk:
            flush()

        if cause:
            break

        # --- integrate
        if i < steps:
            x = kernels.pendulum_rk4(x, u, coeffs, dist, t, dt, d_val)
            x0, x1 = x
            prev_x_sq, x_sq = x_sq, 0.0 + x0 * x0 + x1 * x1
            # the norm is nan or inf when x is not finite
            if not math.sqrt(x_sq) <= DIVERGENCE_NORM:
                cause = "state_norm" if all(map(math.isfinite, x)) else "nonfinite_dynamics"
                x = tuple(v if math.isfinite(v)
                          else (-DIVERGENCE_NORM if v == -math.inf else DIVERGENCE_NORM)
                          for v in x)

            # --- plant swaps fire on the step that lands on or past them
            t_next = (i + 1) * dt
            fired = apply_event_schedule(events, t if i else -math.inf, t_next)
            if fired:
                log.fired_events.extend((ev.time, "swap_plant") for ev in fired)
                coeffs = fired[-1].plant.params

            if cause:
                # record the diverged state row, then stop
                stage((t_next, *x, *x, 0.0, 0.0, *w, 0.0, 0.0, 0.0, E_u, E_x, buf.rank))
                break

    flush()
    log.diverged, log.diverged_step, log.stop_cause = \
        bool(cause), flushed - 1 if cause else -1, cause
    if cause:
        # copies, so the truncated log does not keep all S rows alive
        for name in TrajectoryLog.ARRAYS:
            setattr(log, name, getattr(log, name)[:flushed].copy())
    log.buffer_sigma_min = buf.sigma_min
    log.wall_time = time.perf_counter() - t_start
    return log
