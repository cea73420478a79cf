"""Fixed-step closed-loop simulation engine.

Per step: measure (noise) -> control law -> delay line (xdot estimate,
increments) -> learner update -> buffer candidate -> integrate plant -> fire
events -> accumulate metrics. One episode is strictly sequential; separate
episodes share no mutable state.
"""

import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import kernels
from .controllers import IadpLaw, TadpLaw, ZeroLaw, ZsadpLaw
from .critic import BasisSet, CostConfig
from .learner import ExperienceBuffer, LearnerGains, step_weights, try_insert
from .plant import (ConfigurationError, ControlAffinePlant, DisturbanceSignal,
                    EventSchedule, NoiseSpec, NoiseState, NumericFault,
                    add_measurement_noise, apply_event_schedule, disturbance_value,
                    eval_dynamics)
from .tde import (DelayLine, DelaySample, IncrementalModelConfig,
                  compute_increments, estimate_xdot, true_tde_error)

DIVERGENCE_NORM = 1e6
# log rows are staged as tuples and written into the log arrays this many at
# a time; a larger chunk holds more Python objects alive (~660 B per row)
LOG_CHUNK_ROWS = 256


@dataclass
class SimConfig:
    """Fully resolved episode configuration (benchmark defaults).

    ``Q`` and ``Gamma`` may be given as a scalar c, which stands for c times
    the identity of the basis's state size n and basis size N.
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
    buffer_policy: str = "sequential_fill"
    buffer_every: int = 10
    buffer_until: float = 2.0
    rank_deadline: float = 5.0
    basis_exponents: np.ndarray = field(
        default_factory=lambda: BasisSet.default().exponents.copy())
    gamma: float = 1.0
    rho: float = 0.1
    baselines_track_swap: bool = False
    noise_absolute_power: bool = False
    learning_enabled: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError("dt must be > 0")
        if self.t_end <= 0:
            raise ConfigurationError("t_end must be > 0")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigurationError("t_end must be a multiple of dt")
        if self.controller not in ("iadp", "zsadp", "tadp", "zero"):
            raise ConfigurationError(f"unknown controller {self.controller!r}")
        if self.xdot_source not in ("backward_difference", "ground_truth"):
            raise ConfigurationError(f"unknown xdot source {self.xdot_source!r}")
        if self.buffer_size < 1 or self.buffer_every < 1:
            raise ConfigurationError("learner.P and learner.buffer_every must be >= 1")
        basis = BasisSet(self.basis_exponents)
        n = basis.n
        if np.ndim(self.Q) == 0:
            self.Q = float(self.Q) * np.eye(n)
        if np.ndim(self.Gamma) == 0:
            self.Gamma = float(self.Gamma) * np.eye(basis.N)
        if CostConfig(self.Q, self.beta, self.c_bar).Q.shape != (n, n):
            raise ConfigurationError(f"Q must be {n}x{n}")
        if np.shape(self.Gamma) != (basis.N, basis.N):
            raise ConfigurationError("learner.Gamma shape does not match basis size")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,) or not np.all(np.isfinite(x0)):
            raise ConfigurationError(f"x0 must be {n} finite values, got {self.x0}")
        if len(IncrementalModelConfig(self.g_bar).g_bar) != n:
            raise ConfigurationError(f"g_bar must have {n} rows")


@dataclass
class TrajectoryLog:
    """The per-step record of one episode, one C-contiguous array per signal.

    ``stop_cause`` says why a diverged episode stopped: "state_norm" (the
    state left the DIVERGENCE_NORM ball while finite), "nonfinite_dynamics"
    (the integrated state came back inf or nan) or "nonfinite_weights" (the
    critic's Euler step came back inf or nan); it is "" when the episode ran
    to its end.
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


class World:
    """Mutable simulation environment the event schedule acts on."""

    def __init__(self, plant, disturbance, noise):
        self.plant = plant
        self.disturbance = disturbance
        self.noise = noise


def rk4_step(plant: ControlAffinePlant, x, u, d_fn, t: float, dt: float) -> np.ndarray:
    """Classical RK4 advance of xdot = f + g u + k d with u held constant.

    ``d_fn(x, t)`` is evaluated at the stage states and times.
    """
    def rhs(xs, ts):
        return eval_dynamics(plant, xs, u, d_fn(xs, ts), ts)

    k1 = rhs(x, t)
    k2 = rhs(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _plant_matrices(plant: ControlAffinePlant, x):
    g = plant.input_map(np.asarray(x, dtype=float)).reshape(plant.n, plant.m)
    k = plant.disturbance_map(np.asarray(x, dtype=float)).reshape(plant.n, plant.q)
    return g, k


def run_episode(cfg: SimConfig, world: World,
                schedule: EventSchedule | None = None) -> TrajectoryLog:
    """Run one closed-loop episode and return the complete per-step log.

    The per-step state (x, xm, u, w, ...) is held in Python floats and
    tuples. Each step stages its log row as a tuple, and every
    LOG_CHUNK_ROWS rows (and once at the end) the staged rows are written
    into the preallocated log arrays, one slice assignment per array.
    """
    t_start = time.perf_counter()
    schedule = schedule or EventSchedule([])
    rng = np.random.default_rng(cfg.seed)

    basis = BasisSet(cfg.basis_exponents)
    N, n = basis.N, basis.n
    m = world.plant.m
    cost = CostConfig(cfg.Q, cfg.beta, cfg.c_bar)
    imc = IncrementalModelConfig(cfg.g_bar)
    gains = LearnerGains(cfg.Gamma, cfg.k_c, cfg.k_e)
    gamma = gains.Gamma.tolist()
    buf = ExperienceBuffer(cfg.buffer_size, N, cfg.buffer_policy)

    g_ctrl, k_ctrl = _plant_matrices(world.plant, cfg.x0)
    law = {
        "iadp": lambda: IadpLaw(imc, cost),
        "zsadp": lambda: ZsadpLaw(g_ctrl, k_ctrl, cfg.gamma, cost),
        "tadp": lambda: TadpLaw(g_ctrl, k_ctrl, cfg.rho, cost),
        "zero": lambda: ZeroLaw(m),
    }[cfg.controller]()
    learning = cfg.learning_enabled and law.learns

    dt = cfg.dt
    steps = int(round(cfg.t_end / dt))
    S = steps + 1
    line = DelayLine(dt)

    log = TrajectoryLog(
        t=np.arange(S) * dt,
        x_true=np.zeros((S, n)), x_meas=np.zeros((S, n)),
        u=np.zeros((S, m)), du=np.zeros((S, m)), w=np.zeros((S, N)),
        theta_tilde=np.zeros(S), xi=np.zeros((S, m)), d=np.zeros(S),
        E_u=np.zeros(S), E_x=np.zeros(S), rank=np.zeros(S, dtype=np.int64),
    )

    x = tuple(np.asarray(cfg.x0, dtype=float).tolist())
    w = [0.0] * N
    zero_m, zero_n = (0.0,) * m, (0.0,) * n
    noise_state = NoiseState(n)
    # the SNR reference is a running mean from t = 0, so it is tracked on
    # every step whenever noise is on or an event can switch it on
    track_noise = world.noise.kind != "none" or any(
        ev.action == "set_noise" for ev in schedule.events)
    clamp = cfg.beta - 1e-12

    rank_val = 0
    sigma_min = 0.0
    rank_complete = False
    E_u = E_x = 0.0
    u_sq = 0.0
    x_sq = kernels.dot(x, x)
    ground_truth = cfg.xdot_source == "ground_truth"
    buffer_every = cfg.buffer_every

    def plant_kernel():
        """Fused-kernel parameters of the current world, or None for the
        generic RK4 path."""
        p = world.plant.pendulum_params
        if p is None or m != 1 or n != 2:
            return None
        return tuple(p.tolist()), tuple(world.disturbance.packed().tolist())

    fused = plant_kernel()
    # the arrays in the order of a staged row's fields
    columns = (log.x_true, log.x_meas, log.u, log.du, log.w, log.theta_tilde,
               log.xi, log.d, log.rank, log.E_u, log.E_x)
    staged = []
    stage = staged.append
    chunk = LOG_CHUNK_ROWS
    flushed = 0

    def flush():
        nonlocal flushed
        k = len(staged)
        for arr, col in zip(columns, zip(*staged)):
            if arr.ndim == 2:
                # one flat float stream converts faster than k short rows
                col = np.fromiter(chain.from_iterable(col), float).reshape(k, -1)
            arr[flushed:flushed + k] = col
        flushed += k
        staged.clear()

    for i in range(S):
        t = i * dt

        # --- measurement
        if track_noise:
            noise_state.update(x)
        xm = add_measurement_noise(x, world.noise, t, rng, noise_state)

        # --- control; u is held at 0 until the sample one delay back
        # carries a real xdot estimate
        warm = i < 2
        if warm:
            u = zero_m
            aux = None
        else:
            gphi_t = kernels.monomial_grad(basis.partials, xm)
            u, aux = law.control(gphi_t, w)
        if max(map(abs, u)) > clamp:
            raise FloatingPointError(
                f"saturation invariant violated at t={t!r}: u={list(u)!r}, "
                f"beta={cfg.beta!r}")

        # --- disturbance actually applied at the sample time (for log / gt xdot)
        d_val = disturbance_value(world.disturbance, x, t)

        # --- delay line: the newest sample and its xdot estimate
        now = DelaySample(t, xm, None, u)
        if ground_truth:
            now.xdot = tuple(eval_dynamics(world.plant, x, u, d_val, t).tolist())
        line.push(now)
        if not ground_truth:
            now.xdot = estimate_xdot(line) if i >= 1 else zero_n

        theta_tilde = 0.0
        if warm:
            du = xi = zero_m
        else:
            rec = compute_increments(line)
            du = rec.du
            xi = true_tde_error(rec, imc)
            if learning:
                Y, theta = law.pair(now, rec, gphi_t, aux)
                theta_tilde = theta + kernels.dot(w, Y)
                wdot = kernels.weight_derivative_kernel(
                    w, Y, theta_tilde, buf.M, buf.b, gamma, gains.k_c, gains.k_e)
                w, finite = step_weights(w, wdot, dt)
                if not finite:
                    log.diverged = True
                    log.diverged_step = i
                    log.stop_cause = "nonfinite_weights"

                # buffer collection: cadence during the excitation phase, then
                # keep collecting while the rank condition is unmet
                if i % buffer_every == 0 and all(map(math.isfinite, Y)) \
                        and math.isfinite(theta):
                    want = t < cfg.buffer_until or not rank_complete
                    if want and (len(buf) < buf.capacity
                                 or buf.policy == "sigma_min_enrich"
                                 or not rank_complete):
                        if len(buf) >= buf.capacity and buf.policy == "sequential_fill":
                            # rank still short past the fill phase: enrich instead
                            buf.policy = "sigma_min_enrich"
                        ins, rep = try_insert(buf, Y, theta)
                        if ins:
                            rank_val, sigma_min = rep.rank, rep.sigma_min
                            rank_complete = rank_val >= N
                if not rank_complete and t >= cfg.rank_deadline:
                    log.insufficient_excitation = True

        # --- log row; x_sq is x's, from the integrate step before
        prev_u_sq, u_sq = u_sq, kernels.dot(u, u)
        if i > 0:
            E_u += 0.5 * dt * (prev_u_sq + u_sq)
            E_x += 0.5 * dt * (prev_x_sq + x_sq)
        stage((x, xm, u, du, w, theta_tilde, xi, d_val[0], rank_val, E_u, E_x))
        if len(staged) >= chunk:
            flush()

        if log.diverged:
            break

        # --- integrate
        if i < steps:
            if fused:
                x = kernels.pendulum_rk4(x, u[0], *fused, t, dt)
            else:
                try:
                    # the generic path runs in numpy; a diverging state may
                    # overflow it before the divergence check below trips
                    with np.errstate(over="ignore", invalid="ignore"):
                        x = tuple(rk4_step(
                            world.plant, x, u,
                            lambda xs, ts: disturbance_value(world.disturbance, xs, ts),
                            t, dt).tolist())
                except NumericFault:
                    x = (math.nan,) * n
            prev_x_sq, x_sq = x_sq, kernels.dot(x, x)
            # the norm is nan or inf when x is not finite
            if not math.sqrt(x_sq) <= DIVERGENCE_NORM:
                log.diverged = True
                log.diverged_step = i + 1
                log.stop_cause = ("state_norm" if all(map(math.isfinite, x))
                                  else "nonfinite_dynamics")
                x = tuple(v if math.isfinite(v)
                          else (-DIVERGENCE_NORM if v == -math.inf else DIVERGENCE_NORM)
                          for v in x)

            # --- events fire at the time the step lands on
            fired = apply_event_schedule(schedule, (i + 1) * dt, world)
            if fired:
                log.fired_events.extend((ev.time, ev.action) for ev in fired)
                fused = plant_kernel()
                if cfg.baselines_track_swap:
                    law.rebind(*_plant_matrices(world.plant, x))

            if log.diverged:
                # record the diverged state row, then stop
                stage((x, x, zero_m, zero_m, w, 0.0, zero_m, 0.0, rank_val, E_u, E_x))
                break

    flush()
    rows = log.diverged_step + 1 if log.diverged else S
    if log.diverged:
        # copies, so the truncated log does not keep all S rows alive
        for name in ("t", "x_true", "x_meas", "u", "du", "w", "theta_tilde",
                     "xi", "d", "E_u", "E_x", "rank"):
            setattr(log, name, getattr(log, name)[:rows].copy())
    log.buffer_sigma_min = sigma_min
    log.wall_time = time.perf_counter() - t_start
    return log
