"""Fixed-step closed-loop simulation engine.

Per step: measure (noise) -> control law -> delay line (xdot estimate,
increments) -> learner update -> buffer candidate -> integrate plant -> fire
events -> accumulate metrics. One episode is strictly sequential; separate
episodes share no mutable state.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .controllers import IadpLaw, TadpLaw, ZeroLaw, ZsadpLaw
from .critic import BasisSet, CostConfig
from .learner import ExperienceBuffer, LearnerGains, step_weights, try_insert
from .plant import (ConfigurationError, ControlAffinePlant, DisturbanceSignal,
                    EventSchedule, NoiseSpec, NoiseState, add_measurement_noise,
                    apply_event_schedule, disturbance_value, eval_dynamics)
from .tde import (DelayLine, DelaySample, IncrementalModelConfig,
                  compute_increments, estimate_xdot, true_tde_error)

DIVERGENCE_NORM = 1e6


@dataclass
class SimConfig:
    """Fully resolved episode configuration (benchmark defaults)."""

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
        if CostConfig(self.Q, self.beta, self.c_bar).Q.shape != (n, n):
            raise ConfigurationError(f"Q must be {n}x{n}")
        if np.shape(self.Gamma) != (basis.N, basis.N):
            raise ConfigurationError("learner.Gamma shape does not match basis size")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,) or not np.all(np.isfinite(x0)):
            raise ConfigurationError(f"x0 must be {n} finite values, got {self.x0}")
        if IncrementalModelConfig(self.g_bar).g_bar.shape[0] != n:
            raise ConfigurationError(f"g_bar must have {n} rows")


@dataclass
class TrajectoryLog:
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
    """Run one closed-loop episode and return the complete per-step log."""
    t_start = time.perf_counter()
    schedule = schedule or EventSchedule([])
    rng = np.random.default_rng(cfg.seed)

    basis = BasisSet(cfg.basis_exponents)
    exps = basis.exponents
    N, n = basis.N, basis.n
    m = world.plant.m
    cost = CostConfig(cfg.Q, cfg.beta, cfg.c_bar)
    imc = IncrementalModelConfig(cfg.g_bar)
    gains = LearnerGains(cfg.Gamma, cfg.k_c, cfg.k_e)
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

    x = np.asarray(cfg.x0, dtype=float).copy()
    w = np.zeros(N)
    noise_state = NoiseState(n)
    clamp = cfg.beta - 1e-12

    rank_val = 0
    sigma_min = 0.0
    rank_complete = False
    prev_u_sq = 0.0
    prev_x_sq = float(x @ x)
    fused = world.plant.pendulum_params is not None and m == 1 and n == 2
    pparams = world.plant.pendulum_params
    dparams = world.disturbance.packed()

    # a diverging baseline overflows its quadratic cost terms before the
    # divergence flag trips; silence the transient overflow warnings
    _err = np.seterr(over="ignore", invalid="ignore")
    for i in range(S):
        t = i * dt

        # --- measurement
        noise_state.update(x)
        xm = add_measurement_noise(x, world.noise, t, rng, noise_state)

        # --- control; u is held at 0 until the sample one delay back
        # carries a real xdot estimate
        warm = i < 2
        if warm:
            u = np.zeros(m)
            aux = None
        else:
            gphi = kernels.monomial_grad(exps, xm)
            u, aux = law.control(gphi, w)
        if np.any(np.abs(u) > clamp):
            raise FloatingPointError("saturation invariant violated")

        # --- disturbance actually applied at the sample time (for log / gt xdot)
        d_val = disturbance_value(world.disturbance, x, t)

        # --- delay line: the newest sample and its xdot estimate
        now = DelaySample(t, xm, None, u)
        if cfg.xdot_source == "ground_truth":
            now.xdot = eval_dynamics(world.plant, x, u, d_val, t)
        line.push(now)
        if cfg.xdot_source == "backward_difference":
            now.xdot = estimate_xdot(line) if i >= 1 else np.zeros(n)

        theta_tilde = 0.0
        if warm:
            du, xi = np.zeros(m), np.zeros(m)
        else:
            rec = compute_increments(line)
            du = rec.du
            xi = true_tde_error(rec, imc)
            if learning:
                Y, theta = law.pair(now, rec, gphi, aux)
                theta_tilde = float(theta + w @ Y)
                wdot = kernels.weight_derivative_kernel(
                    w, Y, theta, buf.Y, buf.Theta, gains.Gamma, gains.k_c, gains.k_e)
                w, finite = step_weights(w, wdot, dt)
                if not finite:
                    log.diverged = True
                    log.diverged_step = i

                # buffer collection: cadence during the excitation phase, then
                # keep collecting while the rank condition is unmet
                if i % cfg.buffer_every == 0 and np.all(np.isfinite(Y)) \
                        and np.isfinite(theta):
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
                if t >= cfg.rank_deadline and not rank_complete:
                    log.insufficient_excitation = True

        # --- log row
        log.x_true[i] = x
        log.x_meas[i] = xm
        log.u[i] = u
        log.du[i] = du
        log.w[i] = w
        log.theta_tilde[i] = theta_tilde
        log.xi[i] = xi
        log.d[i] = d_val[0] if d_val.shape[0] == 1 else np.linalg.norm(d_val)
        log.rank[i] = rank_val
        u_sq = float(u @ u)
        x_sq = float(x @ x)
        if i > 0:
            log.E_u[i] = log.E_u[i - 1] + 0.5 * dt * (prev_u_sq + u_sq)
            log.E_x[i] = log.E_x[i - 1] + 0.5 * dt * (prev_x_sq + x_sq)
        prev_u_sq, prev_x_sq = u_sq, x_sq

        if log.diverged:
            break

        # --- integrate
        if i < steps:
            if fused:
                x = kernels.pendulum_rk4(x, u[0], pparams, dparams, t, dt)
            else:
                x = rk4_step(world.plant, x, u,
                             lambda xs, ts: disturbance_value(world.disturbance, xs, ts),
                             t, dt)
            if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_NORM:
                log.diverged = True
                log.diverged_step = i + 1
                x = np.where(np.isfinite(x), x, np.sign(x) * DIVERGENCE_NORM)
                x = np.nan_to_num(x, nan=DIVERGENCE_NORM,
                                  posinf=DIVERGENCE_NORM, neginf=-DIVERGENCE_NORM)

            # --- events fire at the time the step lands on
            fired = apply_event_schedule(schedule, (i + 1) * dt, world)
            if fired:
                log.fired_events.extend((ev.time, ev.action) for ev in fired)
                fused = world.plant.pendulum_params is not None and m == 1 and n == 2
                pparams = world.plant.pendulum_params
                dparams = world.disturbance.packed()
                if cfg.baselines_track_swap:
                    law.rebind(*_plant_matrices(world.plant, x))

            if log.diverged:
                # record the diverged state row, then stop
                log.x_true[i + 1] = x
                log.x_meas[i + 1] = x
                log.w[i + 1] = w
                log.rank[i + 1] = rank_val
                log.E_u[i + 1] = log.E_u[i]
                log.E_x[i + 1] = log.E_x[i]
                break

    np.seterr(**_err)
    rows = log.diverged_step + 1 if log.diverged else S
    if log.diverged:
        for name in ("t", "x_true", "x_meas", "u", "du", "w", "theta_tilde",
                     "xi", "d", "E_u", "E_x", "rank"):
            setattr(log, name, getattr(log, name)[:rows])
    log.buffer_sigma_min = sigma_min
    log.wall_time = time.perf_counter() - t_start
    return log
