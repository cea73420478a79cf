"""Outcome checks applied to every benchmark episode and CLI manifest.

The checks are the seed-independent properties of the acceptance gate
(tests/test_acceptance.py), plus final E_u/E_x against values recorded at
the commit that introduced the benchmark, wherever those values do not
depend on the seed.
"""

import numpy as np

from iadp.cli import config_dict, parse_config

# c05 bound, inclusive: s3 iadp sits exactly on the clamp for several seeds.
SATURATION_MARGIN = 1e-12

# the model-based baselines keep their pre-swap model on s3 and diverge
DIVERGING = {("s3", "zsadp"), ("s3", "tadp")}
DIVERGE_WINDOW = (20.0, 60.0)

# (scenario, controller) -> (E_u, E_x) at the end of the seed-0 episode.
REFERENCE = {
    ("s1", "iadp"): (0.05203450805071309, 58.43341615381633),
    ("s2", "iadp"): (0.0697056774237485, 180.40495461723464),
    ("s3", "iadp"): (48.3714275219865, 58.67914347807221),
    ("s3", "zsadp"): (0.5309852558906478, 59.34351644772594),
    ("s3", "tadp"): (1.3117531904023967, 61.22338204319884),
}
# Relative tolerance on E_u/E_x. Re-associating the per-step float
# arithmetic (plain-float kernels, vectorised replay sums) moves states and
# weights by 1e-19..1e-15; summed over 80,000 trapezoid terms that stays
# below 1e-11. The tightest margin the acceptance gate prints (c08, E_x of
# iadp vs tadp) is 3e-4. 1e-6 admits the first and catches anything that
# would move a printed acceptance number.
REFERENCE_RTOL = 1e-6


def reference_applies(cfg) -> bool:
    """s1 has no measurement noise, so its episode ignores the seed."""
    return cfg.seed == 0 or cfg.scenario == "s1"


def check_episode(cfg, log) -> list[str]:
    """Problems found in one episode's log; empty when the outcome is right."""
    problems = []
    tag = f"{cfg.scenario}/{cfg.controller}/seed{cfg.seed}"
    u_max = float(np.max(np.abs(log.u)))
    if not u_max <= cfg.beta - SATURATION_MARGIN:
        problems.append(f"{tag}: max|u| {u_max!r} exceeds beta - 1e-12")

    steps = int(round(cfg.t_end / cfg.dt)) + 1
    t_last = float(log.t[-1])
    if (cfg.scenario, cfg.controller) in DIVERGING:
        lo, hi = DIVERGE_WINDOW
        if not (log.diverged and lo < t_last < hi):
            problems.append(f"{tag}: expected divergence inside ({lo}, {hi}) s, "
                            f"diverged={log.diverged} at t={t_last}")
    elif log.diverged or log.rows() != steps:
        problems.append(f"{tag}: {log.rows()} of {steps} rows, "
                        f"diverged={log.diverged}")

    x_norm = np.linalg.norm(log.x_true, axis=1)
    if (cfg.scenario, cfg.controller) == ("s1", "iadp"):
        sup = float(np.max(x_norm[-(log.rows() // 4):]))
        if not sup <= 0.1:
            problems.append(f"{tag}: final-quarter sup||x|| {sup:.4g} > 0.1")
    if (cfg.scenario, cfg.controller) == ("s3", "iadp"):
        window = (log.t >= 20.0) & (log.t <= 60.0)
        sup = float(np.max(x_norm[window]))
        if not sup <= 5.0:
            problems.append(f"{tag}: sup||x|| on [20, 60] {sup:.4g} > 5")

    ref = REFERENCE.get((cfg.scenario, cfg.controller))
    if ref is not None and reference_applies(cfg):
        for name, want, got in zip(("E_u", "E_x"), ref,
                                   (float(log.E_u[-1]), float(log.E_x[-1]))):
            if not abs(got - want) <= REFERENCE_RTOL * abs(want):
                problems.append(f"{tag}: final {name} {got!r}, "
                                f"reference {want!r}")
    return problems


def check_manifest(path, overrides: dict) -> list[str]:
    """The manifest must re-parse to the config the same CLI flags resolve to."""
    want = config_dict(parse_config(None, overrides))
    got = config_dict(parse_config(path))
    bad = [key for key in want
           if not np.array_equal(np.asarray(want[key]), np.asarray(got[key]))]
    return [f"{path}: manifest re-parses with different {key}" for key in bad]
