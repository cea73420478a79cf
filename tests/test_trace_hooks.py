"""perfbench's per-layer timers still find every function they wrap.

perfbench patches the module attributes the engine looks up (such as
``iadp.kernels.monomial_grad`` and ``iadp.sim.try_insert``); a rename or a
call that bypasses the module would silently drop a per-layer metric. This
installs perfbench's own hook table around a short s2 iadp episode, which
has noise, a plant swap and buffer insertions, and requires every per-step
span to count exactly its calls a step. The shape kernels are bound per law
and episode instead, so the generic ``kernels.dot``, the one generic wrapper,
must stay off the step path: it may run only in the replay buffer's Gram
rebuilds, N*N + N calls each. RK4's own ``kernels.disturbance_value`` is
hooked too: it evaluates d at stages 2-4 only, as stage 1 takes the logged d.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workload  # noqa: E402

from iadp import kernels, sim  # noqa: E402
from iadp.scenarios import run_scenario  # noqa: E402
from iadp.sim import SimConfig  # noqa: E402

PER_STEP = ([f"kernels.{k}" for k in workload.KERNELS]
            + [f"plant.{p}" for p in workload.PLANT] + ["learner.try_insert"])
GENERIC = ("dot",)


def test_every_per_step_hook_counts_calls():
    originals = {name: getattr(kernels, name) for name in workload.KERNELS}
    tracer, counts = spans.Tracer(), workload.Counts()
    generic = [(f"generic.{k}", f"iadp.kernels:{k}", None) for k in GENERIC]
    generic.append(("rk4.disturbance_value", "iadp.kernels:disturbance_value", None))
    missing, restore = spans.install(tracer, workload.hooks(counts) + generic)
    try:
        log = run_scenario(SimConfig(scenario="s2", controller="iadp", t_end=20.5))
    finally:
        restore()
    assert missing == []
    assert counts.broken == set()
    assert not log.diverged and log.fired_events == [(20.0, "swap_plant")]
    assert [name for name in PER_STEP if tracer.get(name).calls == 0] == []
    assert tracer.get("sim.run_episode").calls == 1
    rows = log.rows()
    assert rows == 20501
    # one logged d per row; the RK4 stages call the kernel under its own name
    assert tracer.get("plant.disturbance_value").calls == rows
    # one RK4 step between rows; the law and the critic from the third row
    assert tracer.get("kernels.pendulum_rk4").calls == rows - 1
    # RK4's stages 2-4 evaluate d; stage 1 takes the row's logged d
    assert tracer.get("rk4.disturbance_value").calls == 3 * (rows - 1)
    for k in ("monomial_grad", "saturated_control", "penalty_sat",
              "weight_derivative_kernel"):
        assert tracer.get(f"kernels.{k}").calls == rows - 2, k
    assert tracer.get("plant.NoiseState.update").calls == rows
    # the buffer's Gram rebuilds only: one when it is built and one per
    # accepted insert, each N*N + N dots for M and b (378 here)
    N = log.w.shape[1]
    assert tracer.get("generic.dot").calls == (N * N + N) * (1 + counts.accepted)
    # the hooks are gone again
    assert {name: getattr(kernels, name) for name in workload.KERNELS} == originals
    assert not hasattr(sim.try_insert, "__wrapped__")
