"""perfbench's per-layer timers still find every function they wrap.

perfbench patches the module attributes the engine looks up (such as
``iadp.kernels.monomial_grad`` and ``iadp.sim.try_insert``); a rename or a
call that bypasses the module would silently drop a per-layer metric. This
installs perfbench's own hook table around a short s2 iadp episode, which
has noise, a plant swap and buffer insertions, and requires every per-step
span to count calls.
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


def test_every_per_step_hook_counts_calls():
    originals = {name: getattr(kernels, name) for name in workload.KERNELS}
    tracer, counts = spans.Tracer(), workload.Counts()
    missing, restore = spans.install(tracer, workload.hooks(counts))
    try:
        log = run_scenario(SimConfig(scenario="s2", controller="iadp", t_end=20.5))
    finally:
        restore()
    assert missing == []
    assert counts.broken == set()
    assert not log.diverged and log.fired_events == [(20.0, "swap_plant")]
    assert [name for name in PER_STEP if tracer.get(name).calls == 0] == []
    assert tracer.get("sim.run_episode").calls == 1
    # one logged d per row; the RK4 stages call the kernel under its own name
    assert tracer.get("plant.disturbance_value").calls == log.rows()
    # the hooks are gone again
    assert {name: getattr(kernels, name) for name in workload.KERNELS} == originals
    assert not hasattr(sim.try_insert, "__wrapped__")
