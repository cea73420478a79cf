"""Span accounting for the traced benchmark run.

Hooks replace a function at the name its caller looks up (a module
attribute such as ``iadp.sim.try_insert``) with a wrapper that times each
call. Calls are synchronous and properly nested, so each span's children
run one after another inside it: a span's self time is its duration minus
the summed durations of its direct children. The tracer therefore keeps one
running total per name instead of every span (an 80 s episode makes about
700,000 of them).
"""

import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    """Per-name call counts, total time and child time of wrapped calls."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.totals: dict[str, SpanTotals] = {}
        self._stack: list[list[int]] = []

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` timed under ``name``.

        ``on_return(args, kwargs, result)`` runs after the span closes, so
        whatever it costs is charged to no span.
        """
        totals = self.totals.setdefault(name, SpanTotals())
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                totals.calls += 1
                totals.total_ns += duration
                totals.child_ns += children[0]
                if stack:
                    stack[-1][0] += duration
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def get(self, name) -> SpanTotals:
        return self.totals.get(name, SpanTotals())


def resolve(target):
    """Look up ``"pkg.mod:Attr.path"``: (owner object, attribute name, value).

    Raises AttributeError or ImportError when the target does not exist.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(tracer, hooks, note=None):
    """Wrap every (metric name, target, on_return) hook that resolves.

    A target that no longer exists is skipped with a printed note, and the
    names of the skipped hooks are returned. The second return value undoes
    the patches, last first.
    """
    note = note or (lambda msg: print(msg, file=sys.stderr))
    missing, undo = [], []
    for name, target, on_return in hooks:
        try:
            owner, attr, original = resolve(target)
        except (ImportError, AttributeError):
            note(f"perfbench: hook target {target} not found; "
                 f"dropping the {name}.* metrics")
            missing.append(name)
            continue
        setattr(owner, attr, tracer.wrap(name, original, on_return))
        undo.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return missing, restore
