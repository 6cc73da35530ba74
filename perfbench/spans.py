"""The benchmark's own span recorder, wrapped around public module functions.

Tracing never edits the package: for a traced call the harness replaces
each function named in :data:`TARGETS` — everywhere a ``repro`` module
holds a reference to it, so ``from x import f`` call sites are covered —
with a wrapper that records ``(name, start, end, parent)``.  Spans stay
in memory and are written once, when the benchmark ends.  ``uninstall``
puts the originals back, so untraced calls in the same process run the
package's own code with no wrapper in the way.

A span's self time is its duration minus the time its child spans cover;
summed by span name that gives the per-layer split.  Spans are only
recorded in the process that installed the wrappers: work a farm pool
runs in its workers is accounted from the per-task telemetry snapshots
instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from repro import obs

#: (module, attribute, span name) — the public call into each layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.compiler.driver", "compile_to_program", "compiler.compile"),
    ("repro.core.subset_analysis", "profile_program", "subset.profile"),
    ("repro.rtl.rissp", "build_rissp", "rissp.build"),
    ("repro.analysis.rtl_lint", "structural_facts", "analysis.lint"),
    ("repro.rtl.compiled", "compile_module", "compiled.compile_module"),
    ("repro.rtl.compiled", "compile_core", "compiled.compile_core"),
    ("repro.rtl.compiled", "compile_fleet", "compiled.compile_fleet"),
    ("repro.rtl.core_sim", "RisspSim.__init__", "core_sim.construct"),
    ("repro.rtl.core_sim", "RisspSim.run", "core_sim.run"),
    ("repro.rtl.core_sim", "cosimulate", "core_sim.cosimulate"),
    ("repro.sim.golden", "GoldenSim.__init__", "golden.construct"),
    ("repro.sim.golden", "GoldenSim.run", "golden.run"),
    ("repro.verify.riscof", "run_compliance", "riscof.compliance"),
    ("repro.verify.rvfi", "check_trace", "rvfi.check"),
    ("repro.synth.report", "synthesize", "synth.synthesize"),
    ("repro.physical.flow", "implement", "physical.implement"),
    ("repro.rtl.fleet", "FleetSim.__init__", "fleet.construct"),
    ("repro.rtl.fleet", "FleetSim.run", "fleet.run"),
    ("repro.farm.runner", "run_tasks", "farm.run_tasks"),
)


class Recorder:
    """Spans in memory: ``[name, start, end, parent, tasks_at_open,
    tasks_at_close]``; the task marks index the active telemetry
    session's farm snapshots, so a ``run_tasks`` span knows its tasks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           _task_mark(), 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = _task_mark()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a root span (the workload's public call)."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # ------------------------------------------------------- wrappers

    def install(self) -> None:
        """Wrap every target, in its home and wherever it was imported."""
        for module_name, attribute, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                wrapped = self._wrap(original, span_name)
                setattr(owner, method, wrapped)
                self._installed.append((owner, method, original, wrapped))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(original, span_name)
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapped)
                        self._installed.append(
                            (holder, name, original, wrapped))

    def uninstall(self) -> None:
        for holder, name, original, wrapped in reversed(self._installed):
            if getattr(holder, name, None) is wrapped:
                setattr(holder, name, original)
        self._installed.clear()

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    # ------------------------------------------------------ analysis

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self seconds by span name over ``spans[first:]``."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - first
            if parent >= 0:
                child_time[parent] += span[2] - span[1]
        totals: dict[str, float] = {}
        for span, children in zip(spans, child_time):
            totals[span[0]] = totals.get(span[0], 0.0) + \
                (span[2] - span[1]) - children
        return totals

    def durations(self, name: str, first: int = 0) -> list[float]:
        return [span[2] - span[1] for span in self.spans[first:]
                if span[0] == name]

    def named(self, name: str, first: int = 0) -> list[list]:
        return [span for span in self.spans[first:] if span[0] == name]


def _task_mark() -> int:
    active = obs.get()
    return len(active.tasks) if active is not None else 0
