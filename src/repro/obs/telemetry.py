"""Counters and spans: the zero-overhead-when-off telemetry core.

Design rules (the whole subsystem hangs off them):

* **Off means off.**  The module-global :data:`_ACTIVE` session is
  ``None`` unless a caller opened :func:`session`; every instrumented
  site in the stack is one global read plus an ``is not None`` check
  before doing anything at all.  Nothing is ever injected into
  exec-compiled generated code — counters are bumped only at the Python
  re-entry points the hot loops already have (fused-loop callbacks,
  compile functions, farm task boundaries), so the generated
  ``run_cycles``/``run_fleet`` inner loops are byte-identical with
  telemetry on or off.

* **Fixed counter registry.**  A session's counter dict is initialized
  from :data:`COUNTERS` — every canonical counter, all zero — so the
  *structure* of a merged telemetry snapshot (its key set) is a constant
  of the build, never a function of which branches a particular run
  happened to execute.  This is what makes farm telemetry bit-identical
  in structure across worker counts: a worker that never diverged a
  fleet lane still reports ``fleet.diverge.trap: 0``.

* **Plain ints, plain dicts.**  A bump is ``counters[name] += 1`` on a
  plain dict; a span is two ``perf_counter`` reads.  No locks — sessions
  are per-process (workers open their own; snapshots merge explicitly).

Counter taxonomy (see README for the narrative):

``fused.*``
    Single-instance fused-loop activity: runs, retirements, and every
    cause that re-enters Python (halt, MMIO load/store, emulated
    Zicsr/wfi, mret, illegal word, hardware ecall/ebreak trap,
    arbitrated interrupt entry).
``decode_cache.*``
    The shared per-word decode cache: ``lookups`` counts retirements
    through the fused loop; ``misses`` is exact (cache growth).  Emulated
    Zicsr/``wfi`` and RV32E-bound retirements never probe the cache, so
    ``lookups`` over-counts probes and the derived hit rate is an upper
    bound.
``compile_cache.*``
    Structural-fingerprint compile caches (per-cycle module, fused core,
    batched fleet): hit/miss per ``compile_*`` call.
``fleet.*``
    Batched-fleet lane lifecycle: passes, in-batch halts, and lane
    divergences classified by cause (fetch, emulated, mret, rv32e_bound,
    illegal, trap, load_oob, store_oob, other).
``riscof.*``
    Golden-signature memo of the compliance flow: lookups, in-process
    memo hits, full golden recomputes (hits + recomputes == lookups).
``farm.*``
    Task counts and worker-side core rebuilds (per-process memo hit vs
    full build).
``scenario.*``
    Coverage-guided scenario engine: scenarios executed, golden-replay
    cross-checks, mutation-loop spawns, and replayable failures.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

#: The canonical counter registry.  Every :class:`Telemetry` session
#: carries exactly these keys (all zero at start); instrumented sites
#: may only bump names listed here.
COUNTERS: tuple[str, ...] = (
    # -- single-instance fused loop: Python re-entries by cause
    "fused.runs",
    "fused.retired",
    "fused.exit.halt",
    "fused.exit.mmio_load",
    "fused.exit.mmio_store",
    "fused.exit.emulated",
    "fused.exit.mret",
    "fused.exit.illegal",
    "fused.exit.hw_trap",
    "fused.exit.interrupt",
    # -- shared per-word decode cache
    "decode_cache.lookups",
    "decode_cache.misses",
    # -- structural-fingerprint compile caches
    "compile_cache.module.hit",
    "compile_cache.module.miss",
    "compile_cache.core.hit",
    "compile_cache.core.miss",
    "compile_cache.fleet.hit",
    "compile_cache.fleet.miss",
    # -- batched fleet lane lifecycle
    "fleet.passes",
    "fleet.lane_halt",
    "fleet.diverge.fetch",
    "fleet.diverge.emulated",
    "fleet.diverge.mret",
    "fleet.diverge.rv32e_bound",
    "fleet.diverge.illegal",
    "fleet.diverge.trap",
    "fleet.diverge.load_oob",
    "fleet.diverge.store_oob",
    "fleet.diverge.other",
    # -- riscof golden-signature memo
    "riscof.sig_lookup",
    "riscof.sig_memo_hit",
    "riscof.sig_recompute",
    # -- farm
    "farm.tasks",
    "farm.core_rebuild.memo_hit",
    "farm.core_rebuild.build",
    # -- coverage-guided scenario engine
    "scenario.runs",
    "scenario.replays",
    "scenario.mutants",
    "scenario.failures",
)

#: Keys every farm task snapshot carries (see
#: :func:`repro.farm.runner.execute_task_telemetry`); fixed so snapshot
#: structure is a constant, like the counter registry.
TASK_SNAPSHOT_KEYS: tuple[str, ...] = (
    "task_id", "pid", "start_wall", "queue_wait_sec", "run_sec",
    "counters")


class Telemetry:
    """One telemetry session: counters + spans + merged task snapshots.

    Not thread-safe and not meant to be: a session belongs to one
    process.  Worker processes open their own session per task and ship
    a plain-dict snapshot back (see the farm runner); the parent merges
    snapshots in submission order via :meth:`add_task`.
    """

    __slots__ = ("counters", "spans", "tasks", "pid", "start_wall", "_t0")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self.spans: list[dict] = []
        self.tasks: list[dict] = []
        self.pid = os.getpid()
        self.start_wall = time.time()
        self._t0 = time.perf_counter()

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[dict]:
        """Record one labeled span (wall-clock start for timeline
        placement, monotonic-clock duration for accuracy)."""
        record = {"name": name,
                  "start_sec": time.time() - self.start_wall,
                  "dur_sec": 0.0,
                  "labels": dict(labels)}
        started = time.perf_counter()
        self.spans.append(record)
        try:
            yield record
        finally:
            record["dur_sec"] = time.perf_counter() - started

    def add_task(self, snapshot: dict) -> None:
        """Merge one worker task snapshot (submission order = call
        order; the farm runner guarantees it)."""
        self.tasks.append(snapshot)

    def merged_counters(self) -> dict[str, int]:
        """Session counters plus the sum of every task snapshot's —
        the whole-run totals the manifest reports."""
        merged = dict(self.counters)
        for snapshot in self.tasks:
            for name, value in snapshot["counters"].items():
                merged[name] = merged.get(name, 0) + value
        return merged


#: The active session, or None (telemetry off).  Instrumented sites read
#: this exact global; keep it a single attribute so the off path stays
#: one load + one identity check.
_ACTIVE: Telemetry | None = None


def get() -> Telemetry | None:
    """The active session, or None when telemetry is off."""
    return _ACTIVE


def bump(name: str, amount: int = 1) -> None:
    """Bump one counter if a session is active (no-op otherwise)."""
    active = _ACTIVE
    if active is not None:
        active.counters[name] += amount


@contextmanager
def session() -> Iterator[Telemetry]:
    """Open a telemetry session for the duration of the ``with`` block.

    Nestable: an inner session shadows the outer one (the farm's serial
    path uses this so ``workers=1`` task snapshots have exactly the same
    shape as pool snapshots) and the outer session is restored on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = active = Telemetry()
    try:
        yield active
    finally:
        _ACTIVE = previous


@contextmanager
def span(name: str,
         **labels: object) -> Iterator[dict | None]:
    """Span on the active session; a no-op context when telemetry is
    off."""
    active = _ACTIVE
    if active is None:
        yield None
        return
    with active.span(name, **labels) as record:
        yield record
