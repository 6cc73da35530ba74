"""The work-queue runner: shard picklable tasks across a process pool.

``run_tasks`` is deliberately tiny and completely deterministic from the
caller's point of view:

* ``workers=1`` executes the tasks in order, in-process — the *exact*
  serial path, no pool, no pickling;
* ``workers>1`` submits every task to a
  :class:`concurrent.futures.ProcessPoolExecutor` and collects results
  **in submission order**, not completion order — so the merged output of
  a campaign is bit-identical for any worker count (every ``task.run()``
  is a pure function of the task description);
* a task that raises is re-raised in the caller as
  :class:`FarmTaskError` carrying the task's id and description — the
  pool is shut down cleanly rather than left hanging, and the error tells
  you *which* shard to replay (for fuzz chunks, including its seed).

Worker processes rebuild compiled-core and decoded-image caches lazily
from the task descriptions (see :mod:`repro.farm.tasks`); nothing
exec-compiled ever crosses the process boundary.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Protocol

from .. import obs


class FarmTask(Protocol):
    """What the runner needs from a task: identity, description, run.

    The concrete tasks (:mod:`repro.farm.tasks`) are frozen dataclasses
    that satisfy this structurally — the runner never imports them."""

    @property
    def task_id(self) -> str: ...

    def describe(self) -> str: ...

    def run(self) -> object: ...


class FarmTaskError(RuntimeError):
    """A farm task failed; carries the task identity for replay.

    Raised in the worker and re-raised in the parent (the message — task
    id, task description, original exception — survives pickling; the
    original traceback object does not, which is why the description is
    embedded rather than chained).
    """

    def __init__(self, message: str, task_id: str = "",
                 description: str = ""):
        super().__init__(message)
        self.task_id = task_id
        self.description = description

    def __reduce__(self) -> tuple:
        return (type(self), (self.args[0], self.task_id, self.description))


def execute_task(task: FarmTask) -> object:
    """Run one task, wrapping any failure with its description.

    Top-level so it is picklable as the pool's callable; also used
    verbatim by the serial path so both paths raise identical errors.
    """
    try:
        return task.run()
    except FarmTaskError:
        raise
    except Exception as exc:
        raise FarmTaskError(
            f"farm task {task.task_id!r} failed with "
            f"{type(exc).__name__}: {exc} [{task.describe()}]",
            task.task_id, task.describe()) from exc


def execute_task_telemetry(task: FarmTask,
                           submitted_wall: float
                           ) -> tuple[object, dict]:
    """Run one task under a fresh worker-local telemetry session.

    Top-level so it is picklable as the pool's callable.  Returns
    ``(result, snapshot)`` where the snapshot is a plain dict — task id,
    worker pid, queue wait (worker pickup wall-time minus submission
    wall-time: the one duration that genuinely spans two processes, so
    it is the one wall-clock measurement), monotonic-clock run time, and
    the task's counters.  The serial path runs the same wrapper (the
    session nests under the parent's), so a ``workers=1`` snapshot has
    exactly the same shape as a pool snapshot.
    """
    started_wall = time.time()
    with obs.session() as telemetry:
        started = time.perf_counter()
        result = execute_task(task)
        run_sec = time.perf_counter() - started
    return result, {
        "task_id": task.task_id,
        "pid": os.getpid(),
        "start_wall": started_wall,
        "queue_wait_sec": max(0.0, started_wall - submitted_wall),
        "run_sec": run_sec,
        "counters": dict(telemetry.counters),
    }


def run_tasks(tasks: Iterable[FarmTask],
              workers: int = 1) -> list:
    """Execute tasks; returns their results in task order.

    ``workers`` caps the process count (never more processes than tasks);
    ``workers <= 1`` is the serial in-process path.

    With a :mod:`repro.obs` session active in the caller, every task runs
    under :func:`execute_task_telemetry` instead and its snapshot is
    merged into the caller's session **in submission order** — the same
    order results merge in — so telemetry structure is bit-identical for
    any worker count.  Results themselves are unaffected.
    """
    tasks = list(tasks)
    parent = obs.get()
    if workers <= 1 or not tasks:
        # Serial only when *asked* for serial (or there is nothing to
        # run).  A single task with workers > 1 still goes through the
        # pool: a one-task campaign must exercise pickling and the
        # worker-side cache rebuild, or an unpicklable task hides until
        # the campaign grows.
        if parent is None:
            return [execute_task(task) for task in tasks]
        pairs = [execute_task_telemetry(task, time.time())
                 for task in tasks]
        return _merge_snapshots(parent, pairs)
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        if parent is None:
            futures = [pool.submit(execute_task, task) for task in tasks]
        else:
            futures = [pool.submit(execute_task_telemetry, task,
                                   time.time()) for task in tasks]
        try:
            results = [future.result() for future in futures]
        except BaseException:
            # Drop queued tasks so the first failure surfaces immediately
            # instead of after the rest of the campaign drains.
            pool.shutdown(wait=True, cancel_futures=True)
            raise
    if parent is None:
        return results
    return _merge_snapshots(parent, results)


def shard_ranges(count: int, shards: int) -> list[tuple[int, int]]:
    """Cut ``count`` items into at most ``shards`` contiguous, nonempty
    ``(lo, hi)`` ranges of near-equal size, in item order.

    Campaigns that shard a list give each range to one task and
    concatenate the task results in task order, which is item order."""
    shards = max(1, min(shards, count))
    bounds = [count * index // shards for index in range(shards + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _merge_snapshots(parent: obs.Telemetry,
                     pairs: Iterable[tuple[object, dict]]) -> list:
    """Fold task snapshots into the parent session (submission order)."""
    results = []
    for result, snapshot in pairs:
        parent.counters["farm.tasks"] += 1
        parent.add_task(snapshot)
        results.append(result)
    return results
