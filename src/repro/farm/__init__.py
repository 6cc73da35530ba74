"""repro.farm — the multi-process simulation farm (PR 6).

Shards the embarrassingly parallel verification campaigns — cosimulation,
seeded differential fuzz, the RTL mutant kill matrix, coverage-guided
scenarios, the RTL lint sweep — across cores on a
:class:`concurrent.futures.ProcessPoolExecutor` work queue, behind the
single ``python -m repro`` CLI.  Compliance is not sharded: its whole
walk costs less than one worker's core rebuild.

Design rules (see the module docstrings for the fine print):

* tasks are **pure, picklable descriptions** (:mod:`repro.farm.tasks`) —
  subset + structural fingerprint, program image or chunk seed, backend
  *name*; never live ``Module``/simulator objects;
* workers **rebuild** compiled-core and decoded-image caches from the
  description and fingerprint-check the result;
* results merge **in task order** (:mod:`repro.farm.runner`), so every
  campaign is bit-identical at any worker count and ``workers=1`` is the
  exact serial path;
* failures carry their task description — and for fuzz chunks the
  ``(task-id, seed)`` pair — instead of hanging the pool.
"""

from .campaigns import (
    FLEET_EXERCISE_PROGRAM,
    MUTATION_EXERCISE_PROGRAM,
    MUTATION_EXERCISE_SUBSET,
    cosim_campaign,
    farm_scaling_metrics,
    fleet_exercise_target,
    fleet_lane_value,
    fleet_throughput_metrics,
    lint_campaign,
    lint_targets,
    mutation_exercise_target,
    workload_target,
)
from .runner import (
    FarmTaskError,
    execute_task,
    execute_task_telemetry,
    run_tasks,
)
from .tasks import (
    CoreMaterializeError,
    CoreSpec,
    CosimTask,
    FuzzCosimTask,
    LintTask,
    MutantTask,
)

__all__ = [
    "CoreMaterializeError", "CoreSpec", "CosimTask",
    "FLEET_EXERCISE_PROGRAM", "FarmTaskError", "FuzzCosimTask", "LintTask",
    "MUTATION_EXERCISE_PROGRAM", "MUTATION_EXERCISE_SUBSET", "MutantTask",
    "cosim_campaign", "execute_task", "execute_task_telemetry",
    "farm_scaling_metrics", "fleet_exercise_target", "fleet_lane_value",
    "fleet_throughput_metrics", "lint_campaign", "lint_targets",
    "mutation_exercise_target", "run_tasks", "workload_target",
]
