"""repro.farm — the multi-process simulation farm (PR 6).

Shards the embarrassingly parallel verification campaigns — cosimulation,
the RTL mutant kill matrix, riscof-analog compliance, seeded differential
fuzz — across cores on a :class:`concurrent.futures.ProcessPoolExecutor`
work queue, behind the single ``python -m repro`` CLI.

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
    fleet_campaign,
    fleet_exercise_target,
    fleet_lane_value,
    fleet_throughput_metrics,
    lint_campaign,
    lint_targets,
    mutation_exercise_target,
    sharded_compliance_mismatches,
    workload_target,
)
from .runner import (
    FarmTaskError,
    execute_task,
    execute_task_telemetry,
    run_tasks,
)
from .tasks import (
    ComplianceTask,
    CoreMaterializeError,
    CoreSpec,
    CosimTask,
    FleetShardTask,
    FuzzCosimTask,
    LintTask,
    MutantTask,
)

__all__ = [
    "ComplianceTask", "CoreMaterializeError", "CoreSpec", "CosimTask",
    "FLEET_EXERCISE_PROGRAM", "FarmTaskError", "FleetShardTask",
    "FuzzCosimTask", "LintTask", "MUTATION_EXERCISE_PROGRAM",
    "MUTATION_EXERCISE_SUBSET", "MutantTask", "cosim_campaign",
    "execute_task", "execute_task_telemetry", "farm_scaling_metrics",
    "fleet_campaign", "fleet_exercise_target", "fleet_lane_value",
    "fleet_throughput_metrics", "lint_campaign", "lint_targets",
    "mutation_exercise_target", "run_tasks",
    "sharded_compliance_mismatches", "workload_target",
]
