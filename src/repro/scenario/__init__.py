"""repro.scenario — coverage-guided scenario engine (PR 9).

Hand-picked workloads exercise the paths their authors thought of; the
paper's verification story needs the paths nobody did.  This package
generates whole SoC environments — sensor waveform models, device event
schedules, interrupt-storm and back-to-back race patterns, mid-run fault
injection — as pure picklable descriptions derived from splitmix64
seeds, scores each run against a fixed behavioral coverage registry fed
from the RVFI trace and telemetry surfaces, and mutates scenario
parameters toward uncovered bins until budget or saturation.  Every
reported failure replays from its ``(scenario-id, seed, budget)``
triple.

Layout:

:mod:`~repro.scenario.gen`
    The scenario DSL: waveform/fault/scenario dataclasses, the firmware
    renderer, ``random_scenario`` / ``mutate_toward`` /
    ``replay_scenario``.
:mod:`~repro.scenario.coverage`
    The fixed bin registry, :class:`CoverageMap`, trace/fleet extractors
    and the schema-validated coverage report.
:mod:`~repro.scenario.run`
    Segmented execution with fault injection, golden-vs-fused replay
    compare, the plain outcome-row surface.
:mod:`~repro.scenario.campaign`
    The probe/random/mutation campaign, farm-sharded bit-identically at
    any worker count.
"""

from .campaign import (FIXED_WORKLOADS, PROBE_GATE_BINS,
                       fixed_workload_coverage, probe_gate_missing,
                       probe_scenarios, scenario_campaign)
from .coverage import (BINS, GATE_FAMILIES, REPORT_KIND, REPORT_SCHEMA,
                       CoverageMap, build_report, coverage_from_fleet,
                       coverage_from_trace, family_bins, validate_report,
                       write_report)
from .gen import (DEFAULT_BUDGET, FLEET_STUNTS, MODES, WAVEFORM_KINDS,
                  FaultEvent, FleetScenario, SocScenario, Waveform,
                  mutate_toward, random_scenario, replay_scenario)
from .run import (outcome_coverage, run_fleet_scenario, run_scenario,
                  run_soc_scenario, scenario_core_spec)

__all__ = [
    "BINS", "CoverageMap", "DEFAULT_BUDGET", "FIXED_WORKLOADS",
    "FLEET_STUNTS", "FaultEvent", "FleetScenario", "GATE_FAMILIES",
    "MODES", "PROBE_GATE_BINS", "REPORT_KIND", "REPORT_SCHEMA",
    "SocScenario", "WAVEFORM_KINDS", "Waveform", "build_report",
    "coverage_from_fleet", "coverage_from_trace", "family_bins",
    "fixed_workload_coverage", "mutate_toward", "outcome_coverage",
    "probe_gate_missing", "probe_scenarios", "random_scenario",
    "replay_scenario", "run_fleet_scenario", "run_scenario",
    "run_soc_scenario", "scenario_campaign", "scenario_core_spec",
    "validate_report", "write_report",
]
