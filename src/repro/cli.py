"""The single ``repro`` entrypoint: ``python -m repro [stages] [options]``.

One CLI drives the verification campaigns the repository accumulated —
cosimulation, the RTL mutant kill matrix, riscof-analog compliance, the
coverage-guided scenario campaign and the static-analysis sweep — through
the multi-process simulation farm (:mod:`repro.farm`).  Compliance walks
its targets in-process at any worker count: one worker's core rebuild
costs more than the whole walk.

Configuration is **declarative**: :class:`FarmConfig` is a plain
dataclass whose fields *are* the command line (in the style of
simple_parsing / EasyArgs — the parser is generated from the dataclass,
never written twice).  Field names map to ``--kebab-case`` options,
tuple-typed fields take multiple values, helps live in field metadata,
and ``parse_config`` returns a populated ``FarmConfig``; programmatic
callers can skip argv entirely and hand :func:`run` a config instance.

Semantics guaranteed by the farm layer: ``--workers 1`` is the exact
serial path, and results are bit-identical for any worker count — only
wall-clock changes.

Output discipline (PR 8): **stdout is machine-clean** — nothing is ever
printed to it, so ``--json-out -``-style piping and shell capture stay
usable; all human-facing progress goes to stderr via :func:`_echo`.
``--telemetry PATH`` records the run under a :mod:`repro.obs` session
and writes the schema-validated run manifest (counters, stage spans,
per-task timings, host provenance); ``--trace-out PATH`` additionally
writes a Chrome ``trace_event`` timeline Perfetto can load.  Both are
written even when stages fail — a crashed campaign still leaves its
telemetry and its ``--json-out`` results behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import typing
from contextlib import nullcontext
from dataclasses import dataclass, field

from .rtl.sim import BACKENDS
from .verify.fuzz import FUZZ_BASE_SEED

#: Stage names, in the order a multi-stage invocation runs them.
STAGES = ("cosim", "mutation", "compliance", "scenarios", "lint")


def _cfg(default, help_text: str, **extra):
    """A config field: default + help (+ argparse extras) in one place."""
    metadata = {"help": help_text, **extra}
    if isinstance(default, (tuple, list, dict)):
        # Copy per instance so a list/dict default is never shared.
        return field(default_factory=lambda: type(default)(default),
                     metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class FarmConfig:
    """Declarative farm configuration — every field is a CLI option."""

    stages: tuple[str, ...] = _cfg(
        ("cosim",), "campaign stages to run, in order", choices=STAGES,
        positional=True)
    workloads: tuple[str, ...] = _cfg(
        ("uart_selftest", "crc32"),
        "workload names the cosim stage verifies (each on its own "
        "generated core; pass none to run fuzz chunks only)")
    backends: tuple[str, ...] = _cfg(
        ("fused",),
        "RTL evaluator backends (the interpreter is the oracle); cosim "
        "runs each, mutation requires them to agree per mutant",
        choices=BACKENDS)
    workers: int = _cfg(
        1, "process-pool size; 1 = the exact serial path")
    shards: int = _cfg(
        0, "scenario task groups (0 = one group per worker)")
    fuzz_chunks: int = _cfg(
        0, "seeded random-program cosim chunks added to the cosim stage")
    fuzz_seed: int = _cfg(
        FUZZ_BASE_SEED,
        "base seed; chunk i fuzzes derive_seed(base, i) (hex accepted)")
    max_instructions: int = _cfg(
        2_000_000, "retirement budget per workload cosim")
    fuzz_max_instructions: int = _cfg(
        20_000, "retirement budget per fuzz chunk")
    mutation_limit: int = _cfg(
        24, "mutants enumerated by the mutation stage")
    mutation_budget: int = _cfg(
        2_000, "retirement budget per mutant cosim")
    scenario_count: int = _cfg(
        64, "random scenarios the scenarios stage generates")
    scenario_seed: int = _cfg(
        FUZZ_BASE_SEED,
        "base seed; scenario i derives from derive_seed(base, i) "
        "(hex accepted)")
    scenario_mutation: int = _cfg(
        16, "extra directed scenarios the mutation loop may spend on "
            "uncovered coverage bins (0 = random-only)")
    scenario_budget: int = _cfg(
        20_000, "retirement budget per scenario")
    scenario_probes: int = _cfg(
        1, "1 = run the directed probe set and gate on it reaching "
           "every trap-cause and arbitration-ordering bin; 0 = skip")
    scenario_golden_stride: int = _cfg(
        8, "replay every n-th scenario on the golden ISS with a full "
           "trace-column compare (0 disables)")
    coverage_out: str = _cfg(
        "", "write the schema-validated scenario coverage report to "
            "this path")
    lint_subsets: tuple[str, ...] = _cfg(
        (), "subset-lattice entries the lint stage stitches and lints "
            "(Table 3 names / rv32e; empty = the whole lattice)")
    lint_out: str = _cfg(
        "", "write the schema-validated lint report to this path")
    json_out: str = _cfg(
        "", "write stage results as JSON to this path")
    telemetry: str = _cfg(
        "", "record the run under a telemetry session and write the "
            "run-manifest JSON (counters, stage spans, task timings, "
            "host provenance) to this path")
    trace_out: str = _cfg(
        "", "write a Chrome trace_event timeline of the run (open in "
            "Perfetto / about:tracing) to this path; implies the "
            "telemetry session")


def _option_name(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def _int(text: str) -> int:
    """Int converter accepting 0x/0o/0b prefixes (seeds read as hex)."""
    return int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    """Generate the argparse surface from :class:`FarmConfig`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(FarmConfig.__doc__ or "").strip(),
        epilog="example: python -m repro cosim mutation --workers 4 "
               "--fuzz-chunks 8")
    hints = typing.get_type_hints(FarmConfig)
    for spec in dataclasses.fields(FarmConfig):
        metadata = dict(spec.metadata)
        help_text = metadata.pop("help", None)
        positional = metadata.pop("positional", False)
        default = spec.default if spec.default is not dataclasses.MISSING \
            else spec.default_factory()
        hint = hints[spec.name]
        kwargs: dict = {"help": help_text, "default": default, **metadata}
        if typing.get_origin(hint) is tuple:
            kwargs["nargs"] = "*"
            kwargs["type"] = typing.get_args(hint)[0]
        elif hint is int:
            kwargs["type"] = _int
        else:
            kwargs["type"] = hint
        if positional:
            # argparse validates a nargs="*" positional's default (and the
            # empty list) against choices as one value; show the choices in
            # the metavar, parse unvalidated with default=None, and let
            # parse_config validate and substitute the dataclass default.
            choice_list = kwargs.pop("choices", None)
            if choice_list:
                kwargs["metavar"] = "{" + ",".join(choice_list) + "}"
            kwargs["default"] = None
            parser.add_argument(spec.name, **kwargs)
        else:
            parser.add_argument(_option_name(spec.name),
                                dest=spec.name, **kwargs)
    return parser


def parse_config(argv=None) -> FarmConfig:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    fields = dataclasses.fields(FarmConfig)
    values = {spec.name: getattr(namespace, spec.name) for spec in fields}
    for spec in fields:
        allowed = spec.metadata.get("choices")
        if spec.metadata.get("positional") and allowed:
            for item in values[spec.name] or ():
                if item not in allowed:
                    parser.error(
                        f"argument {spec.name}: invalid choice: {item!r} "
                        f"(choose from {', '.join(allowed)})")
    positionals = {spec.name for spec in fields
                   if spec.metadata.get("positional")}
    for name, value in list(values.items()):
        if value is None or (value == [] and name in positionals):
            del values[name]  # dataclass default applies
        elif isinstance(value, list):
            values[name] = tuple(value)
    return FarmConfig(**values)


# ---------------------------------------------------------------- stages

def _echo(message: str) -> None:
    """Human-facing progress: stderr, so stdout stays machine-clean and
    never interleaves with worker output in a pipe."""
    print(message, file=sys.stderr)


def _stage_cosim(config: FarmConfig) -> tuple[bool, dict]:
    from .farm import cosim_campaign

    if not config.backends:
        # Zero backends would loop zero times and report "0/0 clean" — a
        # vacuous pass claiming success with nothing verified.
        _echo("cosim: no backends configured — nothing verified -> FAIL")
        return False, {"verdicts": {}}
    if config.fuzz_chunks < 0:
        _echo("cosim: --fuzz-chunks must not be negative -> FAIL")
        return False, {"verdicts": {}}
    if not config.workloads and not config.fuzz_chunks:
        _echo("cosim: no workloads and no fuzz chunks — nothing "
              "verified -> FAIL")
        return False, {"verdicts": {}}
    verdicts: dict[str, str | None] = {}
    for backend in config.backends:
        prefix = f"{backend}:" if len(config.backends) > 1 else ""
        results = cosim_campaign(
            workloads=tuple(config.workloads),
            fuzz_chunks=config.fuzz_chunks, fuzz_seed=config.fuzz_seed,
            backend=backend, max_instructions=config.max_instructions,
            fuzz_max_instructions=config.fuzz_max_instructions,
            workers=config.workers)
        for task_id, verdict in results.items():
            verdicts[prefix + task_id] = verdict
    for task_id, verdict in verdicts.items():
        _echo(f"  {task_id:<48} {verdict or 'PASS'}")
    clean = sum(1 for verdict in verdicts.values() if verdict is None)
    _echo(f"cosim: {clean}/{len(verdicts)} clean")
    return clean == len(verdicts), {"verdicts": verdicts}


def _stage_mutation(config: FarmConfig) -> tuple[bool, dict]:
    from .farm import mutation_exercise_target
    from .verify.mutation import cosim_verdict, rtl_mutant_kill_matrix

    nothing = {"mutants": 0, "killed": 0, "disagreements": []}
    if not config.backends:
        # Empty verdict rows would crash the kill count (StopIteration
        # inside the generator) — fail cleanly instead.
        _echo("mutation: no backends configured — nothing verified "
              "-> FAIL")
        return False, nothing
    # No mutant (or no retirement per mutant) would make every verdict
    # vacuous: 0/0 killed, or every mutant "killed" by its budget.
    for option, value in (("--mutation-limit", config.mutation_limit),
                          ("--mutation-budget", config.mutation_budget)):
        if value <= 0:
            _echo(f"mutation: {option} must be positive — nothing "
                  f"verified -> FAIL")
            return False, nothing
    core, program = mutation_exercise_target()
    # Below the unmutated core's own run a mutant is "killed" by the
    # budget alone, so that core must finish clean on every backend.
    for backend in config.backends:
        verdict = cosim_verdict(core, program, backend,
                                config.mutation_budget)
        if verdict is not None:
            _echo(f"mutation: --mutation-budget must cover the unmutated "
                  f"core's run, which ends in {verdict} at "
                  f"{config.mutation_budget} retirements on {backend} "
                  f"-> FAIL")
            return False, nothing
    matrix = rtl_mutant_kill_matrix(
        core, program, backends=tuple(config.backends),
        limit=config.mutation_limit,
        max_instructions=config.mutation_budget, workers=config.workers)
    unequal = {description: row for description, row in matrix.items()
               if len(set(row.values())) != 1}
    kills = sum(1 for row in matrix.values()
                if next(iter(row.values())) is not None)
    for description, row in unequal.items():
        _echo(f"  BACKENDS DISAGREE {description}: {row}")
    _echo(f"mutation: {kills}/{len(matrix)} mutants killed, "
          f"{len(unequal)} backend disagreements "
          f"(backends={','.join(config.backends)})")
    return not unequal, {"mutants": len(matrix), "killed": kills,
                         "disagreements": list(unequal)}


def _stage_compliance(config: FarmConfig) -> tuple[bool, dict]:
    from .isa.instructions import INSTRUCTIONS
    from .rtl.rissp import build_rissp
    from .verify.riscof import run_compliance

    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    report = run_compliance(core)
    for mismatch in report.mismatches:
        _echo(f"  MISMATCH {mismatch}")
    _echo(f"compliance: {report.tests_run} programs, "
          f"{len(report.mismatches)} mismatches "
          f"-> {'PASS' if report.compliant else 'FAIL'}")
    return report.compliant, {"tests_run": report.tests_run,
                              "mismatches": report.mismatches}


def _stage_scenarios(config: FarmConfig) -> tuple[bool, dict]:
    from .scenario import (probe_gate_missing, scenario_campaign,
                           write_report)

    # Probes alone could still "pass"; an explicit zero-scenario request
    # is a misconfiguration, not vacuous 100% coverage, and a zero budget
    # retires no instruction in any scenario.
    for option, value in (("--scenario-count", config.scenario_count),
                          ("--scenario-budget", config.scenario_budget)):
        if value <= 0:
            _echo(f"scenarios: {option} must be positive — nothing "
                  f"generated -> FAIL")
            return False, {"covered": 0, "bins": 0, "failures": []}
    result = scenario_campaign(
        count=config.scenario_count, base_seed=config.scenario_seed,
        budget=config.scenario_budget, workers=config.workers,
        shards=config.shards,
        golden_stride=config.scenario_golden_stride,
        probes=bool(config.scenario_probes),
        mutation_budget=config.scenario_mutation)
    coverage = result["coverage"]
    for row in result["failures"]:
        _echo(f"  FAILURE {row['scenario_id']} "
              f"seed={row['seed']:#018x} budget={row['budget']}: "
              f"{row['verdict']}")
    missing = ()
    if result["probe_coverage"] is not None:
        missing = probe_gate_missing(result["probe_coverage"])
        for name in missing:
            _echo(f"  PROBE GATE MISS {name}")
    phases = result["phases"]
    _echo(f"scenarios: {len(coverage.covered())}/{len(coverage.counts)} "
          f"bins covered ({phases['probes']} probes + "
          f"{phases['random']} random + {phases['mutated']} mutated; "
          f"saturated={phases['saturated']})")
    payload = {"covered": len(coverage.covered()),
               "bins": len(coverage.counts),
               "uncovered": list(coverage.uncovered()),
               "phases": phases, "failures": result["failures"],
               "probe_gate_missing": list(missing)}
    if config.coverage_out:
        config_doc = {
            "count": config.scenario_count,
            "base_seed": config.scenario_seed,
            "budget": config.scenario_budget,
            "workers": config.workers, "shards": config.shards,
            "golden_stride": config.scenario_golden_stride,
            "probes": bool(config.scenario_probes),
            "mutation_budget": config.scenario_mutation}
        path = write_report(config.coverage_out, result, config_doc)
        _echo(f"coverage report written to {path}")
        payload["artifact"] = str(path)
    ok = not result["failures"] and not missing
    return ok, payload


def _stage_lint(config: FarmConfig) -> tuple[bool, dict]:
    from .analysis import write_lint_report
    from .farm import lint_campaign

    result = lint_campaign(
        subsets=tuple(config.lint_subsets) or None,
        workers=config.workers)
    for finding in result["findings"]:
        _echo(f"  {finding.rule} {finding.location}: {finding.detail}")
    for finding, waiver in result["waived"]:
        _echo(f"  waived {finding.rule} {finding.location} "
              f"({waiver.reason})")
    targets = result["targets"]
    _echo(f"lint: {targets['blocks']} blocks + {targets['cores']} cores "
          f"+ {targets['gen_sources']} generated sources + contract scan "
          f"across {result['tasks']} tasks -> "
          f"{len(result['findings'])} findings, "
          f"{len(result['waived'])} waived")
    payload = {"findings": [f.to_doc() for f in result["findings"]],
               "waived": len(result["waived"]),
               "targets": targets, "tasks": result["tasks"]}
    if config.lint_out:
        config_doc = {"subsets": list(config.lint_subsets),
                      "workers": config.workers}
        path = write_lint_report(config.lint_out, result, config_doc)
        _echo(f"lint report written to {path}")
        payload["artifact"] = str(path)
    return not result["findings"], payload


_STAGE_RUNNERS = {"cosim": _stage_cosim, "mutation": _stage_mutation,
                  "compliance": _stage_compliance,
                  "scenarios": _stage_scenarios, "lint": _stage_lint}


def _run_stage(config: FarmConfig, stage: str) -> tuple[bool, dict]:
    """One stage with its failure contract: a raising stage is recorded
    as failed — with the replayable task id (for fuzz chunks, embedding
    the seed) when the farm reports one — instead of aborting the run,
    so later stages still execute and ``--json-out``/``--telemetry``
    always get written (the PR 8 regression: an uncaught
    ``FarmTaskError`` used to skip the JSON write entirely)."""
    from .farm import FarmTaskError

    try:
        return _STAGE_RUNNERS[stage](config)
    except FarmTaskError as exc:
        _echo(f"{stage}: FAILED — {exc}")
        return False, {"error": f"{type(exc).__name__}: {exc}",
                       "task_id": exc.task_id,
                       "task_description": exc.description}
    except Exception as exc:
        _echo(f"{stage}: FAILED — {type(exc).__name__}: {exc}")
        return False, {"error": f"{type(exc).__name__}: {exc}"}


def run(config: FarmConfig) -> int:
    """Run the configured stages; returns the process exit code.

    ``--json-out`` is written whether or not stages fail or raise;
    ``--telemetry``/``--trace-out`` open one :mod:`repro.obs` session
    around all stages (each under its own span) and write the
    manifest/timeline at the end, also unconditionally.
    """
    from . import obs

    results: dict[str, dict] = {}
    failures = []
    with obs.session() if (config.telemetry or config.trace_out) \
            else nullcontext(None) as telemetry:
        for stage in config.stages:
            _echo(f"== {stage} (workers={config.workers}) ==")
            with obs.span(stage, workers=config.workers):
                ok, payload = _run_stage(config, stage)
            results[stage] = {"ok": ok, **payload}
            if not ok:
                failures.append(stage)
    if config.json_out:
        out_path = pathlib.Path(config.json_out)
        if out_path.parent != pathlib.Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(results, indent=2) + "\n")
        _echo(f"results written to {config.json_out}")
    if telemetry is not None:
        config_doc = {name: list(value) if isinstance(value, tuple)
                      else value
                      for name, value in dataclasses.asdict(config).items()}
        if config.telemetry:
            path = obs.write_manifest(config.telemetry, telemetry,
                                      config_doc)
            _echo(f"telemetry manifest written to {path}")
        if config.trace_out:
            path = obs.write_trace(config.trace_out, telemetry)
            _echo(f"trace timeline written to {path}")
    if failures:
        _echo(f"FAILED stages: {', '.join(failures)}")
        return 1
    _echo(f"all stages passed: {', '.join(config.stages)}")
    return 0


def main(argv=None) -> int:
    return run(parse_config(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
