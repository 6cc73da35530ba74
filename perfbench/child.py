"""One benchmark process: set a workload up, time its public calls, check them.

``perfbench/run.py`` starts this as ``python3 perfbench/child.py SPEC``
with ``PYTHONPATH=src`` and a fresh ``$REPRO_CACHE_DIR``; ``SPEC`` is a
JSON object naming the role, the seed, the time to measure and whether
to trace.  The result document goes to the file ``SPEC["out"]`` (stdout
and stderr belong to the package, whose CLI reports on stderr).

Every timed call is a closed loop: the next call starts when the previous
one has returned.  Outputs are checked after the timed calls and before
anything is reported; a failed check is listed under ``failures``.
Untraced calls run with no telemetry session open (checked); traced calls
run under an ``obs.session()`` plus the span wrappers of ``spans.py``.
End-to-end times are scaled to the reference host speed by the
calibrations of ``hostclock.py`` taken around each timed interval (raw
times are kept under ``raw``); per-layer times are raw seconds.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostclock import HostClock  # noqa: E402
from spans import Recorder  # noqa: E402

from repro import obs  # noqa: E402

#: edge_flow: the paper's extreme-edge apps, then the SoC firmware images.
EDGE_APPS = ("armpit", "xgboost", "af_detect", "af_detect_irq",
             "sensor_streaming", "label_refresh", "uart_selftest")

#: farm_campaign sizing: about 2 s per warm campaign on a 2-CPU host.
#: Many short scenarios with a capped budget keep the seed-to-seed spread
#: of the work small; 8 scenario shards balance the two workers.
FARM_WORKERS = 2
FARM_SHARDS = 8
FARM_WORKLOADS = ("uart_selftest", "crc32")
FARM_FUZZ_CHUNKS = 8
FARM_SCENARIOS = 96
FARM_SCENARIO_BUDGET = 5_000

#: fleet_lanes sizing: the CLI fleet stage's default of 1024 instances
#: and its run budget, quantum and sampled-lane count.
FLEET_LANES = 1024
FLEET_BUDGET = 1_000
FLEET_QUANTUM = 256
FLEET_SAMPLED = 8


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = ROLES[spec["role"]](spec)
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


def _setup_done(spec: dict) -> tuple[float, HostClock]:
    """Seconds since the parent started this interpreter, at the
    reference host speed, and the clock that scaled them."""
    raw = time.monotonic() - spec["spawned"]
    clock = HostClock()
    return clock.since_start(raw), clock


def _require_off() -> None:
    if obs.get() is not None:
        raise RuntimeError("telemetry session open during an untraced call")


def _cosim_seconds(targets, failures: list[str]) -> tuple[float, list[int]]:
    """Seconds of untraced lock-step cosims of ``(name, core, program,
    soc)`` targets on the fused backend, and each target's retirements as
    the golden side counted them; a verdict other than ``None`` is a
    failure."""
    from repro.rtl.core_sim import cosimulate
    from repro.sim.tracing import RvfiTrace

    # A 1-row golden sink is what cosimulate keeps when given none; it
    # still counts every retirement.
    sinks = [RvfiTrace(capacity=1) for _ in targets]
    verdicts = []
    with _Untraced():
        started = time.perf_counter()
        for (name, core, program, soc), sink in zip(targets, sinks):
            verdicts.append((name, cosimulate(core, program, soc=soc,
                                              backend="fused",
                                              golden_trace_out=sink)))
        seconds = time.perf_counter() - started
    failures += [f"{name}: cosim {verdict}" for name, verdict in verdicts
                 if verdict is not None]
    return seconds, [sink.total_appended for sink in sinks]


def _synth_totals(cores) -> dict:
    """Modelled area and power summed over ``(name, core)`` pairs."""
    from repro.synth import synthesize

    area = power = 0.0
    for name, core in cores:
        report = synthesize(core, seed=name)
        area += report.area_ge
        power += report.avg_power_mw
    return {"area_ge": area, "power_mw": power}


class _Untraced:
    """An untraced section: the package's own code, telemetry off."""

    def __enter__(self):
        _require_off()
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            _require_off()

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class _Traced:
    """A traced section: telemetry session plus span wrappers."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.first = len(recorder.spans)
        self.telemetry = None
        self._session = obs.session()

    def __enter__(self):
        self.telemetry = self._session.__enter__()
        self.recorder.install()
        return self

    def __exit__(self, *exc):
        self.recorder.uninstall()
        return self._session.__exit__(*exc)

    def call(self, name: str, fn, *args, **kwargs):
        """One workload call, under a root span."""
        return self.recorder.call(name, fn, *args, **kwargs)


def _section(recorder: Recorder, traced: bool):
    return _Traced(recorder) if traced else _Untraced()


# ------------------------------------------------------------ per layer

def _counter_ratios(counters: dict, lanes: int) -> dict:
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = sum(counters[f"compile_cache.{k}.hit"]
               for k in ("module", "core", "fleet"))
    misses = sum(counters[f"compile_cache.{k}.miss"]
                 for k in ("module", "core", "fleet"))
    exits = sum(value for name, value in counters.items()
                if name.startswith("fused.exit.") and name != "fused.exit.halt")
    adopted = sum(value for name, value in counters.items()
                  if name.startswith("fleet.diverge."))
    builds = counters["farm.core_rebuild.build"]
    return {
        "compiled.cache_hit_ratio": ratio(hits, hits + misses),
        "core_sim.slow_exits_per_kret":
            ratio(1000 * exits, counters["fused.retired"]),
        "core_sim.decode_miss_ratio":
            ratio(counters["decode_cache.misses"],
                  counters["decode_cache.lookups"]),
        "core_sim.fused_retired": counters["fused.retired"],
        "riscof.sig_recompute_ratio":
            ratio(counters["riscof.sig_recompute"],
                  counters["riscof.sig_lookup"]),
        "fleet.adopted_ratio": ratio(adopted, lanes),
        "fleet.passes": counters["fleet.passes"],
        "scenario.runs": counters["scenario.runs"],
        "farm.rebuild_ratio":
            ratio(builds, builds + counters["farm.core_rebuild.memo_hit"]),
    }


def _farm_layers(recorder: Recorder, first: int, telemetry) -> dict:
    """Pool accounting from the per-task snapshots the farm returns."""
    tasks = telemetry.tasks
    calls = recorder.named("farm.run_tasks", first)
    overhead = 0.0
    for span in calls:
        busy: dict[int, float] = {}
        for task in tasks[span[4]:span[5]]:
            busy[task["pid"]] = busy.get(task["pid"], 0.0) + task["run_sec"]
        overhead += (span[2] - span[1]) - max(busy.values(), default=0.0)
    waits = [task["queue_wait_sec"] for task in tasks]
    runs = [task["run_sec"] for task in tasks]
    mutants = [task["run_sec"] for task in tasks
               if task["task_id"].startswith("mutant[")]
    scenario_tasks = [task for task in tasks
                      if task["counters"]["scenario.runs"]]
    scenario_runs = sum(task["counters"]["scenario.runs"]
                        for task in scenario_tasks)
    return {
        "farm.run_tasks_calls": len(calls),
        "farm.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "farm.queue_wait_max_s": max(waits, default=0.0),
        "farm.task_run_p50_s": statistics.median(runs) if runs else 0.0,
        "farm.task_run_max_s": max(runs, default=0.0),
        "farm.dispatch_overhead_s": overhead,
        "mutation.mutant_s": statistics.median(mutants) if mutants else 0.0,
        "scenario.run_s": (sum(task["run_sec"] for task in scenario_tasks)
                           / scenario_runs if scenario_runs else 0.0),
    }


#: Span name -> per-layer metric holding its self seconds per round.
SELF_METRICS = {
    "compiler.compile": "compiler.compile_s",
    "subset.profile": "subset.profile_s",
    "rissp.build": "rissp.build_s",
    "analysis.lint": "analysis.lint_s",
    "compiled.compile_core": "compiled.compile_core_s",
    "compiled.compile_module": "compiled.compile_module_s",
    "compiled.compile_fleet": "compiled.compile_fleet_s",
    "core_sim.run": "core_sim.run_s",
    "core_sim.cosimulate": "core_sim.cosimulate_s",
    "golden.construct": "golden.construct_s",
    "golden.run": "golden.run_s",
    "riscof.compliance": "riscof.compliance_s",
    "rvfi.check": "rvfi.check_s",
    "synth.synthesize": "synth.synthesize_s",
    "physical.implement": "physical.implement_s",
    "fleet.construct": "fleet.construct_s",
    "fleet.run": "fleet.run_s",
    "farm.run_tasks": "farm.run_tasks_s",
}


#: Largest share of a traced round's wall that no layer may account for.
LAYER_TOLERANCE = 0.02


def layer_metrics(section: _Traced, wall: float, roots: tuple[str, ...],
                  lanes: int = 0) -> dict:
    """Per-layer numbers of one traced round (zeros where a layer did
    not run), plus the accounting of self times against ``wall``."""
    recorder, first = section.recorder, section.first
    selfs = recorder.self_times(first)
    layers = {metric: selfs.get(name, 0.0)
              for name, metric in SELF_METRICS.items()}
    constructs = recorder.named("core_sim.construct", first)
    construct_self = selfs.get("core_sim.construct", 0.0)
    layers["core_sim.construct_count"] = len(constructs)
    layers["core_sim.construct_s"] = \
        construct_self / len(constructs) if constructs else 0.0
    # What no named layer covers: the workload calls' own code outside
    # every layer span, plus the harness between calls.
    attributed = sum(value for name, value in selfs.items()
                     if name not in roots)
    layers["accounting.traced_wall_s"] = wall
    layers["accounting.unattributed_s"] = wall - attributed
    layers["accounting.unattributed_share"] = (wall - attributed) / wall
    counters = section.telemetry.merged_counters()
    layers.update(_counter_ratios(counters, lanes))
    layers.update(_farm_layers(recorder, first, section.telemetry))
    return layers


def _spans_doc(recorder: Recorder) -> list:
    return [[name, round(start, 6), round(end, 6), parent]
            for name, start, end, parent, _, _ in recorder.spans]


# ------------------------------------------------------------ edge_flow

def edge_pass(spec: dict) -> dict:
    """One cold pass: every app from source to a laid-out RISSP."""
    from repro import RisspFlow

    flow = RisspFlow()
    setup_s, clock = _setup_done(spec)
    traced = bool(spec["traced"])
    recorder = Recorder()
    latencies, raw, results = [], [], []
    with _section(recorder, traced) as section:
        for name in EDGE_APPS:
            call = time.perf_counter()
            results.append(section.call(
                "edge.generate", flow.generate, name,
                run_verification=True, run_physical=True))
            raw.append(time.perf_counter() - call)
            latencies.append(clock.lap(raw[-1]))
    wall = sum(raw)

    failures = []
    for result in results:
        for check in ("cosim", "riscof", "rvfi"):
            if result.verified.get(check) is not True:
                failures.append(f"{result.name}: {check} not verified")
        if result.layout is None:
            failures.append(f"{result.name}: no layout")
    unit = {"latencies": latencies, "round_s": sum(latencies),
            "traced": traced, "raw": {"latencies": raw}}
    if not traced:
        # cosim_rps: the generated cores cosimulated again, untraced,
        # with their compiled models warm.
        clock.restart()
        cosim_s, retired = _cosim_seconds(
            [(r.name, r.core, r.program, r.soc_spec) for r in results],
            failures)
        unit["cosim_s"] = clock.lap(cosim_s)
        unit["raw"]["cosim_s"] = cosim_s
        unit["cosim_retired"] = sum(retired)
    else:
        layers = layer_metrics(section, wall, ("edge.generate",))
        # Self time leaves out the construction (and cold compile_core)
        # of each cosim's two simulators: what remains is the lock-step
        # run.
        cosim_s = recorder.self_times(section.first)["core_sim.cosimulate"]
        retired, split = _cosim_split(results, cosim_s, failures)
        layers.update(split)
        check_s = sum(recorder.durations("rvfi.check", section.first))
        layers["rvfi.check_rps"] = sum(retired) / check_s
        if layers["accounting.unattributed_share"] > LAYER_TOLERANCE:
            failures.append(
                f"edge_flow: {layers['accounting.unattributed_s']:.3f} s "
                f"of the traced wall is in no layer")
        unit["layers"] = layers
    # Every app halts on a single-cycle core, so its golden retirement
    # count is its cycle count on its RISSP.
    unit["retired"] = sum(retired)
    modelled = {
        "area_ge": sum(r.synth.area_ge for r in results),
        "power_mw": sum(r.synth.avg_power_mw for r in results),
        "sim_cycles": sum(retired),
    }
    doc = {"setup_s": setup_s, "units": [unit], "modelled": modelled,
           "attempted": len(results), "failures": failures,
           "provenance": obs.host_provenance()}
    if traced:
        doc["spans"] = _spans_doc(recorder)
    return doc


def _golden_side(gold) -> int:
    """The golden half of a lock-step cosim on its own: a traced
    ``GoldenSim`` retired one instruction at a time into a 1-row sink."""
    from repro.sim.tracing import RvfiTrace

    sink = RvfiTrace(capacity=1)
    order = 0
    while True:
        halted, _ = gold.retire_one(order, sink)
        order += 1
        if halted:
            return order


def _cosim_split(results, cosim_s: float,
                 failures: list[str]) -> tuple[list[int], dict]:
    """Where a cosim's time goes: the fused RTL side and the golden side
    timed on their own on the same programs, simulators built before the
    clock starts; the rest of the cosim's run is the lock-step compare.
    Also each app's golden retirements, which both RTL runs must match."""
    from repro.rtl.core_sim import COSIM_CHUNK, RisspSim
    from repro.sim.golden import GoldenSim

    fused_s = rtl_s = golden_s = 0.0
    retired = []
    for result in results:
        args = (result.core, result.program)
        gold = GoldenSim(result.program, trace=True, soc=result.soc_spec)
        started = time.perf_counter()
        retired.append(_golden_side(gold))
        golden_s += time.perf_counter() - started
        sim = RisspSim(*args, backend="fused", soc=result.soc_spec)
        started = time.perf_counter()
        counts = [sim.run().instructions]
        fused_s += time.perf_counter() - started
        sim = RisspSim(*args, backend="fused", soc=result.soc_spec,
                       trace=True, trace_capacity=COSIM_CHUNK)
        started = time.perf_counter()
        counts.append(sim.run().instructions)
        rtl_s += time.perf_counter() - started
        if counts != [retired[-1]] * 2:
            failures.append(f"{result.name}: RTL retired {counts}, golden "
                            f"{retired[-1]}")
    total = sum(retired)
    lockstep_s = cosim_s - rtl_s - golden_s
    return retired, {
        "core_sim.fused_rps": total / fused_s,
        "core_sim.fused_traced_rps": total / rtl_s,
        "golden.traced_rps": total / golden_s,
        "core_sim.cosim_rps": total / cosim_s,
        "core_sim.lockstep_s": lockstep_s,
        "core_sim.rtl_share": rtl_s / cosim_s,
        "golden.share": golden_s / cosim_s,
        "core_sim.lockstep_share": lockstep_s / cosim_s,
    }


# -------------------------------------------------------- farm_campaign

def _farm_config(json_out: str, seed: int, index: int):
    """Campaign ``index`` of a run: its fuzz and scenario seeds derive
    from the workload seed, so each campaign of a run draws new programs
    and scenarios and the run's median spans many draws."""
    from repro.cli import FarmConfig
    from repro.verify.fuzz import derive_seed

    return FarmConfig(
        stages=("cosim", "mutation", "scenarios"), workers=FARM_WORKERS,
        workloads=FARM_WORKLOADS, fuzz_chunks=FARM_FUZZ_CHUNKS,
        fuzz_seed=derive_seed(seed, 2 * index + 1),
        scenario_count=FARM_SCENARIOS,
        scenario_seed=derive_seed(seed, 2 * index + 2),
        scenario_budget=FARM_SCENARIO_BUDGET,
        # The directed probe gate misses a bin on some seeds by design of
        # the probe set; the benchmark times campaigns that pass.
        scenario_probes=0, scenario_mutation=0, shards=FARM_SHARDS,
        json_out=json_out)


def _fuzz_retired(config) -> int:
    """Retirements of one campaign's fuzz chunks on the golden ISS."""
    from repro.isa.assembler import assemble
    from repro.sim.golden import run_program
    from repro.verify.fuzz import derive_seed, random_program

    return sum(run_program(assemble(random_program(
                   derive_seed(config.fuzz_seed, index))),
                   max_instructions=config.fuzz_max_instructions
               ).instructions
               for index in range(config.fuzz_chunks))


def _farm_targets() -> list:
    """``(name, core, program, soc)`` of the cosim stage's named
    workloads, built as the stage builds them."""
    from repro.farm.campaigns import workload_target

    return [(name, *workload_target(name)) for name in FARM_WORKLOADS]


def _farm_model(targets) -> dict:
    """Deterministic facts of the campaign: the named cosim workloads'
    retirements and the modelled cores the campaign targets."""
    from repro.farm.campaigns import mutation_exercise_target
    from repro.isa.instructions import INSTRUCTIONS
    from repro.rtl.rissp import build_rissp
    from repro.scenario.run import scenario_core_spec
    from repro.sim.golden import run_program

    cores = [(name, core) for name, core, _, _ in targets]
    retired = sum(run_program(program, soc=soc).instructions
                  for _, _, program, soc in targets)
    cores.append(("rv32e", build_rissp([d.mnemonic for d in INSTRUCTIONS])))
    cores.append(("mutation", mutation_exercise_target()[0]))
    cores.append(("scenario", scenario_core_spec().build()))
    return {**_synth_totals(cores), "sim_cycles": retired}


def _campaign_check(code: int, doc: dict) -> tuple[list[str], int]:
    """(failures, operations attempted) of one campaign, from its exit
    code and its ``--json-out`` document."""
    failures = [f"cli.run exit code {code}"] if code != 0 else []
    verdicts = doc["cosim"]["verdicts"]
    failures += [f"{task}: {verdict}" for task, verdict in verdicts.items()
                 if verdict is not None]
    failures += [f"backends disagree: {row}"
                 for row in doc["mutation"]["disagreements"]]
    failures += [f"scenario {row['scenario_id']}: {row['verdict']}"
                 for row in doc["scenarios"]["failures"]]
    phases = doc["scenarios"]["phases"]
    attempted = (len(verdicts) + doc["mutation"]["mutants"]
                 + phases["probes"] + phases["random"] + phases["mutated"])
    return failures, attempted


def _farm_warm(spec: dict) -> None:
    """Set-up: imports plus one checked, untimed campaign on fixed seeds,
    so set-up time does not depend on the workload seed."""
    from repro.cli import run

    config = _farm_config(str(Path(spec["cache"]) / "warm.json"), 0, 0)
    code = run(config)
    failures, _ = _campaign_check(
        code, json.loads(Path(config.json_out).read_text()))
    if failures:
        raise RuntimeError(f"warm-up campaign failed: {failures}")


def farm_setup(spec: dict) -> dict:
    _farm_warm(spec)
    return {"setup_s": _setup_done(spec)[0]}


def farm_campaign(spec: dict) -> dict:
    from repro.cli import run

    _farm_warm(spec)
    setup_s, clock = _setup_done(spec)
    targets = _farm_targets()
    modelled = _farm_model(targets)
    recorder = Recorder()
    failures: list[str] = []
    attempted = 0
    json_out = str(Path(spec["cache"]) / "campaign.json")
    index = 0
    untraced_doc: dict = {}

    def campaign(traced: bool) -> dict:
        # A traced campaign repeats the untraced one before it, so the
        # two compare on the same inputs.
        nonlocal attempted, index, untraced_doc
        index += not traced
        config = _farm_config(json_out, spec["seed"], index)
        clock.restart()
        with _section(recorder, traced) as section:
            started = time.perf_counter()
            code = section.call("farm.cli_run", run, config)
            raw = time.perf_counter() - started
        wall = clock.lap(raw)
        doc = json.loads(Path(json_out).read_text())
        failed, count = _campaign_check(code, doc)
        failures.extend(failed)
        attempted += count
        retired = modelled["sim_cycles"] + _fuzz_retired(config)
        unit = {"latencies": [wall], "round_s": wall, "traced": traced,
                "retired": retired, "raw": {"round_s": raw}}
        if not traced:
            untraced_doc = doc
            clock.restart()
            cosim_s, counts = _cosim_seconds(targets, failures)
            unit["cosim_s"] = clock.lap(cosim_s)
            unit["raw"]["cosim_s"] = cosim_s
            unit["cosim_retired"] = sum(counts)
            if sum(counts) != modelled["sim_cycles"]:
                failures.append(f"cosim retired {sum(counts)}, golden ISS "
                                f"{modelled['sim_cycles']}")
            return unit
        # Verdicts, mutant counts, scenario phases and coverage hold no
        # time, so tracing must leave the campaign's document unchanged.
        if doc != untraced_doc:
            failures.append(f"campaign {index}: traced --json-out differs "
                            f"from the untraced one")
        unit["layers"] = layer_metrics(section, raw, ("farm.cli_run",))
        return unit

    units = _timed_rounds(spec, campaign)
    doc = {"setup_s": setup_s, "units": units, "modelled": modelled,
           "attempted": attempted, "failures": failures,
           "provenance": obs.host_provenance()}
    if spec["trace"]:
        doc["spans"] = _spans_doc(recorder)
    return doc


def _timed_rounds(spec: dict, one_round) -> list[dict]:
    """Rounds until ``--seconds`` have passed, at least one; with
    tracing, untraced and traced rounds alternate."""
    deadline = time.perf_counter() + spec["seconds"]
    units = []
    while True:
        units.append(one_round(False))
        if spec["trace"]:
            units.append(one_round(True))
        if time.perf_counter() >= deadline:
            return units


# ---------------------------------------------------------- fleet_lanes

def _fleet_target():
    from repro.farm.campaigns import FLEET_MEM_SIZE, fleet_exercise_target
    from repro.rtl.core_sim import RisspSim
    from repro.rtl.fleet import FleetSim

    core, program = fleet_exercise_target()
    FleetSim(core, program, 1, mem_size=FLEET_MEM_SIZE)   # compile_fleet
    RisspSim(core, program, mem_size=FLEET_MEM_SIZE, backend="fused")
    return core, program


def fleet_setup(spec: dict) -> dict:
    _fleet_target()
    return {"setup_s": _setup_done(spec)[0]}


def _lane_targets(core, values) -> list:
    """Cosim targets for the lanes' work, one per distinct lane
    parameter: the exercise loop with ``a2`` set by an ``li`` instead of
    a poke, so the golden ISS runs what a lane runs."""
    from repro.farm.campaigns import FLEET_EXERCISE_PROGRAM
    from repro.isa.assembler import assemble

    targets = []
    for value in sorted(set(values)):
        source = FLEET_EXERCISE_PROGRAM.replace(
            "start:\n", f"start:\n    li a2, {value}\n", 1)
        targets.append((f"lane a2={value}", core, assemble(source), None))
    return targets


def fleet_lanes(spec: dict) -> dict:
    from repro.farm.campaigns import (FLEET_ID_REGISTER, FLEET_ID_SPREAD,
                                      FLEET_MEM_SIZE, fleet_lane_value,
                                      fleet_throughput_metrics)
    from repro.rtl.core_sim import RisspSim
    from repro.verify.fuzz import derive_seed

    core, program = _fleet_target()
    setup_s, clock = _setup_done(spec)
    offset = derive_seed(spec["seed"], 3) % FLEET_ID_SPREAD
    values = [fleet_lane_value(offset + lane) for lane in range(FLEET_LANES)]

    # Sampled lanes against a single fused RisspSim on the result row and
    # every RVFI column: the package's own equivalence check, which
    # raises before it times anything.
    failures = []
    try:
        fleet_throughput_metrics(
            instances=FLEET_LANES, quantum=FLEET_QUANTUM,
            sample=FLEET_SAMPLED, baseline_sample=1,
            max_instructions=FLEET_BUDGET)
    except RuntimeError as exc:
        failures.append(str(exc))

    # Reference row per lane parameter, for every lane of every batch.
    reference = {}
    for value in set(values):
        sim = RisspSim(core, program, mem_size=FLEET_MEM_SIZE,
                       backend="fused")
        sim.rtl.regfile_data[FLEET_ID_REGISTER] = value
        reference[value] = sim.run(max_instructions=FLEET_BUDGET)
    lane_targets = _lane_targets(core, values)

    recorder = Recorder()

    def batch(traced: bool) -> dict:
        clock.restart()
        with _section(recorder, traced) as section:
            started = time.perf_counter()
            rows = section.call("fleet.batch", _fleet_batch, core, program,
                                values)
            raw = time.perf_counter() - started
        wall = clock.lap(raw)
        retired = sum(row.instructions for row in rows)
        for lane, row in enumerate(rows):
            want = reference[values[lane]]
            if (row.exit_code, row.instructions, row.halted_by) != \
                    (want.exit_code, want.instructions, want.halted_by):
                failures.append(f"lane {lane}: {row} != {want}")
        unit = {"latencies": [wall], "round_s": wall, "traced": traced,
                "retired": retired, "raw": {"round_s": raw}}
        if not traced:
            clock.restart()
            cosim_s, counts = _cosim_seconds(lane_targets, failures)
            unit["cosim_s"] = clock.lap(cosim_s)
            unit["raw"]["cosim_s"] = cosim_s
            # Each lane program is the lane's loop plus its ``li``.
            unit["cosim_retired"] = sum(counts)
            if [count - 1 for count in counts] != \
                    [reference[value].instructions
                     for value in sorted(reference)]:
                failures.append(f"lane cosims retired {counts}")
        else:
            layers = layer_metrics(section, raw, ("fleet.batch",),
                                   lanes=len(rows))
            run_s = sum(recorder.durations("fleet.run", section.first))
            layers["fleet.run_rps"] = retired / run_s if run_s else 0.0
            layers["fleet.construct_share"] = \
                layers["fleet.construct_s"] / raw
            unit["layers"] = layers
        return unit

    units = _timed_rounds(spec, batch)
    retired = {unit["retired"] for unit in units}
    if len(retired) != 1:
        failures.append(f"batches retired different counts: {retired}")
    modelled = {**_synth_totals([("fleet", core)]),
                "sim_cycles": units[0]["retired"]}
    doc = {"setup_s": setup_s, "units": units, "modelled": modelled,
           "attempted": FLEET_LANES * len(units), "failures": failures,
           "provenance": obs.host_provenance()}
    if spec["trace"]:
        doc["spans"] = _spans_doc(recorder)
    return doc


def _fleet_batch(core, program, values) -> list:
    """The public FleetSim call sequence: construct, poke, run."""
    from repro.farm.campaigns import FLEET_ID_REGISTER, FLEET_MEM_SIZE
    from repro.rtl.fleet import FleetSim

    fleet = FleetSim(core, program, len(values), mem_size=FLEET_MEM_SIZE)
    for lane, value in enumerate(values):
        fleet.poke_regfile(lane, FLEET_ID_REGISTER, value)
    return fleet.run(max_instructions=FLEET_BUDGET, quantum=FLEET_QUANTUM)


ROLES = {
    "edge_pass": edge_pass,
    "farm_campaign_setup": farm_setup,
    "farm_campaign": farm_campaign,
    "fleet_lanes_setup": fleet_setup,
    "fleet_lanes": fleet_lanes,
}


if __name__ == "__main__":
    sys.exit(main())
