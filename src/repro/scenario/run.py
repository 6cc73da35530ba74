"""Scenario execution: segmented runs, fault injection, cross-backend
replay and coverage extraction.

The SoC runner exploits the resumable-run contract both simulator
families share: every ``run(max_instructions=N)`` call restarts the
retirement counter at zero with machine state persisting, and peek/poke
between calls behaves exactly like the interpreter.  A scenario
with fault events therefore runs as *segments* split at the fault times;
between segments the platform clock is re-synced and re-based
identically on every backend (``soc.sync(k); soc.rebase(0)``), the pokes
are applied through the backend's architectural poke surface, and the
per-segment traces concatenate into one master trace whose columns are
directly comparable across backends (per-segment ``order`` restart
included).

Coverage is extracted purely from that master trace plus ``halted_by``
(see :mod:`repro.scenario.coverage`), so a scenario's coverage — like
its result — is a pure function of the scenario description.
"""

from __future__ import annotations

from contextlib import contextmanager

from .. import obs
from ..obs import telemetry as _obs
from ..sim.golden import SimulationError
from ..sim.memory import MemoryError_
from ..sim.tracing import RvfiTrace
from .coverage import CoverageMap, coverage_from_fleet, coverage_from_trace
from .gen import FleetScenario, SocScenario

#: RVFI columns compared across backends — the cosim contract
#: (rs1/rs2 read-effect columns are backend-representation-specific).
from ..rtl.core_sim import COSIM_FIELDS  # noqa: E402


def scenario_core_spec():
    """The rebuildable full-ISA trap-capable core every scenario runs
    on."""
    from ..farm.tasks import CoreSpec
    from ..isa.instructions import INSTRUCTIONS
    from ..rtl.rissp import build_rissp

    core = build_rissp([d.mnemonic for d in INSTRUCTIONS] + ["mret"],
                       name="rissp_scenario")
    return CoreSpec.of(core)


# -------------------------------------------------------- fault plumbing

def _apply_fault(sim, fault) -> None:
    """Poke one fault through the backend's architectural surface."""
    if fault.kind == "reg":
        if hasattr(sim, "rtl"):
            sim.rtl.regfile_data[fault.target] = fault.value & 0xFFFFFFFF
        else:
            sim.write_reg(fault.target, fault.value)
        return
    if fault.kind == "mem":
        sim.memory.store(fault.target, fault.value & 0xFFFFFFFF, 4)
        if hasattr(sim, "image"):
            sim.image.invalidate(fault.target)
        return
    raise ValueError(f"unknown fault kind {fault.kind!r}")


def _fault_schedule(scenario: SocScenario) -> list[tuple[int, list]]:
    """Fault events grouped by (clamped, sorted) retirement time."""
    grouped: dict[int, list] = {}
    for fault in scenario.faults:
        at = max(1, min(fault.at, scenario.budget - 1))
        grouped.setdefault(at, []).append(fault)
    return sorted(grouped.items())


# ------------------------------------------------------------ SoC runner

def run_soc_scenario(core, scenario: SocScenario, backend: str = "fused"):
    """Run one SoC scenario; returns ``(info, master_trace)``.

    ``info`` is a plain picklable dict (halted_by / instructions /
    exit_code / refusal); the master trace concatenates the per-segment
    traces.  A deterministic simulator refusal (``SimulationError`` /
    ``MemoryError_`` — e.g. a fault-poked value steering a store out of
    RAM) is an *outcome*, recorded by exception type so backends can be
    compared on it, not a crash.
    """
    from ..isa.assembler import assemble
    from ..rtl.core_sim import RisspSim
    from ..sim.golden import GoldenSim

    program = assemble(scenario.source())
    spec = scenario.soc_spec()
    if backend == "golden":
        sim = GoldenSim(program, trace=True, soc=spec)
    else:
        sim = RisspSim(core, program, trace=True, backend=backend,
                       soc=spec)
    master = RvfiTrace()
    total = 0
    halted_by = "limit"
    exit_code = 0
    refusal = ""
    schedule = _fault_schedule(scenario)
    segments = [at for at, _ in schedule] + [scenario.budget]
    faults_at = dict(schedule)
    done = False
    for boundary in segments:
        step = boundary - total
        if step > 0 and not done:
            try:
                result = sim.run(max_instructions=step)
            except (SimulationError, MemoryError_) as exc:
                refusal = type(exc).__name__
                done = True
                break
            master.extend(result.trace)
            total += result.instructions
            if result.halted_by != "limit" or total >= scenario.budget:
                halted_by = result.halted_by
                exit_code = result.exit_code
                done = True
                break
            # Re-sync the platform clock for the next segment's
            # order-restart — identical on every backend.
            if sim.soc is not None:
                sim.soc.sync(result.instructions)
                sim.soc.rebase(0)
        for fault in faults_at.get(boundary, ()):
            _apply_fault(sim, fault)
    if not done:   # budget spent exactly at a fault boundary
        halted_by = "limit"
    info = {"halted_by": halted_by if not refusal else "refused",
            "instructions": total, "exit_code": exit_code,
            "refusal": refusal}
    return info, master


def _compare_soc_backends(core, scenario: SocScenario, fused_info: dict,
                          fused_trace: RvfiTrace) -> str | None:
    """Replay the scenario on the golden ISS and diff the fused run
    (``run_soc_scenario``'s ``(info, trace)``) against it — full
    cosim-column compare over the master traces.  Returns ``None`` on a
    clean match, else a replayable verdict."""
    golden_info, golden_trace = run_soc_scenario(core, scenario,
                                                 backend="golden")
    if fused_info != golden_info:
        return (f"mismatch:result fused={fused_info} "
                f"golden={golden_info}")
    for field in COSIM_FIELDS:
        if fused_trace.column(field) != golden_trace.column(field):
            return f"mismatch:{field}"
    return None


# ---------------------------------------------------------- fleet runner

@contextmanager
def _captured_counters():
    """A nested telemetry session whose counters are read as this
    scenario's deltas, then replayed into the enclosing session (if any)
    so outer totals still see the activity."""
    parent = _obs.get()
    with obs.session() as telemetry:
        yield telemetry
    if parent is not None:
        for name, value in telemetry.counters.items():
            parent.counters[name] += value
        for snapshot in telemetry.tasks:
            parent.add_task(snapshot)


def run_fleet_scenario(core, scenario: FleetScenario):
    """Run one fleet scenario; returns ``(info, lane_rows,
    counter_delta)`` where the delta carries the ``fleet.diverge.*``
    counts the scenario's lanes produced."""
    from ..isa.assembler import assemble
    from ..rtl.fleet import FleetSim

    programs = [assemble(scenario.lane_source(lane))
                for lane in range(len(scenario.lanes))]
    with _captured_counters() as telemetry:
        fleet = FleetSim(core, programs=programs, mem_size=0x10000)
        for lane, program in enumerate(programs):
            if scenario.lane_needs_handler(lane):
                fleet.poke_register(lane, "mtvec",
                                    program.symbols["handler"])
        results = fleet.run(max_instructions=scenario.budget, quantum=16)
    rows = [(lane, result.exit_code, result.instructions,
             result.halted_by)
            for lane, result in enumerate(results)]
    info = {"halted_by": rows[0][3] if rows else "limit",
            "instructions": sum(row[2] for row in rows),
            "exit_code": rows[0][1] if rows else 0, "refusal": ""}
    return info, rows, dict(telemetry.counters)


def _handler_lane_verdict(core, program, handler: int, budget: int,
                          batched_row) -> str | None:
    """Replay one handler-poked lane on a single fused sim and on the
    golden ISS, with the same ``mtvec`` poke the fleet applied; compare
    the two runs column-for-column and the fused run against the
    batched row."""
    from ..rtl.core_sim import RisspSim
    from ..sim.golden import GoldenSim

    outcomes = []
    traces = []
    for sim in (RisspSim(core, program, trace=True),
                GoldenSim(program, trace=True)):
        sim.csr.mtvec = handler
        try:
            result = sim.run(max_instructions=budget)
        except (SimulationError, MemoryError_) as exc:
            outcomes.append(("refused", type(exc).__name__, 0))
            traces.append(None)
        else:
            outcomes.append((result.halted_by, result.exit_code,
                             result.instructions))
            traces.append(result.trace)
    if outcomes[0] != outcomes[1]:
        return (f"mismatch:result fused={outcomes[0]} "
                f"golden={outcomes[1]}")
    if traces[0] is not None and traces[1] is not None:
        for field in COSIM_FIELDS:
            if traces[0].column(field) != traces[1].column(field):
                return f"mismatch:{field}"
    lane_out = (batched_row[3], batched_row[1], batched_row[2])
    if outcomes[0] != lane_out:
        return f"mismatch:batched fleet={lane_out} single={outcomes[0]}"
    return None


def _compare_fleet_lanes(core, scenario: FleetScenario, rows) -> str | None:
    """Replay each lane alone on a single fused sim and on the golden
    ISS; any divergence from the batched rows is a verdict.  Lanes the
    fleet armed with a poked trap handler get the same poke here —
    ``cosim_verdict`` has no poke surface and would refuse their traps."""
    from ..isa.assembler import assemble
    from ..verify.mutation import cosim_verdict

    for row in rows:
        lane, exit_code, instructions, halted_by = row
        program = assemble(scenario.lane_source(lane))
        if scenario.lane_needs_handler(lane):
            verdict = _handler_lane_verdict(
                core, program, program.symbols["handler"],
                scenario.budget, row)
        else:
            verdict = cosim_verdict(core, program,
                                    max_instructions=scenario.budget)
            if verdict == "mismatch:limit" and halted_by == "limit":
                verdict = None   # both sides agree: loops past budget
        if verdict is not None:
            return f"lane{lane}:{verdict}"
    return None


# ------------------------------------------------------- outcome surface

def run_scenario(core, scenario, check_backends: bool = False) -> dict:
    """Run one scenario (either kind); returns its plain outcome row.

    The row is picklable and schema-stable: scenario identity (the
    replay triple ``scenario_id``/``seed``/``budget``), result, the
    coverage bins it hit, and a ``failure`` verdict (``None`` = clean).
    ``check_backends`` additionally replays the scenario on the golden ISS
    (SoC kind: full cosim-column compare of the segmented master traces;
    fleet kind: per-lane batched-vs-single cosim) — the campaign samples
    this.
    """
    _obs.bump("scenario.runs")
    failure = None
    if isinstance(scenario, SocScenario):
        info, trace = run_soc_scenario(core, scenario, backend="fused")
        cov = coverage_from_trace(trace, info["halted_by"],
                                  len(scenario.waveform.samples()))
        if check_backends:
            _obs.bump("scenario.replays")
            failure = _compare_soc_backends(core, scenario, info, trace)
    elif isinstance(scenario, FleetScenario):
        info, rows, delta = run_fleet_scenario(core, scenario)
        cov = coverage_from_fleet([row[3] for row in rows], delta)
        if check_backends:
            _obs.bump("scenario.replays")
            failure = _compare_fleet_lanes(core, scenario, rows)
    else:
        raise TypeError(f"not a scenario: {type(scenario).__name__}")
    if failure is not None:
        _obs.bump("scenario.failures")
    return {
        "scenario_id": scenario.scenario_id,
        "seed": scenario.seed,
        "budget": scenario.budget,
        "kind": scenario.kind,
        "halted_by": info["halted_by"],
        "instructions": info["instructions"],
        "exit_code": info["exit_code"],
        "refusal": info["refusal"],
        "bins": cov.to_doc(),
        "failure": failure,
        "checked_backends": bool(check_backends),
    }


def outcome_coverage(outcome: dict) -> CoverageMap:
    return CoverageMap.from_doc(outcome["bins"])
