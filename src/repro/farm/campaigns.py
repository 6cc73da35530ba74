"""Sharded campaign front-ends: enumerate tasks, run, merge deterministically.

Each campaign here follows one shape:

1. **enumerate** the work as picklable task descriptions
   (:mod:`repro.farm.tasks`) in a deterministic order,
2. **run** them through :func:`repro.farm.runner.run_tasks` (serial at
   ``workers=1``, process pool otherwise),
3. **merge** the results *in task order* into exactly the structure the
   serial code path produces — so every campaign is bit-identical for any
   worker count, which the farm tests assert by diffing merged results.

The cosim campaign is the ``repro`` CLI's cosim stage (real workloads on
their own generated cores, plus seeded fuzz chunks) and the lint campaign
its lint stage; the mutant kill matrix
(:func:`repro.verify.mutation.rtl_mutant_kill_matrix`) and the scenario
campaign build their own tasks.  The fleet throughput and farm scaling
measurements below back the ``BENCH_*.json`` benchmarks.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from ..isa.program import Program
from ..rtl.ir import Module
from ..verify.fuzz import FUZZ_BASE_SEED, derive_seed
from .runner import run_tasks
from .tasks import CoreSpec, CosimTask, FuzzCosimTask, LintTask

# ----------------------------------------------------------------- lint

#: Blocks linted per task in the sweep (small groups keep the pool busy).
LINT_BLOCK_GROUP = 8


def lint_targets(subsets: Sequence[str] | None = None) -> list[LintTask]:
    """Deterministic lint target enumeration: every block in the shipped
    library (grouped), then one stitched core per named subset-lattice
    entry (Table 3 order) plus the full-ISA ``rv32e`` baseline.

    ``subsets`` restricts the lattice portion to the named entries (the
    CI leg lints a sample; the default is the whole lattice).  Cores ship
    as fingerprint-free :class:`CoreSpec` descriptions — the subset *is*
    the target definition, so the parent never builds them.
    """
    from ..core.subset_analysis import ALWAYS_INCLUDED
    from ..data.paper import TABLE3_SUBSETS
    from ..isa.instructions import INSTRUCTIONS
    from ..rtl.library import default_library

    tasks: list[LintTask] = []
    mnemonics = sorted(default_library().mnemonics)
    for start in range(0, len(mnemonics), LINT_BLOCK_GROUP):
        group = tuple(mnemonics[start:start + LINT_BLOCK_GROUP])
        tasks.append(LintTask(
            task_id=f"lint-blocks[{start // LINT_BLOCK_GROUP:02d}]",
            blocks=group))
    lattice = dict(TABLE3_SUBSETS)
    lattice["rv32e"] = tuple(d.mnemonic for d in INSTRUCTIONS)
    chosen = list(lattice) if subsets is None else list(subsets)
    for name in chosen:
        subset = tuple(sorted(set(lattice[name]) | set(ALWAYS_INCLUDED)))
        tasks.append(LintTask(
            task_id=f"lint-core[{name}]",
            core=CoreSpec(mnemonics=subset, name=f"rissp_{name}")))
    return tasks


def lint_campaign(subsets: Sequence[str] | None = None,
                  workers: int = 1) -> dict:
    """Farm-sharded static-analysis sweep: RTL lint over blocks + the
    subset lattice, the generated-source audit of all three codegen
    paths, and the repo-contract scan — merged in task order, then
    deduplicated and waived (both order-insensitive), so the result is
    bit-identical at any worker count."""
    from ..analysis import (apply_waivers, audit_compiled, dedup_findings,
                            lint_contracts)
    from ..rtl.compiled import compile_core, compile_fleet, compile_module

    tasks = lint_targets(subsets)
    findings = []
    for task_findings in run_tasks(tasks, workers=workers):
        findings.extend(task_findings)

    # The generated-source audit runs in-parent on one representative
    # core (the mutation exercise target): compile all three ways, audit
    # each against its own exec namespace.
    core, _ = mutation_exercise_target()
    gen_sources = 0
    for kind, compiled in (("module", compile_module(core)),
                           ("core", compile_core(core)),
                           ("fleet", compile_fleet(core))):
        findings.extend(audit_compiled(compiled, kind, label=kind))
        gen_sources += 1

    contract_findings = lint_contracts()
    findings.extend(contract_findings)

    kept, waived = apply_waivers(dedup_findings(findings))
    blocks = sum(len(t.blocks) for t in tasks)
    cores = sum(1 for t in tasks if t.core is not None)
    return {
        "findings": kept,
        "waived": waived,
        "targets": {"blocks": blocks, "cores": cores,
                    "gen_sources": gen_sources,
                    "contract_scan": 1},
        "tasks": len(tasks),
    }


# ---------------------------------------------------------------- cosim

def workload_target(name: str) -> tuple[Module, Program, object]:
    """One workload's (core, program, soc_spec), built by the end-to-end
    flow's first half (:func:`~repro.core.flow.app_core`); cosimulation
    needs no synthesis."""
    from ..core.flow import app_core
    from ..workloads import WORKLOADS

    program, _, core = app_core(name)
    return core, program, WORKLOADS[name].soc_spec


def cosim_campaign(workloads: Sequence[str] = (), fuzz_chunks: int = 0,
                   fuzz_seed: int = FUZZ_BASE_SEED,
                   backend: str | None = "fused",
                   max_instructions: int = 2_000_000,
                   fuzz_max_instructions: int = 20_000,
                   workers: int = 1) -> dict[str, str | None]:
    """Cosimulation verdicts for named workloads plus seeded fuzz chunks.

    Returns ``{task id: verdict}`` in task order — workloads first (each
    on its own generated core, with its SoC platform when it has one),
    then fuzz chunk ``i`` with seed ``derive_seed(fuzz_seed, i)`` on the
    full-ISA core.  ``None`` verdicts are clean lock-step matches through
    halt; the task ids of fuzz chunks embed their seeds, so any failure
    is reported as a replayable ``(task-id, seed)`` pair.
    """
    tasks: list = []
    for name in workloads:
        core, program, soc_spec = workload_target(name)
        tasks.append(CosimTask(task_id=f"cosim:{name}",
                               core=CoreSpec.of(core), program=program,
                               backend=backend,
                               max_instructions=max_instructions,
                               soc=soc_spec))
    if fuzz_chunks:
        from ..isa.instructions import INSTRUCTIONS
        from ..rtl.rissp import build_rissp

        full = build_rissp([d.mnemonic for d in INSTRUCTIONS])
        full_spec = CoreSpec.of(full)
        for index in range(fuzz_chunks):
            seed = derive_seed(fuzz_seed, index)
            tasks.append(FuzzCosimTask(
                task_id=f"fuzz[{index:03d}]:seed={seed:#018x}",
                core=full_spec, seed=seed, backend=backend,
                max_instructions=fuzz_max_instructions))
    results = run_tasks(tasks, workers=workers)
    return {task.task_id: verdict
            for task, verdict in zip(tasks, results)}


# ---------------------------------------------------------------- fleet

#: Exercise program for fleet campaigns: an arithmetic/memory loop whose
#: iteration count and result are driven by the per-lane parameter poked
#: into ``a2`` — every lane computes a distinct value and halts at a
#: distinct retirement count, so batched-vs-single divergence anywhere in
#: the datapath, the store/load path or the halt sequencing is visible in
#: the per-lane rows.
FLEET_EXERCISE_PROGRAM = """.text
start:
    li a0, 0
    li t0, 0
loop:
    add a0, a0, t0
    addi t0, t0, 1
    xor a1, a0, t0
    sw a1, 128(zero)
    lw a3, 128(zero)
    add a0, a0, a3
    blt t0, a2, loop
    ecall
"""

#: Per-lane differentiation: ``a2`` (x12) gets ``BASE + lane % SPREAD``
#: — a pure function of the lane index.
FLEET_ID_REGISTER = 12
FLEET_ID_BASE = 12
FLEET_ID_SPREAD = 5

#: Fleet lanes only need the 64 KiB that reaches the halt-sentinel stub —
#: a quarter of the default image keeps a 1k-lane fleet cache-friendly.
FLEET_MEM_SIZE = 0x10000


def fleet_lane_value(lane: int) -> int:
    """The ``a2`` parameter of one fleet lane."""
    return FLEET_ID_BASE + lane % FLEET_ID_SPREAD


def fleet_exercise_target() -> tuple[Module, Program]:
    """The (core, program) pair the fleet measurement batches: the
    full-table RISSP (the core the fuzz campaign ships) running
    :data:`FLEET_EXERCISE_PROGRAM`."""
    from ..isa.assembler import assemble
    from ..isa.instructions import INSTRUCTIONS
    from ..rtl.rissp import build_rissp

    return (build_rissp([d.mnemonic for d in INSTRUCTIONS]),
            assemble(FLEET_EXERCISE_PROGRAM))


#: Timed reps of the single-core baseline in
#: :func:`fleet_throughput_metrics` (odd, so the median is one rep).
_BASELINE_REPS = 5


def fleet_throughput_metrics(instances: int = 1024,
                             quantum: int = 256, sample: int = 8,
                             baseline_sample: int = 128,
                             max_instructions: int = 1_000) -> dict:
    """Batched-fleet throughput vs the single-core fused loop, for
    ``BENCH_fleet_throughput``.

    Order matters: **equivalence before timing**.  ``sample`` lanes
    spread across the fleet are first replayed on a per-instance
    single-core fused :class:`~repro.rtl.core_sim.RisspSim` and compared
    on the result row *and every RVFI column*; any divergence raises
    ``RuntimeError`` and no timing is reported — a speedup over wrong
    results is not a speedup.  Then the batched fleet is timed end to end
    (construction, pokes, run) against a Python loop constructing and
    running single-core sims over ``baseline_sample`` of the same lanes.
    Both sides also report that time split into ``construct_s`` (the
    ``FleetSim`` / ``RisspSim`` constructors) and ``run_s`` (pokes and
    run), plus ``single_construct_share``: the single-core baseline's
    construction time over its end-to-end time.  The baseline loop is
    timed :data:`_BASELINE_REPS` times and every single-core figure is
    the rep with the median share, because one rep's share swings with
    a GC pause or a dip in host speed.
    """
    from ..rtl.core_sim import RisspSim, RunResult
    from ..rtl.fleet import FleetSim
    from ..sim.tracing import RvfiTrace

    core, program = fleet_exercise_target()

    def single_sim(trace: bool) -> RisspSim:
        return RisspSim(core, program, mem_size=FLEET_MEM_SIZE,
                        backend="fused", trace=trace)

    def single_run(sim: RisspSim, lane: int) -> RunResult:
        sim.rtl.regfile_data[FLEET_ID_REGISTER] = fleet_lane_value(lane)
        return sim.run(max_instructions=max_instructions)

    # -- equivalence: sampled lanes, full RVFI columns, before any timing
    sample = max(1, min(sample, instances))
    sampled = sorted({lane * (instances - 1) // max(1, sample - 1)
                      for lane in range(sample)})
    probe = FleetSim(core, program, instances, mem_size=FLEET_MEM_SIZE,
                     trace_lanes=sampled)
    for lane in range(instances):
        probe.poke_regfile(lane, FLEET_ID_REGISTER, fleet_lane_value(lane))
    probe_rows = probe.run(max_instructions=max_instructions,
                           quantum=quantum)
    for lane in sampled:
        reference = single_run(single_sim(trace=True), lane)
        got = probe_rows[lane]
        if (got.exit_code, got.instructions, got.halted_by) != \
                (reference.exit_code, reference.instructions,
                 reference.halted_by):
            raise RuntimeError(
                f"fleet lane {lane} result diverged from single-core "
                f"fused: {got} vs {reference}")
        fleet_trace = probe.trace(lane)
        for field in RvfiTrace.FIELDS:
            if fleet_trace.column(field) != reference.trace.column(field):
                raise RuntimeError(
                    f"fleet lane {lane} RVFI column {field!r} diverged "
                    f"from single-core fused")
    # Free the probe's lane memories before the timed fleet allocates its
    # own: nothing reads them after the equivalence loop.
    del probe, probe_rows

    # -- timed batched fleet (construction + pokes + run, no tracing)
    started = time.perf_counter()
    fleet = FleetSim(core, program, instances, mem_size=FLEET_MEM_SIZE)
    built = time.perf_counter()
    for lane in range(instances):
        fleet.poke_regfile(lane, FLEET_ID_REGISTER, fleet_lane_value(lane))
    results = fleet.run(max_instructions=max_instructions, quantum=quantum)
    fleet_seconds = time.perf_counter() - started
    fleet_construct = built - started
    retirements = sum(result.instructions for result in results)

    # -- baseline: single-core fused sims in a Python loop, same lanes
    baseline_sample = max(1, min(baseline_sample, instances))
    reps: list[tuple[float, float, float]] = []
    for _ in range(_BASELINE_REPS):
        single_construct = 0.0
        baseline_retirements = 0
        started = time.perf_counter()
        for lane in range(baseline_sample):
            before = time.perf_counter()
            sim = single_sim(trace=False)
            single_construct += time.perf_counter() - before
            baseline_retirements += single_run(sim, lane).instructions
        single_seconds = time.perf_counter() - started
        reps.append((single_construct / single_seconds, single_construct,
                     single_seconds))
    share, single_construct, single_seconds = \
        sorted(reps)[_BASELINE_REPS // 2]

    fleet_cps = retirements / fleet_seconds
    single_cps = baseline_retirements / single_seconds
    return {
        "campaign": "fleet_throughput",
        "instances": instances,
        "retirements": retirements,
        "quantum": quantum,
        "cpu_count": os.cpu_count() or 1,
        "equivalence_sampled_lanes": len(sampled),
        "single_sampled_instances": baseline_sample,
        "fleet_cycles_per_sec": fleet_cps,
        "single_cycles_per_sec": single_cps,
        "speedup_vs_single": fleet_cps / single_cps,
        "wallclock_sec": {"fleet_batched": fleet_seconds,
                          "single_core_sampled": single_seconds},
        "construct_s": {"fleet_batched": fleet_construct,
                        "single_core_sampled": single_construct},
        "run_s": {"fleet_batched": fleet_seconds - fleet_construct,
                  "single_core_sampled": single_seconds - single_construct},
        "single_construct_share": share,
    }


# -------------------------------------------------- scaling measurement

#: Compact subset + exercise program for the mutation scaling campaign —
#: the proven pairing from the mutation tests: every mutated datapath
#: (ALU, shifts, compares, upper-imm, memory, branches, jumps) is
#: exercised, so most mutants are distinguishable and no verdict is a
#: trivial early-out.
MUTATION_EXERCISE_SUBSET = (
    "add", "addi", "sub", "and", "or", "xor", "slt", "sll", "srl",
    "lui", "lw", "sw", "beq", "bne", "jal", "jalr", "ecall")

MUTATION_EXERCISE_PROGRAM = """.text
main:
    li a1, 21
    li a2, 2
    li tp, 40
outer:
    add a0, a1, a2
    sub a3, a1, a2
    and a4, a1, a2
    or a5, a1, a2
    xor t0, a1, a2
    slt t1, a2, a1
    sll t2, a1, a2
    srl s0, a1, a2
    lui gp, 0x12345
    add a0, a0, t0
    add a0, a0, t1
    add a0, a0, t2
    add a0, a0, s0
    sw a0, -32(sp)
    lw s1, -32(sp)
    beq a0, s1, good
    li a0, 0x0BAD
good:
    bne a0, zero, next
    li a0, 0x0BAD
next:
    jal s1, leaf
    add a0, a0, a3
    addi tp, tp, -1
    bne tp, zero, outer
    ret
leaf:
    addi a0, a0, 1
    jalr zero, s1, 0
"""


def mutation_exercise_target() -> tuple[Module, Program]:
    """The (core, program) pair the CLI mutation stage and the farm
    scaling benchmark shard."""
    from ..isa.assembler import assemble
    from ..rtl.rissp import build_rissp

    return (build_rissp(list(MUTATION_EXERCISE_SUBSET)),
            assemble(MUTATION_EXERCISE_PROGRAM))


#: Mutants and per-mutant cosim budget of the scaling campaign.
_SCALING_MUTANTS = 32
_SCALING_BUDGET = 4_000


def farm_scaling_metrics(worker_counts: Sequence[int] = (1, 2, 4)) -> dict:
    """Campaign wall-clock vs worker count, for ``BENCH_farm_scaling``.

    Runs the mutant-kill-matrix campaign once per worker count (the
    embarrassingly parallel shape the farm exists for: every mutant costs
    a fresh compile plus a cosim run) and asserts the merged matrices are
    bit-identical before reporting any timing — a speedup over a wrong
    answer is not a speedup.
    """
    from ..verify.mutation import rtl_mutant_kill_matrix

    core, program = mutation_exercise_target()
    wallclock: dict[str, float] = {}
    matrices = []
    for workers in worker_counts:
        started = time.perf_counter()
        matrix = rtl_mutant_kill_matrix(
            core, program, backends=("fused",),
            limit=_SCALING_MUTANTS, max_instructions=_SCALING_BUDGET,
            workers=workers)
        wallclock[f"workers_{workers}"] = time.perf_counter() - started
        matrices.append(matrix)
    reference = matrices[0]
    for workers, matrix in zip(worker_counts, matrices):
        # Not an assert: this guard must survive ``python -O`` — a speedup
        # over a diverged matrix must never be reported.
        if list(matrix.items()) != list(reference.items()):
            raise RuntimeError(
                f"kill matrix at workers={workers} diverged from serial")
    serial = wallclock[f"workers_{worker_counts[0]}"]
    metrics: dict = {
        "campaign": "rtl_mutant_kill_matrix",
        "mutants": len(reference),
        "backend": "fused",
        "cpu_count": os.cpu_count() or 1,
        "wallclock_sec": wallclock,
    }
    for workers in worker_counts[1:]:
        metrics[f"speedup_workers_{workers}"] = \
            serial / wallclock[f"workers_{workers}"]
    return metrics
