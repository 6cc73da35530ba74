"""Differential fuzz harness: fused cycle loop vs per-cycle backends.

PR 4 fused the whole RTL cycle loop into one generated function
(:func:`repro.rtl.compiled.compile_core`).  The speedup is only
trustworthy if the fused fast path is observationally identical to the
oracles, so this suite runs the same programs lock-step on all three
backends — ``fused``, per-cycle ``compiled`` (PR 2) and the tree-walking
``interpreter`` — and compares the complete columnar RVFI trace
(including the ``trap``/``intr`` flags), the halt cause and the exit
code, row by row:

* **randomized programs** — a seeded generator mixes every ALU/shift/
  compare op with memory round-trips and bounded loops.  Since PR 6 the
  generators live in :mod:`repro.verify.fuzz` and every chunk's seed is
  derived from one base seed via :func:`repro.verify.fuzz.derive_seed` —
  the exact seed stream the multi-process farm shards, so a farm run
  reproduces this suite bit-for-bit and any failure here names the same
  ``(task-id, seed)`` pair a farm failure would;
* **randomized trap firmware** — handler installs, Zicsr traffic,
  ecall round-trips through the hardware trap unit;
* **real workloads from every registry category** — a MicroC-compiled
  embench kernel and extreme-edge app (bounded-prefix lock-step, so the
  interpreter leg stays cheap) plus the event-driven SoC firmware images
  with their MMIO platform and timer interrupts, run to halt;
* **fault injection** — corrupted fused-side rows must surface as cosim
  mismatches, proving the chunked fused compare path actually gates;
* **the lock-step contract** — exact first-divergence index and field
  inside a later chunk, halt-flag divergence on either side, golden
  refusals ordered after an earlier divergence, what the golden sink
  holds afterwards; the fused verdict must equal the per-cycle one;
* **backend selection** — ``REPRO_RTL_BACKEND`` must pick each backend,
  and only ``fused`` may arm the fused loop.
"""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import build_rissp
from repro.rtl.core_sim import (
    COSIM_CHUNK,
    COSIM_FIELDS,
    CosimMismatch,
    RisspSim,
    cosimulate,
)
from repro.sim.golden import GoldenSim, SimulationError, run_program
from repro.sim.tracing import RvfiTrace
from repro.verify.fuzz import (
    FUZZ_BASE_SEED,
    derive_seed,
    fuzz_chunk_seeds,
    random_program,
    random_trap_program,
)
from repro.workloads import WORKLOADS, build_program

BACKENDS = ("fused", "compiled", "interpreter")

#: Per-chunk seeds of the fuzz campaign — (chunk index, derived seed)
#: pairs, so every parametrized test id doubles as the replay recipe.
FUZZ_CHUNKS = list(enumerate(fuzz_chunk_seeds(FUZZ_BASE_SEED, 8)))
TRAP_FUZZ_CHUNKS = list(enumerate(fuzz_chunk_seeds(FUZZ_BASE_SEED + 1, 4)))

FULL_SUBSET = [d.mnemonic for d in INSTRUCTIONS]
FULL_TRAP_SUBSET = FULL_SUBSET + ["mret"]


@pytest.fixture(scope="module")
def full_core():
    return build_rissp(FULL_SUBSET)


@pytest.fixture(scope="module")
def trap_core():
    return build_rissp(FULL_TRAP_SUBSET)


def _rows(result):
    trace = result.trace
    return [trace.row(index) for index in range(len(trace))]


def _assert_lockstep(core, program, max_instructions, soc=None,
                     context=""):
    """Run on every backend with full tracing; all rows must be equal."""
    results = {}
    for backend in BACKENDS:
        sim = RisspSim(core, program, trace=True, backend=backend, soc=soc)
        results[backend] = sim.run(max_instructions)
    reference = results["interpreter"]
    ref_rows = _rows(reference)
    for backend in ("fused", "compiled"):
        result = results[backend]
        assert (result.exit_code, result.instructions, result.halted_by) \
            == (reference.exit_code, reference.instructions,
                reference.halted_by), f"{context}: {backend} outcome"
        rows = _rows(result)
        assert len(rows) == len(ref_rows), f"{context}: {backend} length"
        for index, (got, want) in enumerate(zip(rows, ref_rows)):
            if got != want:
                fields = [(name, a, b) for name, a, b in
                          zip(RvfiTrace.FIELDS, got, want) if a != b]
                raise AssertionError(
                    f"{context}: {backend} row {index} diverges: {fields}")
    return reference


# ---------------------------------------------------------------- fuzzing

@pytest.mark.parametrize("chunk, seed", FUZZ_CHUNKS,
                         ids=[f"chunk{i}-seed={s:#x}"
                              for i, s in FUZZ_CHUNKS])
def test_random_programs_lockstep_on_all_backends(chunk, seed, full_core):
    program = assemble(random_program(seed))
    reference = _assert_lockstep(
        full_core, program, 20_000,
        context=f"fuzz[{chunk:03d}] seed={seed:#x}")
    assert reference.halted_by == "ecall"
    # The reference itself must match the golden ISS (fused chunked cosim).
    assert cosimulate(full_core, program, max_instructions=20_000,
                      backend="fused") is None


@pytest.mark.parametrize("chunk, seed", TRAP_FUZZ_CHUNKS,
                         ids=[f"chunk{i}-seed={s:#x}"
                              for i, s in TRAP_FUZZ_CHUNKS])
def test_random_trap_firmware_lockstep_on_all_backends(chunk, seed,
                                                       trap_core):
    program = assemble(random_trap_program(seed))
    reference = _assert_lockstep(
        trap_core, program, 20_000,
        context=f"trap-fuzz[{chunk:03d}] seed={seed:#x}")
    assert reference.halted_by == "ecall"
    rows = _rows(reference)
    assert any(row[RvfiTrace.FIELDS.index("trap")] for row in rows), \
        "trap firmware never trapped"
    assert cosimulate(trap_core, program, max_instructions=20_000,
                      backend="fused") is None


# ----------------------------------------------- workload categories

@pytest.mark.parametrize("name", ["crc32", "armpit"])
def test_compiled_workload_prefix_lockstep(name, full_core):
    """One embench kernel and one extreme-edge app (MicroC-compiled):
    bounded-prefix lock-step keeps the interpreter leg affordable."""
    from repro.compiler import compile_to_program

    workload = WORKLOADS[name]
    program = compile_to_program(workload.source, "O2").program
    _assert_lockstep(full_core, program, 1_200, context=name)


@pytest.mark.parametrize("name, limit", [("uart_selftest", 8_000),
                                         ("label_refresh", 8_000),
                                         ("sensor_streaming", 1_600)])
def test_soc_firmware_lockstep_on_all_backends(name, limit, trap_core):
    """Event-driven SoC firmware (timer ISR, wfi, MMIO devices — and the
    two-source all-C streaming image) on all three backends — trap/intr
    columns included.  The asm images run to halt; the streaming image
    runs a bounded prefix so the interpreter leg stays affordable (its
    full run is fused-cosimulated in test_soc)."""
    workload = WORKLOADS[name]
    program = build_program(workload)
    reference = _assert_lockstep(trap_core, program, limit,
                                 soc=workload.soc_spec, context=name)
    if name == "sensor_streaming":
        intr_slot = RvfiTrace.FIELDS.index("intr")
        codes = {row[intr_slot] for row in _rows(reference)
                 if row[intr_slot]}
        assert codes == {7, 16}, codes      # both sources inside the prefix
    else:
        assert reference.halted_by in ("ecall", "poweroff")


def test_af_detect_irq_fused_matches_compiled(trap_core):
    """The long interrupt-driven firmware (all-MicroC since PR 5): fused
    vs per-cycle compiled to halt (the interpreter leg is covered by the
    shorter images above)."""
    workload = WORKLOADS["af_detect_irq"]
    program = build_program(workload)
    results = {}
    for backend in ("fused", "compiled"):
        sim = RisspSim(trap_core, program, trace=True, backend=backend,
                       soc=workload.soc_spec)
        results[backend] = sim.run(200_000)
    fused, compiled = results["fused"], results["compiled"]
    assert (fused.exit_code, fused.instructions, fused.halted_by) == \
        (compiled.exit_code, compiled.instructions, compiled.halted_by)
    assert _rows(fused) == _rows(compiled)
    intr_slot = RvfiTrace.FIELDS.index("intr")
    assert any(row[intr_slot] for row in _rows(fused)), \
        "firmware took no interrupts"


# ---------------------------------------------- two-source arbitration

#: Both sources armed; the sensor delivers every 50 ticks and the timer
#: fires every 100, so at t=100, 200, ... both levels are high inside the
#: same retirement window and the arbiter's fixed priority (timer above
#: sensor) decides the entry order.
TWO_SOURCE_RACE = """
.equ PWR,      0x40000
.equ MTIMECMP, 0x40108
.equ SENSOR,   0x40300
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, 100
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 0x10080           # mie = SDIE | MTIE
    csrw mie, t0
    csrsi mstatus, 8
    li s0, 0                 # timer entries
    li s1, 0                 # sensor entries
loop:
    wfi
    li t1, 4
    blt s0, t1, loop
done:
    csrci mstatus, 8
    slli t1, s0, 8
    or t1, t1, s1
    li t0, PWR
    sw t1, 0(t0)
hang:
    j hang
handler:
    csrr t0, mcause
    bgez t0, back            # (exceptions: just return)
    slli t0, t0, 1           # drop the interrupt bit
    srli t0, t0, 1
    li t1, 7
    beq t0, t1, timer
sensor:
    li t0, SENSOR
    lw t1, 4(t0)             # INDEX
    addi t1, t1, 1
    sw t1, 12(t0)            # ACK = INDEX + 1: drop the level
    addi s1, s1, 1
    j back
timer:
    li t0, MTIMECMP
    lw t1, 0(t0)
    addi t1, t1, 100
    sw t1, 0(t0)
    addi s0, s0, 1
back:
    mret
"""

#: Sensor waveform for the race image: a sample every 50 ticks.
RACE_SPEC_KWARGS = dict(sensor_samples=tuple(range(1, 40)),
                        sensor_ticks_per_sample=50)


def test_two_source_race_lockstep_on_all_backends(trap_core):
    """Timer and sensor pending in the same retirement window: all three
    RTL backends and the golden ISS must take the two entries in the
    same (fixed-priority) order, visible in the intr cause codes."""
    from repro.soc import SocSpec

    program = assemble(TWO_SOURCE_RACE)
    spec = SocSpec(**RACE_SPEC_KWARGS)
    reference = _assert_lockstep(trap_core, program, 8_000, soc=spec,
                                 context="two-source-race")
    assert reference.halted_by == "poweroff"
    intr_slot = RvfiTrace.FIELDS.index("intr")
    codes = [row[intr_slot] for row in _rows(reference)
             if row[intr_slot]]
    assert 7 in codes and 16 in codes, codes
    # Races (both levels high at the same retirement): the timer must
    # win, with the sensor entry immediately after the handler's mret —
    # at t=100k the sensor sample (every 50) and the timer (every 100)
    # are both due, so every timer entry is a race here.
    first_race = codes.index(7)
    assert codes[first_race + 1] == 16, codes
    # And the golden reference agrees retirement-by-retirement.
    assert cosimulate(trap_core, program, max_instructions=8_000,
                      soc=SocSpec(**RACE_SPEC_KWARGS),
                      backend="fused") is None


# ------------------------------------------------- fused cosim gating

def test_fused_cosim_detects_injected_row_corruption(full_core,
                                                     monkeypatch):
    """Mirror of the per-cycle read-effect injection tests: poke one
    recorded field in the fused chunk and the chunked compare must report
    exactly that field."""
    original = RisspSim._fused_run

    def corrupted(self, count, limit, trace):
        halted, reason, new_count = original(self, count, limit, trace)
        if trace is not None and len(trace):
            trace.poke(0, "rd_wdata", trace.peek(0, "rd_wdata") ^ 4)
        return halted, reason, new_count

    monkeypatch.setattr(RisspSim, "_fused_run", corrupted)
    program = assemble(random_program(derive_seed(FUZZ_BASE_SEED, 1)))
    mismatch = cosimulate(full_core, program, max_instructions=20_000,
                          backend="fused")
    assert mismatch is not None and mismatch.field == "rd_wdata"
    assert mismatch.rtl_value == mismatch.golden_value ^ 4


def test_fused_cosim_reports_limit_exhaustion(full_core):
    program = assemble(".text\nmain:\n j main\n")
    mismatch = cosimulate(full_core, program, max_instructions=100,
                          backend="fused")
    assert mismatch is not None and mismatch.field == "limit"
    assert mismatch.index == 100


# ------------------------------------------------- backend selection

def test_env_var_selects_every_backend(full_core, monkeypatch):
    program = assemble(random_program(derive_seed(FUZZ_BASE_SEED, 2)))
    outcomes = {}
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_RTL_BACKEND", backend)
        sim = RisspSim(full_core, program)
        assert sim.rtl.backend == backend
        # Only the fused backend arms the whole-cycle loop; the per-cycle
        # oracles must keep driving _cycle.
        assert (sim._fused is not None) == (backend == "fused")
        result = sim.run(20_000)
        outcomes[backend] = (result.exit_code, result.instructions,
                             result.halted_by)
    assert outcomes["fused"] == outcomes["compiled"] == \
        outcomes["interpreter"]


def test_constructor_backend_beats_env_var(full_core, monkeypatch):
    monkeypatch.setenv("REPRO_RTL_BACKEND", "interpreter")
    sim = RisspSim(full_core,
                   assemble(random_program(derive_seed(FUZZ_BASE_SEED, 3))),
                   backend="fused")
    assert sim.rtl.backend == "fused" and sim._fused is not None


def test_rissp_cores_advertise_fused_interface(full_core, trap_core):
    from repro.rtl import core_fusable

    for core in (full_core, trap_core):
        assert core.meta["fusable"] and core_fusable(core)


# ------------------------------------------- lock-step contract
#
# The fused cosim compares chunk columns against the golden sink's newest
# slot; these pin what that must keep from the per-cycle walk: the exact
# first divergence, the halt flags, the exception order and what the
# golden sink holds.  Each injection works on the fused and the per-cycle
# compiled backend alike, and the two verdicts must agree.

#: ~4.5k retirements: two COSIM_CHUNK chunks plus a tail.
LONG_LOOP = """.text
main:
    li t0, 1500
loop:
    addi a0, a0, 3
    addi t0, t0, -1
    bnez t0, loop
    ret
"""

#: Mid-way through the second fused chunk.
MID_CHUNK2 = COSIM_CHUNK + 17


@pytest.fixture(scope="module")
def long_loop():
    program = assemble(LONG_LOOP)
    retired = run_program(program).instructions
    assert MID_CHUNK2 + 1 < retired - 2 < 2 * COSIM_CHUNK
    return program, retired


def _corrupt_rtl_row(monkeypatch, target, field):
    """Flip bit 2 of ``field`` in the RTL row of retirement ``target``,
    on the fused chunk or the per-cycle sink, whichever records it."""
    fused_run = RisspSim._fused_run
    cycle = RisspSim._cycle

    def fused(self, count, limit, trace):
        result = fused_run(self, count, limit, trace)
        if trace is not None and count <= target < count + len(trace):
            trace.poke(target - count, field,
                       trace.peek(target - count, field) ^ 4)
        return result

    def per_cycle(self, order, sink=None):
        result = cycle(self, order, sink)
        if sink is not None and order == target:
            sink.poke(-1, field, sink.peek(-1, field) ^ 4)
        return result

    monkeypatch.setattr(RisspSim, "_fused_run", fused)
    monkeypatch.setattr(RisspSim, "_cycle", per_cycle)


def _patch_golden(monkeypatch, at, halt=None, refuse=False):
    """At golden retirement ``at``: raise a refusal before retiring, or
    override the halt flag after retiring normally.  Injected through both
    golden entries: ``retire_one`` (the per-cycle walk's) and ``run_chunk``
    (the fused path's), which is split at ``at`` so that row retires
    through the patched ``retire_one``."""
    retire_one = GoldenSim.retire_one
    run_chunk = GoldenSim.run_chunk

    def patched(self, order, sink=None):
        if refuse and order == at:
            raise SimulationError("injected golden refusal")
        halted, reason = retire_one(self, order, sink)
        if halt is not None and order == at:
            return halt, "ecall" if halt else ""
        return halted, reason

    def patched_chunk(self, order, limit, sink):
        if not order <= at < limit:
            return run_chunk(self, order, limit, sink)
        halted, reason, count = run_chunk(self, order, at, sink)
        if not halted:
            halted, reason = patched(self, at, sink)
            count = at + 1
            if not halted:
                halted, reason, count = run_chunk(self, count, limit, sink)
        return halted, reason, count

    monkeypatch.setattr(GoldenSim, "retire_one", patched)
    monkeypatch.setattr(GoldenSim, "run_chunk", patched_chunk)


def _both_backends(core, program, **kwargs):
    verdicts = {backend: cosimulate(core, program, backend=backend, **kwargs)
                for backend in ("fused", "compiled")}
    assert verdicts["fused"] == verdicts["compiled"], verdicts
    return verdicts["fused"]


@pytest.mark.parametrize("field", COSIM_FIELDS)
def test_cosim_reports_exact_divergence_mid_second_chunk(
        full_core, long_loop, monkeypatch, field):
    program, _ = long_loop
    golden = GoldenSim(program, trace=True).run().trace.peek(MID_CHUNK2,
                                                             field)
    _corrupt_rtl_row(monkeypatch, MID_CHUNK2, field)
    assert _both_backends(full_core, program) == \
        CosimMismatch(MID_CHUNK2, field, golden ^ 4, golden)


def test_cosim_reports_golden_halt_one_row_early(full_core, long_loop,
                                                 monkeypatch):
    program, retired = long_loop
    _patch_golden(monkeypatch, retired - 2, halt=True)
    assert _both_backends(full_core, program) == \
        CosimMismatch(retired - 2, "halt", 0, 1)


def test_cosim_reports_rtl_only_halt(full_core, long_loop, monkeypatch):
    program, retired = long_loop
    _patch_golden(monkeypatch, retired - 1, halt=False)
    assert _both_backends(full_core, program) == \
        CosimMismatch(retired - 1, "halt", 1, 0)


def test_cosim_golden_refusal_after_divergence_loses(full_core, long_loop,
                                                     monkeypatch):
    program, _ = long_loop
    _corrupt_rtl_row(monkeypatch, MID_CHUNK2, "rd_wdata")
    _patch_golden(monkeypatch, MID_CHUNK2 + 1, refuse=True)
    mismatch = _both_backends(full_core, program)
    assert (mismatch.index, mismatch.field) == (MID_CHUNK2, "rd_wdata")


def test_cosim_golden_refusal_after_clean_rows_propagates(
        full_core, long_loop, monkeypatch):
    program, _ = long_loop
    _patch_golden(monkeypatch, MID_CHUNK2 + 1, refuse=True)
    for backend in ("fused", "compiled"):
        with pytest.raises(SimulationError, match="injected golden refusal"):
            cosimulate(full_core, program, backend=backend)


@pytest.mark.parametrize("backend", ["fused", "compiled"])
def test_golden_trace_out_stops_at_the_mismatch(full_core, long_loop,
                                                monkeypatch, backend):
    program, _ = long_loop
    _corrupt_rtl_row(monkeypatch, MID_CHUNK2, "pc_wdata")
    sink = RvfiTrace()
    mismatch = cosimulate(full_core, program, backend=backend,
                          golden_trace_out=sink)
    assert mismatch.index == MID_CHUNK2
    assert len(sink) == MID_CHUNK2 + 1
    assert [row.order for row in sink[-2:]] == [MID_CHUNK2 - 1, MID_CHUNK2]


@pytest.mark.parametrize("backend", ["fused", "compiled"])
@pytest.mark.parametrize("capacity", [1, 7])
def test_ring_sink_counts_every_golden_retirement(full_core, long_loop,
                                                  backend, capacity):
    program, retired = long_loop
    sink = RvfiTrace(capacity=capacity)
    assert cosimulate(full_core, program, backend=backend,
                      golden_trace_out=sink) is None
    assert sink.total_appended == retired and len(sink) == capacity
    assert [row.order for row in sink] == \
        list(range(retired - capacity, retired))
