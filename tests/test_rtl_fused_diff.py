"""Differential fuzz harness: fused cycle loop vs the interpreter.

PR 4 fused the whole RTL cycle loop into one generated function
(:func:`repro.rtl.compiled.compile_core`).  The speedup is only
trustworthy if the fused fast path is observationally identical to the
oracle, so this suite runs the same programs lock-step on both backends
— ``fused`` and the tree-walking ``interpreter`` — and compares the
complete columnar RVFI trace (including the ``trap``/``intr`` flags), the
halt cause and the exit code, row by row:

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
  with their MMIO platform and timer interrupts, run to halt; the long
  interrupt-driven af_detect_irq firmware is cosimulated fused to halt
  and its RTL trace spec-checked;
* **self-modifying text** — words patched by ``sw``, ``sh`` and ``sb``
  are fetched through the fused loops' RAM word view, and the view's
  non-native shim runs a fused loop row for row like the interpreter;
* **fault injection** — corrupted fused-side rows must surface as cosim
  mismatches, proving the chunked fused compare path actually gates;
* **the lock-step contract** — exact first-divergence index and field
  inside a later chunk, halt-flag divergence on either side, golden
  refusals ordered after an earlier divergence, what the golden sink
  holds afterwards; the fused verdict must equal the interpreter's;
* **backend selection** — ``REPRO_RTL_BACKEND`` must pick each backend,
  only ``fused`` may arm the fused loop, and it refuses a core without
  the fused harness interface at construction.
"""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import build_rissp, core_sim
from repro.rtl.core_sim import (
    COSIM_CHUNK,
    COSIM_FIELDS,
    CosimMismatch,
    RisspSim,
    cosimulate,
)
from repro.rtl.ir import _read_mux_tree, const
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

BACKENDS = ("fused", "interpreter")

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
    """Run on both backends with full tracing; all rows must be equal."""
    results = {}
    for backend in BACKENDS:
        sim = RisspSim(core, program, trace=True, backend=backend, soc=soc)
        results[backend] = sim.run(max_instructions)
    reference = results["interpreter"]
    result = results["fused"]
    assert (result.exit_code, result.instructions, result.halted_by) \
        == (reference.exit_code, reference.instructions,
            reference.halted_by), f"{context}: fused outcome"
    rows = _rows(result)
    ref_rows = _rows(reference)
    assert len(rows) == len(ref_rows), f"{context}: fused length"
    for index, (got, want) in enumerate(zip(rows, ref_rows)):
        if got != want:
            fields = [(name, a, b) for name, a, b in
                      zip(RvfiTrace.FIELDS, got, want) if a != b]
            raise AssertionError(
                f"{context}: fused row {index} diverges: {fields}")
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
    two-source all-C streaming image) on both backends — trap/intr
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


def test_af_detect_irq_fused_trace_satisfies_spec(trap_core):
    """The long interrupt-driven firmware (all MicroC), the only RTL run
    of it to halt: fused cosim against the golden ISS, then the RVFI
    checker on the core's own trace.  Its interpreter leg would cost
    about 40x the fused run; the shorter images above cover the
    interpreter on the same interrupt machinery."""
    from repro.sim.golden import abi_initial_regs
    from repro.verify.rvfi import check_trace

    workload = WORKLOADS["af_detect_irq"]
    trace = RvfiTrace()
    assert cosimulate(trap_core, build_program(workload),
                      max_instructions=200_000, backend="fused",
                      soc=workload.soc_spec, rtl_trace_out=trace) is None
    report = check_trace(trace, initial_regs=abi_initial_regs())
    assert report.passed, report.errors
    assert any(trace.column("intr")), "firmware took no interrupts"


# ---------------------------------------------- multi-hot ModularEX selects

#: Rows 0-1 set the operands; row 2 is the add whose result the
#: multi-hot core ORs with the xor arm's.
MULTI_HOT = """.text
main:
    li a1, 3
    li a2, 1
    add a0, a1, a2
    ret
"""


def test_multi_hot_select_agrees_on_every_backend(full_core):
    """ModularEX ORs every arm whose select is set, and the generated
    loops evaluate only those arms — exact for any select pattern, not
    only one-hot.  With the xor arm's select driven by the add match too,
    every add fires two arms: (3 + 1) | (3 ^ 1) = 6.  The fused loop, a
    one-lane fleet and the interpreter agree on that result and every
    RVFI column, and all report the same cosim mismatch against the
    golden 4."""
    from repro.rtl.fleet import FleetSim

    variant = full_core.with_assigns({
        "ex_sel_xor": full_core.assigns["ex_sel_xor"]
        | full_core.sig("ex_sel_add")})
    program = assemble(MULTI_HOT)
    reference = _assert_lockstep(variant, program, 100, context="multi-hot")
    assert (reference.exit_code, reference.halted_by) == (6, "ecall")
    fleet = FleetSim(variant, program, 1, trace_lanes=(0,))
    [lane] = fleet.run(max_instructions=100)
    assert (lane.exit_code, lane.instructions, lane.halted_by) == \
        (reference.exit_code, reference.instructions, reference.halted_by)
    for field in RvfiTrace.FIELDS:
        assert lane.trace.column(field) == reference.trace.column(field), \
            field
    for backend in BACKENDS:
        assert cosimulate(variant, program, backend=backend) == \
            CosimMismatch(2, "rd_wdata", 6, 4), backend


def _load_reads_cone(core):
    """``lw`` also stores, at its address XOR the loaded word's bits 2-4
    and with data those bits XOR a constant: the address is a
    ``dmem_rdata``-cone signal the load itself reads, and the lane bits
    are a temp shared with the store data."""
    lane = core.sig("dmem_rdata") & const(0x1C, 32)
    lw = core.sig("ex_sel_lw")
    return {"dmem_addr": core.assigns["dmem_addr"] ^ lane,
            "dmem_wstrb": core.assigns["dmem_wstrb"]
            | (const(0xF, 4) & lw.sext(4)),
            "dmem_wdata": core.assigns["dmem_wdata"]
            | ((lane ^ const(0x5A5A5A5A, 32)) & lw.sext(32))}


def _swapped_read_leaves(core):
    """rs2 reads t1 for t0 and t0 for t1: a read port that is not the
    tree ``build_rissp`` builds, so the fused loops keep its tree."""
    entries = [const(0, 32)] + [core.sig(name)
                                for name in core.regfile.storage_signals]
    entries[5], entries[6] = entries[6], entries[5]
    return {"rf_rs2_data": _read_mux_tree(entries, core.sig("rf_rs2_addr"))}


#: ``with_assigns`` variants of the full core, each a shape the fused
#: loops must serve exactly: selects ORed into another (two-hot), three
#: selects ORed into one, a select tied to 0 (its words decode illegal), a
#: ``dmem_rdata``-cone address the load itself reads (evaluated before
#: the load and again after it), an OR arm that reads a pass member
#: (evaluated after the pass), arms whose select is not a decode value (a
#: select wire that reads ``pc``, a read-port bit; evaluated inline), and
#: a read port that is not the shared tree (read through its tree, not by
#: index).
SELECT_PATTERNS = {
    "two_hot": lambda core: {
        "ex_sel_xor": core.assigns["ex_sel_xor"] | core.sig("ex_sel_add")},
    "three_ored": lambda core: {
        "ex_sel_or": core.assigns["ex_sel_or"] | core.sig("ex_sel_and")
        | core.sig("ex_sel_xor")},
    "tied_to_zero": lambda core: {"ex_sel_sltu": const(0, 1)},
    "load_reads_cone": _load_reads_cone,
    "arm_reads_pass_member": lambda core: {
        "rf_wdata": core.assigns["rf_wdata"]
        | (core.sig("ex_next_pc") & core.sig("ex_sel_add").sext(32))},
    "runtime_select": lambda core: {
        "ex_sel_or": core.assigns["ex_sel_or"]
        | (core.sig("ex_sel_add") & core.sig("pc").bit(2)),
        "rf_wdata": core.assigns["rf_wdata"]
        | (core.sig("rf_rs1_data") & core.sig("rf_rs2_data").bit(0).sext(32))},
    "swapped_read_leaves": _swapped_read_leaves,
}


@pytest.mark.parametrize("pattern", sorted(SELECT_PATTERNS))
def test_every_select_pattern_agrees_on_every_backend(full_core, pattern):
    """Over seeded random programs, a fused ``RisspSim``, a one-lane
    ``FleetSim`` and the interpreter agree on each variant's result row
    (or refusal) and every RVFI column."""
    from repro.rtl.fleet import FleetSim
    from repro.sim import MemoryError_

    variant = full_core.with_assigns(SELECT_PATTERNS[pattern](full_core))

    def outcome(run):
        try:
            result = run()
        except (SimulationError, MemoryError_) as exc:
            return (type(exc), str(exc)), None
        return (result.exit_code, result.instructions,
                result.halted_by), result.trace

    for index in range(2):
        seed = derive_seed(FUZZ_BASE_SEED, index)
        program = assemble(random_program(seed))
        runs = {backend: (lambda backend=backend: RisspSim(
            variant, program, trace=True, backend=backend).run(2_000))
            for backend in BACKENDS}
        runs["fleet"] = lambda: FleetSim(
            variant, program, 1, backend="fused",
            trace_lanes=(0,)).run(2_000)[0]
        expected, expected_trace = outcome(runs.pop("interpreter"))
        for name, run in runs.items():
            actual, actual_trace = outcome(run)
            assert actual == expected, (pattern, seed, name)
            if expected_trace is None:
                continue
            for field in RvfiTrace.FIELDS:
                assert actual_trace.column(field) == \
                    expected_trace.column(field), (pattern, seed, name,
                                                   field)


def test_swapped_read_port_keeps_its_tree(full_core):
    """Only a read port assigned exactly the shared tree is read by
    index: the swapped rs2 port is emitted as its tree in both loops."""
    from repro.rtl.compiled import compile_core, compile_fleet

    variant = full_core.with_assigns(_swapped_read_leaves(full_core))
    for source in (compile_core(variant).source,
                   compile_fleet(variant).source):
        assert source.count("regfile[v_rf_rs1_addr]") == 1
        assert "regfile[v_rf_rs2_addr]" not in source
        assert source.count("regfile[15]") == 1


# ------------------------------------------- self-modifying text, word view

def _patched_text_program(store):
    """Executes ``addi a0, a0, 1`` at ``target``, then patches that word
    with ``sw`` (to ``addi a0, a0, 100``) or with ``sh`` (its upper half,
    the same patch) and later ``sb`` (its top byte, to ``addi a0, a0,
    260``), executing each patched word."""
    from repro.isa.bits import to_s32
    from repro.isa.encoding import Instruction, encode

    first = encode(Instruction("addi", rd=10, rs1=10, imm=100))
    second = (first & 0x00FFFFFF) | (0x10 << 24)
    if store == "sw":
        patch = [f"    li a2, {to_s32(first)}", "    sw a2, 0(a1)"]
    else:
        patch = [f"    li a2, {first >> 16}", f"    li a5, {second >> 24}",
                 "    bnez a3, top_byte",
                 "    sh a2, 2(a1)",
                 "    j patched",
                 "top_byte:",
                 "    sb a5, 3(a1)",
                 "patched:"]
    return assemble("\n".join([
        ".text", "main:", "    li a0, 0", "    li a3, 0",
        "    la a1, target", "loop:", "target:", "    addi a0, a0, 1"]
        + patch + [
        "    addi a3, a3, 1", "    li a4, 3", "    blt a3, a4, loop",
        "    ret"]) + "\n")


@pytest.mark.parametrize("store", ["sw", "sb_sh"])
def test_self_modifying_text_agrees_on_every_backend(full_core, store):
    """A store into the text shows through the fused loops' word view at
    the next fetch: a fused ``RisspSim``, a one-lane ``FleetSim`` and the
    interpreter agree on the result and every RVFI column, and the
    golden reference computes the same exit code."""
    from repro.rtl.fleet import FleetSim

    program = _patched_text_program(store)
    expected = run_program(program)
    assert expected.exit_code == (201 if store == "sw" else 361)
    reference = _assert_lockstep(full_core, program, 1_000, context=store)
    [lane] = FleetSim(full_core, program, 1, backend="fused",
                      trace_lanes=(0,)).run(1_000)
    for result in (reference, lane):
        assert (result.exit_code, result.halted_by) == \
            (expected.exit_code, "ecall")
    assert lane.instructions == reference.instructions
    for field in RvfiTrace.FIELDS:
        assert lane.trace.column(field) == reference.trace.column(field), \
            field


def test_word_view_shim_matches_memoryview():
    """The little-endian shim reads the same words as the native view
    and sees later same-length writes."""
    import random
    import struct
    import sys

    from repro.sim.memory import _LittleEndianWords, word_view

    raw = bytearray(random.Random(FUZZ_BASE_SEED).randbytes(4096))
    shim = _LittleEndianWords(raw)
    expected = list(struct.unpack(f"<{len(raw) // 4}I", raw))
    assert [shim[i] for i in range(len(expected))] == expected
    view = word_view(raw)
    if sys.byteorder == "little":
        assert isinstance(view, memoryview)
        assert view.tolist() == expected
    raw[8:12] = (0xDEADBEEF).to_bytes(4, "little")
    assert shim[2] == view[2] == 0xDEADBEEF
    view.release()


def test_fused_loop_runs_on_the_shim(full_core, monkeypatch):
    """With the shim in place of the native view, a fused loop retires
    the self-modifying program row for row like the interpreter."""
    from repro.rtl.compiled import compile_core
    from repro.sim.memory import _LittleEndianWords

    variant = full_core.with_assigns({})    # a core with its own namespace
    views = []

    def shim_view(raw):
        views.append(_LittleEndianWords(raw))
        return views[-1]

    monkeypatch.setitem(compile_core(variant).namespace, "word_view",
                        shim_view)
    program = _patched_text_program("sb_sh")
    result = RisspSim(variant, program, trace=True, backend="fused") \
        .run(1_000)
    reference = RisspSim(full_core, program, trace=True,
                         backend="interpreter").run(1_000)
    assert views
    assert (result.exit_code, result.instructions, result.halted_by) == \
        (reference.exit_code, reference.instructions, reference.halted_by)
    assert _rows(result) == _rows(reference)


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
    """Timer and sensor pending in the same retirement window: both RTL
    backends and the golden ISS must take the two entries in the same
    (fixed-priority) order, visible in the intr cause codes."""
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
        # Only the fused backend arms the whole-cycle loop; the
        # interpreter must keep driving _cycle.
        assert (sim._fused is not None) == (backend == "fused")
        result = sim.run(20_000)
        outcomes[backend] = (result.exit_code, result.instructions,
                             result.halted_by)
    assert outcomes["fused"] == outcomes["interpreter"]


def test_resolve_backend_knows_only_fused_and_interpreter(monkeypatch):
    """``fused`` is the default and the only fast path; the retired
    per-cycle ``compiled`` name is refused like any unknown one."""
    from repro.rtl.ir import IrError
    from repro.rtl.sim import resolve_backend

    monkeypatch.delenv("REPRO_RTL_BACKEND", raising=False)
    assert resolve_backend(None) == "fused"
    assert tuple(map(resolve_backend, BACKENDS)) == BACKENDS
    with pytest.raises(IrError, match="unknown RTL backend 'compiled'"):
        resolve_backend("compiled")


def test_constructor_backend_beats_env_var(full_core, monkeypatch):
    monkeypatch.setenv("REPRO_RTL_BACKEND", "interpreter")
    sim = RisspSim(full_core,
                   assemble(random_program(derive_seed(FUZZ_BASE_SEED, 3))),
                   backend="fused")
    assert sim.rtl.backend == "fused" and sim._fused is not None


def test_rissp_cores_advertise_fused_interface(full_core, trap_core):
    from repro.rtl import core_fusable

    for core in (full_core, trap_core):
        assert core_fusable(core)


def test_non_fusable_core_is_refused_at_construction():
    """On the fused backend a module without the fused harness interface
    (a bare library block) raises IrError when the simulator is built —
    RisspSim, cosimulate and FleetSim alike — instead of constructing and
    failing at its first cycle.  The interpreter still constructs."""
    from repro.rtl import default_library
    from repro.rtl.fleet import FleetSim
    from repro.rtl.ir import IrError

    block = default_library().get_block("add")
    program = assemble(MULTI_HOT)
    refusal = "does not expose the fused harness interface"
    with pytest.raises(IrError, match=refusal):
        RisspSim(block, program, backend="fused")
    with pytest.raises(IrError, match=refusal):
        cosimulate(block, program, backend="fused")
    with pytest.raises(IrError, match=refusal):
        FleetSim(block, program, 2, backend="fused")
    assert RisspSim(block, program, backend="interpreter")._fused is None


# ------------------------------------------- lock-step contract
#
# Cosim compares chunk columns, COSIM_CHUNK rows at a time on the fused
# backend and one row at a time on the interpreter; these pin what the
# chunk size must not change: the exact first divergence, the halt
# flags, the exception order and what the trace sinks hold.  Each
# injection works on the fused backend and the interpreter alike, and
# the two verdicts must agree.  They run the loop's own core with a small
# COSIM_CHUNK (the `small_chunk` fixture), so the interpreter leg retires
# about a hundred rows; one fused-only run keeps the production chunk.

#: The loop's subset: ``li`` (lui/addi), ``bnez`` (bne), ``ret`` (jalr)
#: and the halt stub's ``ecall``.
LOOP_SUBSET = ["addi", "lui", "bne", "jalr", "ecall"]

#: 3n + 3 retirements: ``li``, n loop passes, ``ret`` and the halt stub.
LONG_LOOP = """.text
main:
    li t0, {n}
loop:
    addi a0, a0, 3
    addi t0, t0, -1
    bnez t0, loop
    ret
"""

#: The fused chunk the contract tests cosimulate with.
SMALL_CHUNK = 64

#: Mid-way through the second fused chunk.
MID_CHUNK2 = SMALL_CHUNK + 17


def _long_loop(chunk, n):
    """The loop program with its retirement count: one full ``chunk``
    plus a tail that holds row ``chunk + 17`` and the halt."""
    program = assemble(LONG_LOOP.format(n=n))
    retired = run_program(program).instructions
    assert chunk + 18 < retired - 2 < 2 * chunk
    return program, retired


@pytest.fixture(scope="module")
def loop_core():
    return build_rissp(LOOP_SUBSET)


@pytest.fixture(scope="module")
def long_loop():
    return _long_loop(SMALL_CHUNK, 35)


@pytest.fixture
def small_chunk(monkeypatch):
    monkeypatch.setattr(core_sim, "COSIM_CHUNK", SMALL_CHUNK)


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
    override the halt flag after retiring normally.  Cosim drives the
    golden side through ``run_chunk`` on both backends, and its compiled
    recorders retire most rows without ``retire_one``, so the patched
    ``run_chunk`` is split at ``at`` and retires that row through the
    patched ``retire_one``."""
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
                for backend in BACKENDS}
    assert verdicts["fused"] == verdicts["interpreter"], verdicts
    return verdicts["fused"]


@pytest.mark.parametrize("field", COSIM_FIELDS)
def test_cosim_reports_exact_divergence_mid_second_chunk(
        loop_core, long_loop, small_chunk, monkeypatch, field):
    program, _ = long_loop
    golden = GoldenSim(program, trace=True).run().trace.peek(MID_CHUNK2,
                                                             field)
    _corrupt_rtl_row(monkeypatch, MID_CHUNK2, field)
    assert _both_backends(loop_core, program) == \
        CosimMismatch(MID_CHUNK2, field, golden ^ 4, golden)


def test_cosim_divergence_at_the_production_chunk(full_core, monkeypatch):
    """The fused path alone at the production COSIM_CHUNK on the full
    core: a corrupt row mid-way through the second chunk is reported
    exactly, and both trace sinks stop at it."""
    target = COSIM_CHUNK + 17
    program, _ = _long_loop(COSIM_CHUNK, 1500)
    _corrupt_rtl_row(monkeypatch, target, "rd_wdata")
    sink = RvfiTrace()
    rtl_sink = RvfiTrace()
    mismatch = cosimulate(full_core, program, backend="fused",
                          golden_trace_out=sink, rtl_trace_out=rtl_sink)
    golden = sink.peek(-1, "rd_wdata")
    assert mismatch == CosimMismatch(target, "rd_wdata", golden ^ 4, golden)
    assert len(sink) == len(rtl_sink) == target + 1


def test_interpreter_cosim_stops_at_the_divergent_row(loop_core, long_loop,
                                                      monkeypatch):
    """The interpreter's chunk is one row: the RTL side runs no cycle past
    the divergence, so a mutant on the oracle costs only its prefix."""
    program, _ = long_loop
    _corrupt_rtl_row(monkeypatch, MID_CHUNK2, "rd_wdata")
    corrupt_cycle = RisspSim._cycle
    cycles = []

    def counted(self, order, sink=None):
        cycles.append(order)
        return corrupt_cycle(self, order, sink)

    monkeypatch.setattr(RisspSim, "_cycle", counted)
    mismatch = cosimulate(loop_core, program, backend="interpreter")
    assert (mismatch.index, mismatch.field) == (MID_CHUNK2, "rd_wdata")
    assert cycles == list(range(MID_CHUNK2 + 1))


def test_cosim_reports_golden_halt_one_row_early(loop_core, long_loop,
                                                 small_chunk, monkeypatch):
    program, retired = long_loop
    _patch_golden(monkeypatch, retired - 2, halt=True)
    assert _both_backends(loop_core, program) == \
        CosimMismatch(retired - 2, "halt", 0, 1)


def test_cosim_reports_rtl_only_halt(loop_core, long_loop, small_chunk,
                                     monkeypatch):
    program, retired = long_loop
    _patch_golden(monkeypatch, retired - 1, halt=False)
    assert _both_backends(loop_core, program) == \
        CosimMismatch(retired - 1, "halt", 1, 0)


def test_cosim_golden_refusal_after_divergence_loses(loop_core, long_loop,
                                                     small_chunk,
                                                     monkeypatch):
    program, _ = long_loop
    _corrupt_rtl_row(monkeypatch, MID_CHUNK2, "rd_wdata")
    _patch_golden(monkeypatch, MID_CHUNK2 + 1, refuse=True)
    mismatch = _both_backends(loop_core, program)
    assert (mismatch.index, mismatch.field) == (MID_CHUNK2, "rd_wdata")


def test_cosim_golden_refusal_after_clean_rows_propagates(
        loop_core, long_loop, small_chunk, monkeypatch):
    """The refusal is raised, and both trace sinks keep only the rows the
    golden side retired and compared: not the RTL row (nor, on the fused
    path, the rest of the RTL chunk) the golden side never saw."""
    program, _ = long_loop
    _patch_golden(monkeypatch, MID_CHUNK2 + 1, refuse=True)
    for backend in BACKENDS:
        sink = RvfiTrace()
        rtl_sink = RvfiTrace()
        with pytest.raises(SimulationError, match="injected golden refusal"):
            cosimulate(loop_core, program, backend=backend,
                       golden_trace_out=sink, rtl_trace_out=rtl_sink)
        assert len(sink) == len(rtl_sink) == MID_CHUNK2 + 1
        assert list(rtl_sink.rows()) == list(sink.rows())


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_trace_out_stops_at_the_mismatch(loop_core, long_loop,
                                                small_chunk, monkeypatch,
                                                backend):
    """Both trace sinks receive exactly the compared rows, through the
    divergent one: the RTL sink holds the corrupt row, the golden sink
    its clean twin, and every earlier row is the same on both sides."""
    program, _ = long_loop
    _corrupt_rtl_row(monkeypatch, MID_CHUNK2, "pc_wdata")
    sink = RvfiTrace()
    rtl_sink = RvfiTrace()
    mismatch = cosimulate(loop_core, program, backend=backend,
                          golden_trace_out=sink, rtl_trace_out=rtl_sink)
    assert mismatch.index == MID_CHUNK2
    for trace in (sink, rtl_sink):
        assert len(trace) == MID_CHUNK2 + 1
        assert [row.order for row in trace[-2:]] == \
            [MID_CHUNK2 - 1, MID_CHUNK2]
    assert rtl_sink.peek(-1, "pc_wdata") == sink.peek(-1, "pc_wdata") ^ 4
    assert rtl_sink.column("pc_wdata")[:-1] == sink.column("pc_wdata")[:-1]


class _ChunkLengths:
    """A trace sink that keeps only the length of each chunk it gets."""

    def __init__(self):
        self.lengths = []

    def extend(self, chunk):
        self.lengths.append(len(chunk))


@pytest.mark.parametrize("backend", BACKENDS)
def test_trace_outs_get_one_extend_per_chunk(loop_core, long_loop,
                                             small_chunk, monkeypatch,
                                             backend):
    """Each side's sink receives every compared chunk in one ``extend``
    call, the last chunk trimmed to the divergent row: full chunks, then
    the rows through the divergence (one row at a time on the
    interpreter)."""
    program, _ = long_loop
    _corrupt_rtl_row(monkeypatch, MID_CHUNK2, "pc_wdata")
    golden, rtl = _ChunkLengths(), _ChunkLengths()
    mismatch = cosimulate(loop_core, program, backend=backend,
                          golden_trace_out=golden, rtl_trace_out=rtl)
    assert mismatch.index == MID_CHUNK2
    chunk = SMALL_CHUNK if backend == "fused" else 1
    assert golden.lengths == rtl.lengths == \
        [chunk] * (MID_CHUNK2 // chunk) + [MID_CHUNK2 % chunk + 1]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("capacity", [1, 7])
def test_ring_sink_counts_every_golden_retirement(loop_core, long_loop,
                                                  small_chunk, backend,
                                                  capacity):
    """A clean run hands every row to ring sinks on both sides."""
    program, retired = long_loop
    sink = RvfiTrace(capacity=capacity)
    rtl_sink = RvfiTrace(capacity=capacity)
    assert cosimulate(loop_core, program, backend=backend,
                      golden_trace_out=sink, rtl_trace_out=rtl_sink) is None
    assert sink.total_appended == rtl_sink.total_appended == retired
    assert len(sink) == len(rtl_sink) == capacity
    assert [row.order for row in sink] == \
        list(range(retired - capacity, retired))
    assert list(rtl_sink.rows()) == list(sink.rows())
