"""Batched fleet simulation tests (PR 7).

:class:`~repro.rtl.fleet.FleetSim` promises three things and these tests
pin all of them:

* **equivalence** — every lane's results (RunResult fields, final
  architectural state, full RVFI columns) are bit-identical to running
  that lane alone on the single-core fused backend;
* **divergence fallback** — a lane that reaches anything the batched
  loop cannot complete bit-identically (a trapping ecall, emulated
  Zicsr, an illegal word, an out-of-RAM access) leaves the batch with
  that instruction unexecuted and finishes on a per-instance
  :class:`~repro.rtl.core_sim.RisspSim`, while the rest of the batch
  keeps going — results still bit-identical, error surfaces included,
  and each divergence counted once under the event that caused it;
* **determinism contract** — batch size, stepping quantum and lane
  order never change any lane's results; mid-run peek/poke behaves
  exactly like the single-instance harness.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.isa import INSTRUCTIONS, assemble
from repro.isa.program import DEFAULT_MEM_SIZE
from repro.rtl.compiled import compile_fleet
from repro.rtl.core_sim import RisspSim
from repro.rtl.fleet import FleetSim
from repro.rtl.ir import IrError, const, mux
from repro.rtl.rissp import build_rissp
from repro.sim.golden import SimulationError
from repro.sim.memory import MemoryError_
from repro.sim.tracing import RvfiTrace

FULL_SUBSET = [d.mnemonic for d in INSTRUCTIONS]


@pytest.fixture(scope="module")
def full_core():
    return build_rissp(FULL_SUBSET)


@pytest.fixture(scope="module")
def trap_core():
    return build_rissp(FULL_SUBSET + ["mret"])


@pytest.fixture(scope="module")
def strobe_core(full_core):
    """Failure-injection variant: every store drives the malformed byte
    strobe 0b0101."""
    wstrb = full_core.assigns["dmem_wstrb"]
    return full_core.with_assigns(
        {"dmem_wstrb": mux(wstrb.ne(0), const(0b0101, 4), const(0, 4))})


#: Arithmetic/store/load loop parameterized by a2 (x12): every lane
#: computes a distinct result and halts at a distinct retirement count.
LOOP_SOURCE = """
    .text
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


@pytest.fixture(scope="module")
def loop_program():
    return assemble(LOOP_SOURCE)


def single_reference(core, program, lane_value, *, trace=False,
                     max_instructions=10_000):
    sim = RisspSim(core, program, trace=trace)
    sim.rtl.regfile_data[12] = lane_value
    return sim, sim.run(max_instructions=max_instructions)


def assert_lane_matches(fleet, lane, sim, reference):
    result = fleet.result(lane)
    assert result.exit_code == reference.exit_code
    assert result.instructions == reference.instructions
    assert result.halted_by == reference.halted_by
    for index in range(1, 16):
        assert fleet.peek_regfile(lane, index) == \
            sim.rtl.regfile_data[index]
    assert fleet.peek_regfile(lane, 0) == 0
    for name in sim.core.registers:
        assert fleet.peek_register(lane, name) == sim.rtl.env[name]


# ----------------------------------------------------------- equivalence

def test_batched_lanes_match_single_core_fused(full_core, loop_program):
    fleet = FleetSim(full_core, loop_program, 6)
    for lane in range(6):
        fleet.poke_regfile(lane, 12, 3 + lane)
    fleet.run(max_instructions=10_000)
    for lane in range(6):
        assert fleet.lane_state(lane) == "halted"
        sim, reference = single_reference(full_core, loop_program,
                                          3 + lane)
        assert_lane_matches(fleet, lane, sim, reference)


def test_rvfi_columns_match_single_core_fused(full_core, loop_program):
    """Full column diff on traced lanes — the strongest equivalence the
    harness can express (pc/rs/rd/mem lanes, every retirement)."""
    fleet = FleetSim(full_core, loop_program, 3, trace_lanes=(0, 1, 2))
    for lane in range(3):
        fleet.poke_regfile(lane, 12, 4 + lane)
    fleet.run(max_instructions=10_000)
    for lane in range(3):
        _, reference = single_reference(full_core, loop_program, 4 + lane,
                                        trace=True)
        fleet_trace = fleet.trace(lane)
        assert len(fleet_trace) == len(reference.trace)
        for field in RvfiTrace.FIELDS:
            assert fleet_trace.column(field) == \
                reference.trace.column(field), field


def test_limit_and_halt_mix(full_core, loop_program):
    """Lanes that halt early coexist with lanes that run out of budget."""
    fleet = FleetSim(full_core, loop_program, 4)
    bounds = (2, 2000, 3, 2000)
    for lane, bound in enumerate(bounds):
        fleet.poke_regfile(lane, 12, bound)
    fleet.run(max_instructions=100, quantum=32)
    for lane, bound in enumerate(bounds):
        sim, reference = single_reference(full_core, loop_program, bound,
                                          max_instructions=100)
        assert_lane_matches(fleet, lane, sim, reference)
    assert fleet.result(0).halted_by == "ecall"
    assert fleet.result(1).halted_by == "limit"


def test_per_lane_programs(full_core):
    add_prog = assemble(".text\nli a0, 7\naddi a0, a0, 1\necall\n")
    mul_prog = assemble(".text\nli a0, 6\nslli a0, a0, 2\necall\n")
    fleet = FleetSim(full_core, programs=[add_prog, mul_prog, add_prog])
    results = fleet.run()
    assert [r.exit_code for r in results] == [8, 24, 8]


# ------------------------------------------------- determinism contract

def test_batch_size_never_changes_results(full_core, loop_program):
    """The determinism contract: the same lane workload computes the same
    result alone, in a small batch, and in a large batch."""
    def outcome(instances, lane):
        fleet = FleetSim(full_core, loop_program, instances)
        for index in range(instances):
            fleet.poke_regfile(index, 12, 5 + index % 4)
        results = fleet.run(max_instructions=1_000)
        r = results[lane]
        return (r.exit_code, r.instructions, r.halted_by,
                [fleet.peek_regfile(lane, i) for i in range(16)])

    assert outcome(1, 0) == outcome(4, 0) == outcome(32, 0)
    assert outcome(4, 3) == outcome(32, 3)


def test_quantum_never_changes_results(full_core, loop_program):
    def outcome(quantum):
        fleet = FleetSim(full_core, loop_program, 5)
        for lane in range(5):
            fleet.poke_regfile(lane, 12, 6 + lane)
        results = fleet.run(max_instructions=1_000, quantum=quantum)
        return [(r.exit_code, r.instructions, r.halted_by)
                for r in results]

    reference = outcome(256)
    for quantum in (1, 3, 17, 64):
        assert outcome(quantum) == reference


def test_forced_backend_matches_fused(full_core, loop_program):
    """backend="interpreter" routes every lane through per-instance
    oracle sims — same results, no batched pass."""
    fused = FleetSim(full_core, loop_program, 2)
    oracle = FleetSim(full_core, loop_program, 2, backend="interpreter")
    for fleet in (fused, oracle):
        for lane in range(2):
            fleet.poke_regfile(lane, 12, 4 + lane)
    expected = fused.run(max_instructions=300)
    actual = oracle.run(max_instructions=300, quantum=64)
    assert [(r.exit_code, r.instructions, r.halted_by)
            for r in actual] == \
        [(r.exit_code, r.instructions, r.halted_by) for r in expected]
    assert oracle.lane_state(0) == "halted"


def test_unknown_backend_raises_at_construction(full_core, loop_program,
                                                monkeypatch):
    """A bad backend name, as an argument or through REPRO_RTL_BACKEND,
    is rejected where it is given, not at the first step."""
    with pytest.raises(IrError, match="unknown RTL backend 'bogus'"):
        FleetSim(full_core, loop_program, 2, backend="bogus")
    monkeypatch.setenv("REPRO_RTL_BACKEND", "bogus")
    with pytest.raises(IrError, match="unknown RTL backend 'bogus'"):
        FleetSim(full_core, loop_program, 2)


# ------------------------------------------------- divergence fallback

def test_trapping_lane_diverges_while_batch_continues(trap_core):
    """One lane installs mtvec and ecalls into a handler (divergence:
    the batched loop never executes a trapping instruction); its
    neighbours never trap and stay on the batched path to halt.  Both
    kinds must match their single-core runs exactly."""
    source = """
        .text
    start:
        beq a2, zero, plain
        la t1, handler
        csrrw zero, mtvec, t1      # emulated Zicsr -> diverges here
        li a0, 5
        ecall                      # traps into handler
        addi a0, a0, 7
        li t1, 0
        csrrw zero, mtvec, t1
        ecall
    plain:
        li a0, 40
        addi a0, a0, 2
        ecall
    handler:
        addi a0, a0, 100
        csrrs t2, mepc, zero
        addi t2, t2, 4
        csrrw zero, mepc, t2
        mret
    """
    program = assemble(source)
    # Which lanes stay batched is the fused fleet loop's mechanism, so
    # the fleet is pinned to it; the references follow the suite backend.
    fleet = FleetSim(trap_core, program, 4, backend="fused",
                     trace_lanes=(0, 1, 2, 3))
    for lane in range(4):
        fleet.poke_regfile(lane, 12, lane % 2)
    results = fleet.run(max_instructions=1_000)
    assert results[0].exit_code == 42 and results[2].exit_code == 42
    assert results[1].exit_code == 112 and results[3].exit_code == 112
    # Divergent lanes were adopted by per-instance sims; plain lanes
    # never left the batch.
    assert 1 in fleet._sims and 3 in fleet._sims
    assert 0 not in fleet._sims and 2 not in fleet._sims
    for lane in range(4):
        sim = RisspSim(trap_core, program, trace=True)
        sim.rtl.regfile_data[12] = lane % 2
        reference = sim.run(max_instructions=1_000)
        assert_lane_matches(fleet, lane, sim, reference)
        fleet_trace = fleet.trace(lane)
        for field in RvfiTrace.FIELDS:
            assert fleet_trace.column(field) == \
                reference.trace.column(field), (lane, field)


def test_illegal_word_raises_like_single_core(full_core):
    program = assemble(".text\nli a0, 1\n.word 0xFFFFFFFF\necall\n")
    fleet = FleetSim(full_core, program, 2)
    with pytest.raises(SimulationError):
        fleet.run(max_instructions=100)
    single = RisspSim(full_core, program)
    with pytest.raises(SimulationError):
        single.run(max_instructions=100)


def test_divergent_lane_keeps_tracing(trap_core):
    """A trace attached before divergence keeps filling after the lane
    moves to the per-instance path (no rows lost at the boundary)."""
    source = """
        .text
    start:
        la t1, handler
        csrrw zero, mtvec, t1
        li a0, 1
        ecall
        li t1, 0
        csrrw zero, mtvec, t1
        ecall
    handler:
        addi a0, a0, 10
        csrrs t2, mepc, zero
        addi t2, t2, 4
        csrrw zero, mepc, t2
        mret
    """
    program = assemble(source)
    fleet = FleetSim(trap_core, program, 1, trace_lanes=(0,))
    fleet.run(max_instructions=100)
    sim = RisspSim(trap_core, program, trace=True)
    reference = sim.run(max_instructions=100)
    assert len(fleet.trace(0)) == len(reference.trace)
    for field in RvfiTrace.FIELDS:
        assert fleet.trace(0).column(field) == \
            reference.trace.column(field), field


#: Tail of the handler lanes: once the stunt retired, clear mtvec and halt
#: through the ecall convention; the handler skips the trapping word.
_HANDLER_TAIL = """
    csrw mtvec, x0
    ecall
handler:
    csrr t1, mepc
    addi t1, t1, 4
    csrw mepc, t1
    mret
"""

#: One row per divergence event: (event, core fixture, lane source,
#: poke mtvec to the handler).  Each lane retires in the batch until its
#: stunt, the first word the batched loop cannot finish.
DIVERGENCE_TABLE = {
    "fetch-misaligned": ("fetch", "full_core",
                         "li a0, 3\nli t0, 2\njr t0", False),
    "fetch-past-ram": ("fetch", "full_core",
                       f"li a0, 3\nli t0, {DEFAULT_MEM_SIZE}\njr t0", False),
    "load_oob": ("load_oob", "full_core",
                 f"li t0, {DEFAULT_MEM_SIZE}\nlw a0, 0(t0)\necall", False),
    "store_oob": ("store_oob", "full_core",
                  f"li t0, {DEFAULT_MEM_SIZE}\nsw t0, 0(t0)\necall", False),
    "other": ("other", "strobe_core",
              "li a0, 5\nsw a0, 128(zero)\necall", False),
    "rv32e_bound": ("rv32e_bound", "trap_core",
                    # add x16, x0, x0: register field past the RV32E bound
                    "li a0, 3\n.word 0x00000833" + _HANDLER_TAIL, True),
    "emulated": ("emulated", "trap_core",
                 "li a0, 3\ncsrrs t0, mscratch, zero" + _HANDLER_TAIL,
                 False),
    "illegal": ("illegal", "trap_core",
                "li a0, 3\n.word 0xFFFFFFFF" + _HANDLER_TAIL, True),
    "trap": ("trap", "trap_core", "li a0, 3\necall" + _HANDLER_TAIL, True),
    # First word at reset: mepc is 0, so mret jumps back to itself and
    # the lane runs to its budget.
    "mret": ("mret", "trap_core", "mret\necall", False),
    # Without the trap slice both loops refuse these words as illegal.
    "plain-zicsr": ("illegal", "full_core",
                    "li a0, 3\ncsrrs t0, mscratch, zero\necall", False),
    "plain-mret": ("illegal", "full_core", "li a0, 3\nmret\necall", False),
}


@pytest.mark.parametrize("row", sorted(DIVERGENCE_TABLE))
def test_divergence_event_matches_single_core(request, row):
    """Every exit event of the shared retirement body: the one-lane fleet
    matches a single-core fused run (result row and every RVFI column,
    or the same exception) and counts exactly one divergence, under the
    event's own cause."""
    event, core_fixture, body, poke_handler = DIVERGENCE_TABLE[row]
    core = request.getfixturevalue(core_fixture)
    program = assemble(".text\nstart:\n" + body + "\n")
    single = RisspSim(core, program, trace=True, backend="fused")
    fleet = FleetSim(core, program, 1, backend="fused", trace_lanes=(0,))
    if poke_handler:
        single.csr.mtvec = program.symbols["handler"]
        fleet.poke_register(0, "mtvec", program.symbols["handler"])

    def outcome(run):
        """(result row, trace), or (exception type and message, None)."""
        try:
            r = run()
        except (SimulationError, MemoryError_) as exc:
            return (type(exc), str(exc)), None
        return (r.exit_code, r.instructions, r.cycles, r.halted_by), r.trace

    expected, expected_trace = outcome(
        lambda: single.run(max_instructions=64))
    with obs.session() as telemetry:
        actual, actual_trace = outcome(
            lambda: fleet.run(max_instructions=64)[0])
    assert actual == expected
    if expected_trace is not None:
        for field in RvfiTrace.FIELDS:
            assert actual_trace.column(field) == \
                expected_trace.column(field), field
    counted = {name: value for name, value in telemetry.counters.items()
               if name.startswith("fleet.diverge.") and value}
    assert counted == {f"fleet.diverge.{event}": 1}


# -------------------------------------------------- mid-run peek/poke

def test_midrun_poke_on_batched_lane(full_core, loop_program):
    """Poking one batched lane mid-run redirects only that lane — the
    same fault-injection surface the single-instance harness offers."""
    # A batched lane is the fused fleet loop's; the reference follows the
    # suite backend.
    fleet = FleetSim(full_core, loop_program, 3, backend="fused")
    for lane in range(3):
        fleet.poke_regfile(lane, 12, 50)
    fleet.step(5)
    assert fleet.lane_state(1) == "batched"
    fleet.poke_regfile(1, 12, 3)  # shrink only lane 1's loop bound
    results = fleet.run(max_instructions=1_000)
    assert results[1].instructions < results[0].instructions
    assert results[0].instructions == results[2].instructions

    # The poked trajectory equals a single-core run poked at the same
    # retirement count.
    sim = RisspSim(full_core, loop_program)
    sim.rtl.regfile_data[12] = 50
    sim._advance(0, 5, None)
    sim.rtl.regfile_data[12] = 3
    reference = sim.run(max_instructions=1_000)
    # run() restarts its budget; align on total retirements instead.
    assert fleet.peek_regfile(1, 10) == reference.exit_code


def test_midrun_peek_and_memory_poke(full_core, loop_program):
    fleet = FleetSim(full_core, loop_program, 2)
    for lane in range(2):
        fleet.poke_regfile(lane, 12, 30)
    fleet.step(7)
    assert fleet.instructions(0) == 7
    assert fleet.peek_register(0, "pc") != 0
    fleet.poke_memory_word(0, 0x200, 0xDEADBEEF)
    fleet.run(max_instructions=500)
    assert fleet.peek_memory_word(0, 0x200) == 0xDEADBEEF
    assert fleet.peek_memory_word(1, 0x200) == 0
    # x0 stays hardwired to zero through pokes.
    fleet.poke_regfile(0, 0, 123)
    assert fleet.peek_regfile(0, 0) == 0


def test_poke_register_reaches_fallback_lane(trap_core, loop_program):
    fleet = FleetSim(trap_core, loop_program, 1, backend="interpreter")
    fleet.poke_regfile(0, 12, 4)
    fleet.step(3)  # materializes (interpreter backend)
    assert fleet.lane_state(0) == "fallback"
    fleet.poke_register(0, "mtvec", 0x80)
    assert fleet.peek_register(0, "mtvec") == 0x80
    assert fleet._sims[0].rtl.env["mtvec"] == 0x80


# ------------------------------------------------------- construction

def test_constructor_validation(full_core, loop_program):
    with pytest.raises(ValueError, match="needs a program"):
        FleetSim(full_core)
    with pytest.raises(ValueError, match="at least one"):
        FleetSim(full_core, programs=[])
    with pytest.raises(ValueError, match="instances"):
        FleetSim(full_core, instances=3,
                 programs=[loop_program, loop_program])
    with pytest.raises(ValueError, match="positive"):
        FleetSim(full_core, loop_program, 1).step(0)


def test_compile_fleet_shares_decode_cache(full_core):
    """The batched loop and the single-instance fused loop share one
    per-word decode cache — same dict object, same positional layout."""
    from repro.rtl.compiled import compile_core

    fleet = compile_fleet(full_core)
    core = compile_core(full_core)
    assert fleet is compile_fleet(full_core)  # memoized per module
    assert core.namespace["_DCACHE"] is \
        fleet.run_fleet.__globals__["_DCACHE"]
    assert fleet.registers == tuple(full_core.registers)


def test_throughput_metrics_hold_one_fleet_at_a_time(monkeypatch):
    """``fleet_throughput_metrics`` builds a sampled-lane probe fleet and
    then the timed fleet; the probe is released before the timed fleet
    is built, so the campaign never holds two fleets' lane memories."""
    import weakref

    from repro.farm.campaigns import fleet_throughput_metrics

    live: weakref.WeakSet = weakref.WeakSet()
    live_at_construction = []
    construct = FleetSim.__init__

    def counting_init(self, *args, **kwargs):
        live.add(self)
        live_at_construction.append(len(live))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(FleetSim, "__init__", counting_init)
    fleet_throughput_metrics(instances=64, sample=2, baseline_sample=2)
    assert live_at_construction == [1, 1]
