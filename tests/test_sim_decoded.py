"""Decoded-op cache tests: executor/recorder/spec equivalence,
memoization, self-modifying-code invalidation."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.bits import to_s32
from repro.isa.csrs import MCAUSE, MEPC, MSTATUS
from repro.isa.encoding import Instruction, decode, encode
from repro.isa.instructions import (
    BRANCHES, BY_MNEMONIC, Format, INSTRUCTIONS, LOADS, STORES,
)
from repro.isa.program import Program
from repro.isa.spec import (
    HALT_EBREAK, HALT_ECALL, compile_recorder, compile_step, step,
)
from repro.sim import GoldenSim, Memory, RvfiTrace, run_program
from repro.sim.golden import _HALT_SENTINEL

_PAIRS = ((0, 0), (1, 2), (0xFFFFFFFF, 1), (0x7FFFFFFF, 1),
          (0x80000000, 0xFFFFFFFF), (0x55555555, 0xAAAAAAAA))


def _cases(d):
    """Instruction instances covering each mnemonic's operand space."""
    m = d.mnemonic
    if m in LOADS:
        return [Instruction(m, rd=5, rs1=3, imm=0),
                Instruction(m, rd=5, rs1=3, imm={"lb": 1, "lbu": 3,
                                                 "lh": 2, "lhu": 2}.get(m, 4)),
                Instruction(m, rd=0, rs1=3, imm=0)]
    if m in STORES:
        return [Instruction(m, rs1=3, rs2=4, imm=0),
                Instruction(m, rs1=3, rs2=4,
                            imm={"sb": 5, "sh": 6}.get(m, 8))]
    if m in BRANCHES:
        return [Instruction(m, rs1=3, rs2=4, imm=8),
                Instruction(m, rs1=3, rs2=4, imm=-8)]
    if m == "jal":
        return [Instruction(m, rd=5, imm=16), Instruction(m, rd=0, imm=8)]
    if m == "jalr":
        return [Instruction(m, rd=5, rs1=3, imm=5),
                Instruction(m, rd=0, rs1=3, imm=0)]
    if d.is_shift_imm:
        return [Instruction(m, rd=5, rs1=3, imm=s) for s in (0, 1, 31)]
    if d.fmt is Format.U:
        return [Instruction(m, rd=5, imm=0x12345000),
                Instruction(m, rd=5, imm=to_s32(0xFFFFF000))]
    if d.fmt is Format.I:
        return [Instruction(m, rd=5, rs1=3, imm=i) for i in (0, 1, -1, -2048)] \
            + [Instruction(m, rd=0, rs1=3, imm=7)]
    if d.fmt is Format.R:
        return [Instruction(m, rd=5, rs1=3, rs2=4),
                Instruction(m, rd=0, rs1=3, rs2=4)]
    return [Instruction(m)]


def _fresh_state():
    mem = Memory(4096)
    for addr in range(0, 64, 4):
        mem.store(addr + 0x100, 0x89ABCDEF ^ addr, 4)
    regs = [0] * 16
    return regs, mem


def _apply_spec(instr, regs, mem, pc):
    """The seed interpreter step: spec.step + effect application."""
    rs1 = regs[instr.rs1]
    rs2 = regs[instr.rs2]
    effects = step(instr, pc, rs1, rs2, mem.load)
    if effects.mem_write is not None:
        mw = effects.mem_write
        mem.store(mw.addr, mw.data, mw.width)
    if effects.rd is not None:
        regs[effects.rd] = effects.rd_data
    if effects.halt:
        return HALT_ECALL if effects.is_ecall else HALT_EBREAK
    return effects.next_pc


def _source_values(d, a, b):
    """rs1/rs2 values of a case: memory operations and jalr address the
    seeded data words."""
    rs1 = 0x104 if d.mnemonic in LOADS + STORES + ("jalr",) else a
    return rs1, b & 0xFF if d.mnemonic in STORES else b


def _golden_at(instr, pc, rs1, rs2):
    """A golden ISS about to retire ``instr`` at ``pc`` from the
    :func:`_fresh_state` data and source registers."""
    sim = GoldenSim(Program(text_words=[encode(instr)], text_base=pc,
                            entry=pc))
    for addr in range(0, 64, 4):
        sim.memory.store(addr + 0x100, 0x89ABCDEF ^ addr, 4)
    sim.regs[3], sim.regs[4] = rs1, rs2
    return sim


@pytest.mark.parametrize("d", INSTRUCTIONS, ids=lambda d: d.mnemonic)
def test_compiled_executor_matches_spec(d):
    """compile_step closures retire identically to step() + effects, and
    compile_recorder closures retire identically to retire_one, all 17
    RVFI fields of the row included."""
    for instr in _cases(d):
        for a, b in _PAIRS:
            rs1, rs2 = _source_values(d, a, b)
            regs_a, mem_a = _fresh_state()
            regs_b, mem_b = _fresh_state()
            for regs in (regs_a, regs_b):
                regs[3], regs[4] = rs1, rs2
            pc = 0x40
            want_pc = _apply_spec(instr, regs_a, mem_a, pc)
            stored = []
            got_pc = compile_step(instr, stored.append)(regs_b, mem_b, pc)
            assert got_pc == want_pc, instr
            # The hook sees the effective address of every store, once.
            assert stored == ([(rs1 + instr.imm) & 0xFFFFFFFF]
                              if d.mnemonic in STORES else []), instr
            assert regs_a == regs_b, instr
            assert mem_a.read_blob(0, 4096) == mem_b.read_blob(0, 4096), instr

            oracle = _golden_at(instr, pc, rs1, rs2)
            recorded = _golden_at(instr, pc, rs1, rs2)
            want_trace, got_trace = RvfiTrace(), RvfiTrace()
            record = compile_recorder(instr, encode(instr),
                                      recorded.image.invalidate)
            got_pc = record(recorded.regs, recorded.memory, pc, 7,
                            got_trace.row_sink())
            if got_pc < 0:   # ecall/ebreak: retire_one's job, no row
                assert got_pc == want_pc and len(got_trace) == 0, instr
                assert recorded.regs == oracle.regs, instr
                continue
            oracle.retire_one(7, want_trace)
            assert got_pc == oracle.pc, instr
            assert list(got_trace.rows()) == list(want_trace.rows()), instr
            assert recorded.regs == oracle.regs, instr
            size = recorded.memory.size
            assert recorded.memory.read_blob(0, size) == \
                oracle.memory.read_blob(0, size), instr


@pytest.mark.parametrize("instr, rs1, rs2", [
    (Instruction("lw", rd=5, rs1=3, imm=1), 0x104, 0),          # misaligned
    (Instruction("sw", rs1=3, rs2=4, imm=0), 0x7FFFFFF0, 1),    # unmapped
    (Instruction("beq", rs1=3, rs2=4, imm=6), 0, 0),
    (Instruction("jal", rd=5, imm=6), 0, 0),
    (Instruction("jalr", rd=3, rs1=3, imm=2), 0x100, 0),
], ids=["load", "store", "branch", "jal", "jalr"])
def test_refused_recording_changes_and_records_nothing(instr, rs1, rs2):
    """A retirement the reference refuses raises the same error from the
    recorder, with no row appended and no register written."""
    oracle = _golden_at(instr, 0x40, rs1, rs2)
    recorded = _golden_at(instr, 0x40, rs1, rs2)
    with pytest.raises(Exception) as refused:
        oracle.retire_one(0, RvfiTrace())
    trace = RvfiTrace()
    with pytest.raises(type(refused.value)):
        compile_recorder(instr, encode(instr), recorded.image.invalidate)(
            recorded.regs, recorded.memory, 0x40, 0, trace.row_sink())
    assert len(trace) == 0 and recorded.regs == oracle.regs


def _machine_state(sim):
    """Final pc, register file and trap CSRs of a finished run."""
    return (sim.pc, list(sim.regs),
            [sim.csr.read(addr) for addr in (MEPC, MCAUSE, MSTATUS)])


def _retire_one_loop(program, soc, limit=2_000_000):
    """The reference recorded run: ``retire_one`` row by row.  Returns
    ``(exit_code, count, halted_by)``, the final machine state and the
    trace."""
    sim = GoldenSim(program, soc=soc)
    trace = RvfiTrace()
    count = 0
    halted_by = "limit"
    while count < limit:
        halted, reason = sim.retire_one(count, trace)
        count += 1
        if halted:
            halted_by = reason
            break
    exit_code = sim._poweroff_code if halted_by == "poweroff" \
        else sim.read_reg(10)
    return (exit_code, count, halted_by), _machine_state(sim), trace


def _recorded_programs():
    from repro.verify.fuzz import (
        FUZZ_BASE_SEED, derive_seed, random_program, random_trap_program,
    )
    from repro.workloads import SOC_NAMES, WORKLOADS

    for index in range(8):
        yield pytest.param(random_program(derive_seed(FUZZ_BASE_SEED, index)),
                           None, id=f"fuzz{index}")
    for index in range(2):
        yield pytest.param(
            random_trap_program(derive_seed(FUZZ_BASE_SEED, index)), None,
            id=f"trap{index}")
    for name in ("armpit", "xgboost", "af_detect") + SOC_NAMES:
        yield pytest.param(name, WORKLOADS[name].soc_spec, id=name)


def _build(source):
    from repro.workloads import WORKLOADS, build_program

    return build_program(source) if source in WORKLOADS \
        else assemble(source)


@pytest.mark.parametrize("source, soc", _recorded_programs())
def test_recorded_run_matches_retire_one_loop(source, soc):
    """GoldenSim(trace=True).run() — the compiled recorders, with
    retire_one only for what they cannot retire — records the same trace,
    column by column, and the same result as retire_one row by row.  The
    untraced fast path, whose closures send the same rows to retire_one,
    ends in the same result and the same machine state."""
    program = _build(source)
    want, want_state, want_trace = _retire_one_loop(program, soc)
    recorded = GoldenSim(program, trace=True, soc=soc)
    result = recorded.run()
    assert (result.exit_code, result.instructions, result.halted_by) == want
    assert _machine_state(recorded) == want_state
    for field in RvfiTrace.FIELDS:
        assert result.trace.column(field) == want_trace.column(field), field
    fast = GoldenSim(program, soc=soc)
    result = fast.run()
    assert (result.exit_code, result.instructions, result.halted_by) == want
    assert _machine_state(fast) == want_state


def test_decode_is_memoized():
    word = encode(Instruction("addi", rd=5, rs1=3, imm=42))
    assert decode(word) is decode(word)


def test_decoded_image_caches_ops():
    p = assemble(".text\nmain:\n li a0, 1\n ret\n")
    sim = GoldenSim(p)
    op = sim.image.get(p.entry)
    assert sim.image.get(p.entry) is op
    assert sim.image.executors[p.entry] is op.execute


def test_decoded_image_invalidate_any_byte_of_word():
    p = assemble(".text\nmain:\n li a0, 1\n ret\n")
    sim = GoldenSim(p)
    op = sim.image.get(p.entry)
    sim.image.invalidate(p.entry + 3)  # any byte within the word
    assert sim.image.get(p.entry) is not op


def _self_modifying_program():
    """Executes `addi a0, a0, 1` once, patches it to `addi a0, a0, 100`,
    then executes the patched word on the second loop iteration."""
    patched = encode(Instruction("addi", rd=10, rs1=10, imm=100))
    return assemble(f""".text
main:
    li a0, 0
    li a3, 0
    li a2, {to_s32(patched)}
    la a1, target
loop:
target:
    addi a0, a0, 1
    sw a2, 0(a1)
    addi a3, a3, 1
    li a4, 2
    blt a3, a4, loop
    ret
""")


def test_self_modifying_code_invalidates_fast_path():
    r = run_program(_self_modifying_program())
    assert r.exit_code == 101, "stale decoded op executed after store to text"


def test_self_modifying_code_invalidates_traced_path():
    r = run_program(_self_modifying_program(), trace=True)
    assert r.exit_code == 101
    assert len(r.trace) == r.instructions


def test_halt_stub_region_is_decoded_lazily():
    """The ecall halt stub lives outside the linked text; executing it via
    `ret` from main must decode through the image like any text word."""
    p = assemble(".text\nmain:\n li a0, 9\n ret\n")
    sim = GoldenSim(p)
    result = sim.run()
    assert result.halted_by == "ecall" and result.exit_code == 9
    assert _HALT_SENTINEL in sim.image.executors


def test_illegal_word_rejected_on_execution():
    from repro.sim import SimulationError
    p = assemble(".text\nmain:\n ret\n")
    p.text_words[0] = 0  # all-zeros is not a legal RV32 instruction
    with pytest.raises(SimulationError):
        run_program(p)


_SERV_LOOP = """.text
main:
    li a0, 0
    li a1, 20
loop:
    sw a0, 256(zero)
    lw a2, 256(zero)
    addi a0, a0, 1
    bne a0, a1, loop
    ret
"""


@pytest.mark.parametrize("source, soc", [
    pytest.param(_SERV_LOOP, None, id="serv_loop"), *_recorded_programs()])
def test_serv_cycles_identical_traced_and_untraced(source, soc):
    """Fast-path and trace-recording Serv loops share one cycle model: the
    traced loop charges every row from retire_one, the fast loop only the
    rows its executors cannot retire, SoC firmware included."""
    from repro.sim import ServSim
    program = _build(source)
    fast = ServSim(program, soc=soc)
    recorded = ServSim(program, trace=True, soc=soc)
    want = recorded.run()
    got = fast.run()
    assert (got.cycles, got.instructions, got.exit_code, got.halted_by) \
        == (want.cycles, want.instructions, want.exit_code, want.halted_by)
    assert len(want.trace) == want.instructions
    assert _machine_state(fast._golden) == _machine_state(recorded._golden)


def test_rv32e_register_bound_enforced():
    from repro.sim import SimulationError
    word = encode(Instruction("addi", rd=20, rs1=0, imm=1), num_regs=32)
    p = assemble(".text\nmain:\n ret\n")
    p.text_words[0] = word
    with pytest.raises(SimulationError):
        run_program(p)
