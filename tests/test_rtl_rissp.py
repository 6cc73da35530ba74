"""ModularEX + RISSP integration tests."""

import re

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import (
    RisspSim, build_modularex, build_rissp, cosimulate, emit_module,
)
from repro.sim import SimulationError, run_program

FULL = [d.mnemonic for d in INSTRUCTIONS]

PROGRAM = """
.data
nums: .word 3, -9, 27, 81, 0x7FFFFFFF
.text
main:
    la   a1, nums
    li   a2, 5
    li   a0, 0
loop:
    beqz a2, done
    lw   a3, 0(a1)
    add  a0, a0, a3
    srai a3, a3, 3
    xor  a0, a0, a3
    addi a1, a1, 4
    addi a2, a2, -1
    j    loop
done:
    sb   a0, 0(a1)
    lbu  a4, 0(a1)
    sub  a0, a0, a4
    ret
"""


def test_modularex_meta_and_illegal():
    ex = build_modularex(["add", "addi", "ecall"])
    assert ex.meta["mnemonics"] == ["add", "addi", "ecall"]
    assert "illegal" in ex.ports


def test_full_core_cosimulates():
    core = build_rissp(FULL, name="rv32e")
    assert cosimulate(core, assemble(PROGRAM)) is None


def test_subset_core_runs_program():
    prog = assemble(PROGRAM)
    from repro.core import extract_subset
    subset = extract_subset(prog) + ["ecall"]
    core = build_rissp(subset, name="custom")
    r = RisspSim(core, prog).run()
    assert r.exit_code == run_program(prog).exit_code


def test_unsupported_instruction_traps():
    core = build_rissp(["addi", "ecall"], name="tiny")
    prog = assemble(".text\nmain:\n add a0, a0, a0\n ret\n")
    with pytest.raises(SimulationError):
        RisspSim(core, prog).run()


def test_single_cycle_timing():
    core = build_rissp(FULL)
    prog = assemble(PROGRAM)
    r = RisspSim(core, prog).run()
    assert r.cycles == r.instructions


def test_rissp_emits_systemverilog():
    """Every wire and output the emitted module declares has exactly one
    ``assign``: the read muxes drive the read data, and the array drives
    each storage wire.  Checked on a plain and a trap-capable core."""
    for subset in (["addi", "jal", "ecall"], ["addi", "jal", "ecall", "mret"]):
        core = build_rissp(subset, name="sv_check")
        assert ("mtvec" in core.registers) == ("mret" in subset)
        text = emit_module(core)
        assert "module sv_check" in text and "regs [0:15]" in text
        targets = re.findall(r"^  assign (\w+) = ", text, re.MULTILINE)
        assert len(targets) == len(set(targets))
        assert set(targets) == set(core.wires) | {
            port.name for port in core.outputs()}
        assert "  assign regs_q15 = regs[15];" in text
        assert "regs[rf_waddr] <= rf_wdata;" in text


def test_rvfi_trace_from_rtl():
    from repro.verify import check_trace
    core = build_rissp(FULL)
    prog = assemble(PROGRAM)
    sim = RisspSim(core, prog, trace=True)
    r = sim.run()
    report = check_trace(r.trace, initial_regs={2: 0x20000 - 16,
                                                1: 0xFFF0})
    assert report.passed, report.errors[:3]
