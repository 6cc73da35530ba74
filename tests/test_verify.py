"""Verification substrate tests: mutation, RISCOF, RVFI, failure injection."""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import RisspSim, build_block, build_rissp
from repro.rtl.ir import Const, Module
from repro.verify import (
    check_trace, run_compliance, run_mutation_campaign, run_testbench,
    vectors_for,
)


def test_vectors_cover_all_instructions():
    for d in INSTRUCTIONS:
        assert len(vectors_for(d.mnemonic)) >= 1


def test_vector_counts_substantial():
    assert len(vectors_for("add")) > 90
    assert len(vectors_for("beq")) > 100


@pytest.mark.parametrize("mnemonic", ["add", "beq", "lw", "sb", "jalr"])
def test_mutation_coverage_full(mnemonic):
    report = run_mutation_campaign(build_block(mnemonic), limit=30)
    assert report.total == 30
    assert report.coverage == 1.0, report.survivors[:3]


def test_testbench_catches_injected_bug():
    """Failure injection: corrupt a block's datapath; testbench must fail."""
    block = build_block("add")
    # swap the adder output for a subtractor: rebuild rdest_data
    from repro.rtl.ir import Binary, Op
    expr = block.assigns["rdest_data"]
    block = block.with_assigns(
        {"rdest_data": Binary(Op.SUB, expr.a, expr.b)})
    result = run_testbench(block)
    assert not result.passed


def test_formal_catches_wrong_decode():
    from repro.verify import check_block
    # corrupt rs2 address decode
    block = build_block("xor").with_assigns({"rs2_addr": Const(3, 4)})
    report = check_block(block)
    assert not report.proven


def test_riscof_compliance_full_core():
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    report = run_compliance(core, mnemonics=["add", "sub", "lw", "sb",
                                             "beq", "sra", "lui", "jalr"])
    assert report.compliant and report.tests_run == 8


def test_rvfi_checker_accepts_good_trace():
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    prog = assemble(""".text
main:
    li a1, 10
    li a2, 32
    add a0, a1, a2
    sw a0, 128(zero)
    lw a3, 128(zero)
    beq a0, a3, ok
    li a0, 0
ok:
    ret
""")
    sim = RisspSim(core, prog, trace=True)
    result = sim.run()
    report = check_trace(result.trace,
                         initial_regs={2: 0x20000 - 16, 1: 0xFFF0})
    assert report.passed, report.errors


def test_rvfi_checker_rejects_corrupted_trace():
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    prog = assemble(".text\nmain:\n li a0, 3\n addi a0, a0, 4\n ret\n")
    sim = RisspSim(core, prog, trace=True)
    result = sim.run()
    import dataclasses
    bad = list(result.trace)
    bad[1] = dataclasses.replace(bad[1], rd_wdata=999)
    report = check_trace(bad, initial_regs={2: 0x20000 - 16, 1: 0xFFF0})
    assert not report.passed


def test_rvfi_checker_rejects_pc_gap():
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    prog = assemble(".text\nmain:\n nop\n nop\n ret\n")
    result = RisspSim(core, prog, trace=True).run()
    import dataclasses
    bad = list(result.trace)
    bad[1] = dataclasses.replace(bad[1], pc_rdata=0x40)
    report = check_trace(bad, initial_regs={2: 0x20000 - 16, 1: 0xFFF0})
    assert not report.passed
