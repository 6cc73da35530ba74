"""Verification substrate tests: mutation, RISCOF, RVFI, failure injection."""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import RisspSim, build_block, build_rissp
from repro.rtl.ir import Const, Module
from repro.sim.golden import abi_initial_regs
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


def test_rvfi_checker_checks_reads_of_x0():
    """x0 reads as zero in the register check even though the ABI reset
    state seeds only x1 and x2: a forged x0 read whose result is
    consistent with the rest of the trace must still be rejected."""
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    prog = assemble(".text\nmain:\n li a0, 3\n addi a0, a0, 4\n ret\n")
    trace = RisspSim(core, prog, trace=True).run().trace
    trace.poke(0, "rs1_rdata", 5)
    trace.poke(0, "rd_wdata", 8)
    trace.poke(1, "rs1_rdata", 8)
    trace.poke(1, "rd_wdata", 12)
    report = check_trace(trace, initial_regs=abi_initial_regs())
    assert not report.passed
    assert report.errors == [
        f"order=0 pc={prog.entry:#x}: rs1 x0 read 0x5, shadow 0x0"]


# ------------------------------------------------ seeded-defect table
#
# One entry per error check_trace can append, each poked into a real RTL
# trace and checked in both input forms (the columnar RvfiTrace and a
# plain list of records): the errors must be identical, and the expected
# one must sit at the poked row.  Together with the clean traces passing,
# this is what shows every rule can fail.

#: Straight-line firmware touching every plain-row rule: register and
#: immediate ALU ops, a store of x0, a load, a taken branch, a jump.
PLAIN_FIRMWARE = """.text
main:
    li a1, 10
    li a2, 32
    add a0, a1, a2
    sw a0, 128(zero)
    sw zero, 132(zero)
    lw a3, 128(zero)
    beq a0, a3, ok
    li a0, 0
ok:
    j done
    nop
done:
    ret
"""

#: SoC firmware with a handler: an ecall trap stepped over by the
#: handler, then a timer interrupt taken out of wfi, then poweroff.
TRAP_IRQ_FIRMWARE = """
.equ PWR,      0x40000
.equ MTIMECMP, 0x40108
.text
main:
    la t0, handler
    csrw mtvec, t0
    ecall
    li t0, MTIMECMP
    li t1, 100
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 0x80
    csrw mie, t0
    csrsi mstatus, 8
    wfi
    li t0, PWR
    sw x0, 0(t0)
hang:
    j hang
handler:
    csrr t0, mcause
    bltz t0, irq
    csrr t0, mepc
    addi t0, t0, 4
    csrw mepc, t0
    mret
irq:
    csrw mie, x0
    mret
"""


@pytest.fixture(scope="module")
def defect_traces():
    from repro.soc import SocSpec

    plain = RisspSim(build_rissp([d.mnemonic for d in INSTRUCTIONS]),
                     assemble(PLAIN_FIRMWARE), trace=True).run()
    soc = RisspSim(build_rissp([d.mnemonic for d in INSTRUCTIONS]
                               + ["mret"]),
                   assemble(TRAP_IRQ_FIRMWARE), trace=True,
                   soc=SocSpec()).run()
    assert plain.halted_by == "ecall" and soc.halted_by == "poweroff"
    return {"plain": plain.trace, "soc": soc.trace}


def _select(trace, selector):
    """Index of the row ``selector`` names: ``"intr"``/``"trap"`` pick
    the first flagged row, ``(mnemonic, n)`` the n-th untrapped
    retirement of that mnemonic."""
    from repro.isa.encoding import decode

    if selector in ("intr", "trap"):
        column = trace.column(selector)
        return next(i for i in range(len(trace)) if column[i])
    mnemonic, nth = selector
    hits = [i for i in range(len(trace))
            if not trace.peek(i, "trap")
            and decode(trace.peek(i, "insn")).mnemonic == mnemonic]
    return hits[nth]


def _forge(mnemonic, **fields):
    from repro.isa.encoding import Instruction, encode
    return encode(Instruction(mnemonic, **fields))


#: (defect, trace, row, pokes from the clean row, expected error text)
DEFECTS = [
    ("order_gap", "plain", ("add", 0),
     lambda r: {"order": r["order"] + 5}, "order gap after"),
    ("pc_chain", "plain", ("add", 0),
     lambda r: {"pc_rdata": r["pc_rdata"] + 8},
     "pc_rdata != previous pc_wdata"),
    ("unknown_intr_code", "soc", "intr",
     lambda r: {"intr": 33}, "intr carries unknown interrupt code 33"),
    ("intr_entry_vs_mtvec", "soc", "intr",
     lambda r: {"pc_rdata": 0x7777777C}, "interrupt entered at 0x7777777c"),
    ("trap_redirect_vs_mtvec", "soc", "trap",
     lambda r: {"pc_wdata": 0x7777777C}, "trap redirected to 0x7777777c"),
    ("trap_side_effects", "soc", "trap",
     lambda r: {"rd_addr": 5}, "trapping instruction has side effects"),
    ("undecodable_insn", "plain", ("add", 0),
     lambda r: {"insn": 0xFFFFFFFF}, "undecodable insn"),
    ("rs1_shadow", "plain", ("add", 0),
     lambda r: {"rs1_rdata": r["rs1_rdata"] ^ 1}, "rs1 x11 read 0xb"),
    ("rs2_shadow", "plain", ("add", 0),
     lambda r: {"rs2_rdata": r["rs2_rdata"] ^ 1}, "rs2 x12 read 0x21"),
    ("rs1_x0", "plain", ("addi", 0),
     lambda r: {"rs1_rdata": 5, "rd_wdata": r["rd_wdata"] + 5},
     "rs1 x0 read 0x5, shadow 0x0"),
    ("rs2_x0", "plain", ("sw", 1),
     lambda r: {"rs2_rdata": 7, "mem_wdata": 7},
     "rs2 x0 read 0x7, shadow 0x0"),
    ("spec_refusal", "plain", ("jal", 0),
     lambda r: {"insn": _forge("jal", rd=0, imm=2)},
     "spec refusal: misaligned jal target"),
    ("pc_wdata", "plain", ("add", 0),
     lambda r: {"pc_wdata": r["pc_wdata"] + 8}, "pc_wdata"),
    ("rd_addr", "plain", ("add", 0),
     lambda r: {"rd_addr": 11}, "rd_addr 11 != spec 10"),
    ("rd_wdata", "plain", ("add", 0),
     lambda r: {"rd_wdata": r["rd_wdata"] ^ 1}, "rd_wdata 0x2b != spec 0x2a"),
    ("missing_store", "plain", ("sw", 0),
     lambda r: {"mem_wmask": 0}, "missing store effect"),
    ("store_addr", "plain", ("sw", 0),
     lambda r: {"mem_addr": r["mem_addr"] + 4}, "store addr 0x84 != 0x80"),
    ("store_data", "plain", ("sw", 0),
     lambda r: {"mem_wdata": r["mem_wdata"] ^ 1}, "store data 0x2b != 0x2a"),
    ("spurious_store", "plain", ("addi", 0),
     lambda r: {"mem_wmask": 0b1111}, "spurious store effect"),
    ("read_only_csr_write", "soc", ("csrrw", 0),
     lambda r: {"insn": _forge("csrrw", rd=0, rs1=r["rs1_addr"],
                               imm=0x344)},
     "csrrw wrote read-only CSR 0x344 without trapping"),
]


def test_defect_traces_are_clean_in_both_forms(defect_traces):
    for name, trace in defect_traces.items():
        for form in (trace, list(trace)):
            report = check_trace(form, initial_regs=abi_initial_regs())
            assert report.passed, (name, report.errors)
            assert report.records_checked == len(trace)
    soc = defect_traces["soc"]
    assert any(soc.column("intr")) and any(soc.column("trap"))


@pytest.mark.parametrize("defect, source, selector, pokes, message", DEFECTS,
                         ids=[row[0] for row in DEFECTS])
def test_seeded_defect_fails_identically_in_both_forms(
        defect_traces, defect, source, selector, pokes, message):
    import dataclasses

    from repro.sim.tracing import RvfiTrace

    clean = defect_traces[source]
    index = _select(clean, selector)
    row = dict(zip(RvfiTrace.FIELDS, clean.row(index)))
    changes = pokes(row)
    columnar = RvfiTrace()
    columnar.extend(clean)
    for field, value in changes.items():
        columnar.poke(index, field, value)
    records = list(clean)
    records[index] = dataclasses.replace(records[index], **changes)

    errors = check_trace(columnar, initial_regs=abi_initial_regs()).errors
    assert errors == \
        check_trace(records, initial_regs=abi_initial_regs()).errors
    row.update(changes)
    where = f"order={row['order']} pc={row['pc_rdata']:#x}: "
    assert any(error.startswith(where + message) for error in errors), \
        errors
