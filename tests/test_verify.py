"""Verification substrate tests: mutation, RISCOF, RVFI, failure injection."""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import RisspSim, build_block, build_rissp
from repro.rtl.ir import Const, Module
from repro.sim.golden import abi_initial_regs
from repro.verify import (
    check_compliance_mnemonic, check_trace, run_mutation_campaign,
    vectors_for, verify_block,
)


def test_vectors_cover_all_instructions():
    for d in INSTRUCTIONS:
        assert len(vectors_for(d.mnemonic)) >= 1


def test_vector_counts_substantial():
    assert len(vectors_for("add")) > 90
    assert len(vectors_for("beq")) > 100


def test_vectors_are_the_same_in_every_process():
    """The pseudo-random vectors of an R- and an I-format block do not
    depend on Python's per-process string-hash salt (``PYTHONHASHSEED``),
    so a block's mutation campaign splits the same way in every run."""
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    script = (
        "from repro.verify import vectors_for\n"
        "for m in ('add', 'slti'):\n"
        "    print(m, [(v.insn_word, v.pc, v.rs1_val, v.rs2_val,"
        " v.mem_word) for v in vectors_for(m)])\n")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src"),
                 "PYTHONHASHSEED": hash_seed}).stdout
        for hash_seed in ("1", "2")]
    assert outputs[0].count("\n") == 2
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mnemonic", ["add", "beq", "lw", "sb", "jalr"])
def test_mutation_coverage_full(mnemonic):
    report = run_mutation_campaign(build_block(mnemonic), limit=30)
    assert report.total == 30
    assert report.coverage == 1.0, report.survivors[:3]


def test_mutation_coverage_of_an_empty_campaign_is_zero():
    """``mret``'s netlist is wiring only (``next_pc`` is ``mepc`` with its
    low bits cleared), so its campaign has no mutant to judge: a coverage
    of 0/0 must not read as a full pass."""
    report = run_mutation_campaign(build_block("mret"), limit=30)
    assert report.total == report.equivalent == 0
    assert report.coverage == 0.0


def test_mutation_probes_drive_mret_mepc_from_the_vector():
    """The gate-level probes drive every block input as the block
    verifier does, so ``mret``'s ``mepc`` bits carry the vector's
    ``mem_word``, not 0."""
    from repro.verify.mutation import _vector_inputs
    block = build_block("mret")
    vector = next(v for v in vectors_for("mret") if v.mem_word == 0x400)
    bits = _vector_inputs(block, vector)
    assert sum(bits[f"mepc[{i}]"] << i for i in range(32)) == 0x400


def test_testbench_catches_injected_bug():
    """Failure injection: corrupt a block's datapath; testbench must fail."""
    block = build_block("add")
    # swap the adder output for a subtractor: rebuild rdest_data
    from repro.rtl.ir import Binary, Op
    expr = block.assigns["rdest_data"]
    block = block.with_assigns(
        {"rdest_data": Binary(Op.SUB, expr.a, expr.b)})
    result = verify_block(block)
    assert not result.passed


def test_verify_block_catches_a_block_that_never_writes_rd():
    """A block whose ``rdest_we`` is stuck at 0 computes the right value
    but never writes it; the checker must see the strobe, not only the
    data."""
    block = build_block("add").with_assigns({"rdest_we": Const(0, 1)})
    assert not verify_block(block).passed


def test_formal_catches_wrong_decode():
    # corrupt rs2 address decode
    block = build_block("xor").with_assigns({"rs2_addr": Const(3, 4)})
    report = verify_block(block)
    assert not report.passed


def test_riscof_compliance_full_core():
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    for mnemonic in ["add", "sub", "lw", "sb", "beq", "sra", "lui", "jalr"]:
        assert check_compliance_mnemonic(core, mnemonic) == [], mnemonic


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
#: immediate ALU ops, a store of x0, word and byte stores and loads, a
#: taken branch, a jump.
PLAIN_FIRMWARE = """.text
main:
    li a1, 10
    li a2, 32
    add a0, a1, a2
    sw a0, 128(zero)
    sw zero, 132(zero)
    lw a3, 128(zero)
    sb a0, 136(zero)
    lb a4, 136(zero)
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


#: Every instruction with a compiled check arm, retired at least once:
#: sub-word loads of negative values, stores of values wider than their
#: lane, branches taken and not taken, a linking jal and jalr.
EVERY_ARM_FIRMWARE = """.text
main:
    li a1, -77
    li a2, 0x12345687
    lui a3, 0x80001
    auipc a4, 1
    add a5, a1, a2
    sub a5, a5, a3
    sll a5, a2, a1
    slt a5, a1, a2
    sltu a5, a1, a2
    xor a5, a1, a2
    srl a5, a1, a2
    sra a5, a1, a2
    or a5, a1, a2
    and a5, a1, a2
    addi a5, a1, -5
    slti a5, a1, 3
    sltiu a5, a1, 3
    xori a5, a1, -1
    ori a5, a1, 0x70
    andi a5, a1, 0x7f0
    slli a5, a1, 31
    srli a5, a1, 3
    srai a5, a1, 3
    addi a4, sp, -16
    sw a2, 0(a4)
    sh a1, 4(a4)
    sb a1, 6(a4)
    lw a5, 0(a4)
    lh a5, 4(a4)
    lhu a5, 4(a4)
    lb a5, 6(a4)
    lbu a5, 6(a4)
    fence
    beq a1, a2, main
    bne a1, a1, main
    blt a2, a1, main
    bge a1, a2, main
    bltu a1, a2, main
    bgeu a2, a1, main
    beq a1, a1, taken1
taken1:
    bne a1, a2, taken2
taken2:
    blt a1, a2, taken3
taken3:
    bge a2, a1, taken4
taken4:
    bltu a2, a1, taken5
taken5:
    bgeu a1, a2, taken6
taken6:
    jal t0, hop
back:
    j done
hop:
    jalr t1, 0(t0)
done:
    ret
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
    every_arm = RisspSim(build_rissp([d.mnemonic for d in INSTRUCTIONS]),
                         assemble(EVERY_ARM_FIRMWARE), trace=True).run()
    assert plain.halted_by == "ecall" and soc.halted_by == "poweroff"
    assert every_arm.halted_by == "ecall"
    return {"plain": plain.trace, "soc": soc.trace,
            "every_arm": every_arm.trace}


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


def _nudge_imm(word, delta):
    """``word`` with its immediate moved by ``delta``."""
    import dataclasses

    from repro.isa.encoding import decode, encode
    instr = decode(word)
    return encode(dataclasses.replace(instr, imm=instr.imm + delta))


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
    ("rs1_addr", "plain", ("add", 0),
     lambda r: {"rs1_addr": 13}, "rs1_addr 13 != insn rs1 11"),
    ("rs2_addr", "plain", ("add", 0),
     lambda r: {"rs2_addr": 13}, "rs2_addr 13 != insn rs2 12"),
    ("rs1_addr_on_csr_uimm", "soc", ("csrrsi", 0),
     lambda r: {"rs1_addr": 8},
     "rs1_addr 8 on csrrsi, whose rs1 field is a uimm"),
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
    ("misaligned_jal", "plain", ("jal", 0),
     lambda r: {"insn": _nudge_imm(r["insn"], 2),
                "pc_wdata": r["pc_wdata"] + 2},
     "spec refusal: misaligned jal target"),
    ("misaligned_branch", "plain", ("beq", 0),
     lambda r: {"insn": _nudge_imm(r["insn"], 2),
                "pc_wdata": r["pc_wdata"] + 2},
     "spec refusal: misaligned branch target"),
    ("misaligned_jalr", "plain", ("jalr", 0),
     lambda r: {"insn": _nudge_imm(r["insn"], 2),
                "pc_wdata": r["pc_wdata"] + 2},
     "spec refusal: misaligned jalr target"),
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
    ("store_wmask", "plain", ("sb", 0),
     lambda r: {"mem_wmask": 0b1111}, "store wmask 0xf != 0x1"),
    ("load_addr", "plain", ("lw", 0),
     lambda r: {"mem_addr": r["mem_addr"] + 4}, "load addr 0x84 != 0x80"),
    ("load_rmask", "plain", ("lb", 0),
     lambda r: {"mem_rmask": 0b1111}, "load rmask 0xf != 0x1"),
    ("load_data_extension", "plain", ("lb", 0),
     lambda r: {"mem_rdata": r["mem_rdata"] | 0x1200},
     "load data 0x122a != extended 0x2a"),
    ("spurious_load", "plain", ("add", 0),
     lambda r: {"mem_rmask": 0b1111}, "spurious load effect"),
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


def _poked(clean, index, changes):
    """A copy of ``clean`` with ``changes`` (field -> value) at ``index``."""
    from repro.sim.tracing import RvfiTrace

    trace = RvfiTrace()
    trace.extend(clean)
    for field, value in changes.items():
        trace.poke(index, field, value)
    return trace


def _reference_report(monkeypatch, trace):
    """check_trace's report with every row judged by the reflective
    code, the reference the compiled check arms must agree with: the
    arm compiler is patched to compile nothing."""
    from repro.verify import rvfi

    with monkeypatch.context() as patch:
        patch.setattr(rvfi, "_compile_arm", lambda word: None)
        return check_trace(trace, initial_regs=abi_initial_regs())


def _same_report(monkeypatch, trace):
    """The arms' report, after requiring it equal to the reference's."""
    report = check_trace(trace, initial_regs=abi_initial_regs())
    reference = _reference_report(monkeypatch, trace)
    assert report.records_checked == reference.records_checked
    assert report.errors == reference.errors
    return report


@pytest.mark.parametrize("defect, source, selector, pokes, message", DEFECTS,
                         ids=[row[0] for row in DEFECTS])
def test_seeded_defect_fails_identically_in_both_forms(
        defect_traces, monkeypatch, defect, source, selector, pokes,
        message):
    """The same errors for the columnar trace, the list of records, and
    the columnar trace with the compiled arms off."""
    import dataclasses

    from repro.sim.tracing import RvfiTrace

    clean = defect_traces[source]
    index = _select(clean, selector)
    row = dict(zip(RvfiTrace.FIELDS, clean.row(index)))
    changes = pokes(row)
    columnar = _poked(clean, index, changes)
    records = list(clean)
    records[index] = dataclasses.replace(records[index], **changes)

    errors = _same_report(monkeypatch, columnar).errors
    assert errors == \
        check_trace(records, initial_regs=abi_initial_regs()).errors
    row.update(changes)
    where = f"order={row['order']} pc={row['pc_rdata']:#x}: "
    assert any(error.startswith(where + message) for error in errors), \
        errors


def _checked_in_pieces(trace, cuts):
    """check_trace over ``trace`` cut before each row index in ``cuts``,
    every piece an :class:`RvfiTrace` that resumes the last one's report,
    as the flow checks cosim's chunks."""
    from repro.sim.tracing import RvfiTrace

    rows = list(trace.rows())
    bounds = [0, *sorted(set(cuts)), len(rows)]
    report = None
    for start, stop in zip(bounds, bounds[1:]):
        piece = RvfiTrace()
        record = piece.row_sink()
        for row in rows[start:stop]:
            record(row)
        if report is None:
            report = check_trace(piece, initial_regs=abi_initial_regs())
        else:
            assert check_trace(piece, resume=report) is report
    return report


def _splits(length, seed, *cuts):
    """Ways to cut a trace of ``length`` rows: every row alone, cosim's
    ``COSIM_CHUNK`` rows, 20 random cuts, and the given ``cuts``."""
    import random

    from repro.rtl.core_sim import COSIM_CHUNK

    rng = random.Random(seed)
    return [range(1, length), range(COSIM_CHUNK, length, COSIM_CHUNK),
            rng.sample(range(1, length), min(20, length - 1)),
            [cut for cut in cuts if 0 < cut < length]]


@pytest.mark.parametrize("defect, source, selector, pokes, message", DEFECTS,
                         ids=[row[0] for row in DEFECTS])
def test_seeded_defect_report_survives_any_split(
        defect_traces, defect, source, selector, pokes, message):
    """A check resumed piece by piece gives the whole trace's report
    (rows checked, and every error in order), with cuts anywhere,
    just before and just after the seeded row included."""
    from repro.sim.tracing import RvfiTrace

    clean = defect_traces[source]
    index = _select(clean, selector)
    defective = _poked(clean, index, pokes(dict(zip(RvfiTrace.FIELDS,
                                                    clean.row(index)))))
    whole = check_trace(defective, initial_regs=abi_initial_regs())
    assert not whole.passed
    for cuts in _splits(len(defective), defect, index, index + 1):
        assert _checked_in_pieces(defective, cuts) == whole, list(cuts)


def test_error_cap_holds_across_pieces(defect_traces):
    """The 25-error cap is the whole check's, not each piece's: once it
    is reached, the pieces that follow check no row."""
    from repro.sim.tracing import RvfiTrace

    defective = RvfiTrace()
    defective.extend(defect_traces["every_arm"])
    for index in range(1, len(defective)):
        defective.poke(index, "pc_rdata",
                       defective.peek(index, "pc_rdata") ^ 0x10)
    whole = check_trace(defective, initial_regs=abi_initial_regs())
    assert len(whole.errors) >= 25
    assert whole.records_checked < len(defective) // 2
    for cuts in _splits(len(defective), "cap"):
        assert _checked_in_pieces(defective, cuts) == whole


def test_resumed_check_compiles_each_arm_once(defect_traces, monkeypatch):
    """The arms carry from piece to piece: a trace checked one row at a
    time compiles each word's arm once."""
    from collections import Counter

    from repro.verify import rvfi

    compiled: Counter = Counter()
    compile_arm = rvfi._compile_arm

    def counting(word):
        compiled[word] += 1
        return compile_arm(word)

    monkeypatch.setattr(rvfi, "_compile_arm", counting)
    trace = defect_traces["every_arm"]
    assert _checked_in_pieces(trace, range(1, len(trace))).passed
    assert compiled and max(compiled.values()) == 1


def test_resume_takes_a_report_without_initial_regs(defect_traces):
    from repro.verify import RvfiCheckReport

    trace = defect_traces["plain"]
    report = check_trace(trace, initial_regs=abi_initial_regs())
    for bad in ({"resume": RvfiCheckReport()},
                {"resume": report, "initial_regs": abi_initial_regs()}):
        with pytest.raises(ValueError, match="resume takes a report"):
            check_trace(trace, **bad)


@pytest.mark.parametrize("name", ["armpit", "af_detect_irq",
                                  "sensor_streaming", "uart_selftest"])
def test_app_trace_report_survives_any_split(name):
    """The core's clean trace of an edge app, checked as the flow does
    it (one ``RvfiCheckSink`` resume per cosim chunk) and cut every
    other way, gives the whole trace's report.  The cuts fall into
    interrupt sequences (af_detect_irq, sensor_streaming) and a trap
    sequence (uart_selftest): at the entry row, and after it."""
    from repro.core.flow import RvfiCheckSink
    from repro.farm.campaigns import workload_target
    from repro.rtl.core_sim import cosimulate
    from repro.sim.tracing import RvfiTrace

    core, program, soc = workload_target(name)
    whole_trace = RvfiTrace()
    streamed = RvfiCheckSink()

    class Both:
        def extend(self, chunk):
            whole_trace.extend(chunk)
            streamed.extend(chunk)

    assert cosimulate(core, program, soc=soc, rtl_trace_out=Both()) is None
    whole = check_trace(whole_trace, initial_regs=abi_initial_regs())
    assert whole.passed and whole.records_checked == len(whole_trace)
    assert streamed.report == whole
    entries = [index for index, (intr, trap) in enumerate(zip(
        whole_trace.column("intr"), whole_trace.column("trap")))
        if intr or trap][:3]
    assert entries or name == "armpit"
    cuts = [cut for index in entries for cut in (index, index + 1)]
    for split in _splits(len(whole_trace), name, *cuts):
        assert _checked_in_pieces(whole_trace, split) == whole


@pytest.fixture(scope="module")
def fuzz_traces():
    """Golden traces of three seeded random programs."""
    from repro.sim import GoldenSim
    from repro.verify.fuzz import FUZZ_BASE_SEED, derive_seed, random_program

    traces = {}
    for index in range(3):
        program = assemble(random_program(derive_seed(FUZZ_BASE_SEED,
                                                      index)))
        result = GoldenSim(program, trace=True).run(100_000)
        assert result.halted_by == "ecall"
        traces[f"fuzz{index}"] = result.trace
    return traces


def _corrupt_value(rng, trace, field, clean):
    """One seeded replacement for ``clean``, the value of ``field``."""
    if field in ("trap", "intr"):
        return rng.choice((0, 1, 7, 16, 33))
    kind = rng.randrange(6)
    if kind == 0:
        return clean ^ (1 << rng.randrange(32))
    if kind == 1:
        return clean + rng.choice((-4, -2, -1, 1, 2, 4))
    if kind == 2:
        return 0
    if kind == 3:
        return rng.getrandbits(32)
    if kind == 4:
        return rng.randrange(32)
    return trace.peek(rng.randrange(len(trace)), field)


def _rows_by_mnemonic(trace):
    """Row indices of ``trace`` grouped by mnemonic (trap rows apart), so
    rare instructions are corrupted as often as common ones."""
    from repro.isa.encoding import decode

    groups = {}
    for index, row in enumerate(trace):
        key = "trap" if row.trap else decode(row.insn).mnemonic
        groups.setdefault(key, []).append(index)
    return list(groups.values())


#: Seeded corruptions per trace in the differential test.
_CORRUPTIONS_PER_TRACE = 250


def test_arms_match_the_reflective_check_on_random_corruptions(
        defect_traces, fuzz_traces, monkeypatch):
    """1500 seeded one- and two-field corruptions of six clean traces
    (the three defect-table traces and three random programs), each at
    a row of a mnemonic drawn uniformly: the arms and the reflective
    reference give identical reports on every one, and on the clean
    traces themselves."""
    from repro.sim.tracing import RvfiTrace
    from repro.verify.fuzz import FUZZ_BASE_SEED, derive_seed, seeded_rng

    traces = {**defect_traces, **fuzz_traces}
    rng = seeded_rng(derive_seed(FUZZ_BASE_SEED, 1901))
    caught = total = 0
    for name, clean in traces.items():
        assert _same_report(monkeypatch, clean).passed, name
        groups = _rows_by_mnemonic(clean)
        for _ in range(_CORRUPTIONS_PER_TRACE):
            index = rng.choice(rng.choice(groups))
            changes = {}
            for field in rng.sample(RvfiTrace.FIELDS, rng.choice((1, 2))):
                changes[field] = _corrupt_value(rng, clean, field,
                                                clean.peek(index, field))
            report = _same_report(monkeypatch, _poked(clean, index, changes))
            caught += not report.passed
            total += 1
    assert total >= 500
    # Most corruptions are defects, so the reports compared above are
    # mostly error lists, not empty ones.
    assert caught > total // 2, (caught, total)


def test_arms_accept_every_clean_row(defect_traces, fuzz_traces,
                                     monkeypatch):
    """On clean traces no arm declines a row, so the reflective code
    runs only for the rows that have no arm: an arm that wrongly
    declines cannot change a report, only the checker's speed, and the
    differential tests above cannot see it.  The every-arm trace offers
    a row of each mnemonic that has an arm."""
    from repro.isa import INSTRUCTIONS
    from repro.isa.encoding import decode
    from repro.verify import rvfi

    compile_arm = rvfi._compile_arm
    offered, declined = set(), []

    def watched(word):
        arm = compile_arm(word)
        if arm is None:
            return None

        def watched_arm(*fields):
            offered.add(decode(word).mnemonic)
            accepted = arm(*fields)
            if not accepted:
                declined.append(word)
            return accepted
        return watched_arm

    monkeypatch.setattr(rvfi, "_compile_arm", watched)
    for name, trace in {**defect_traces, **fuzz_traces}.items():
        assert check_trace(trace, initial_regs=abi_initial_regs()).passed
        assert declined == [], (name, [hex(word) for word in declined])
    assert offered == {d.mnemonic for d in INSTRUCTIONS} - {"ecall",
                                                            "ebreak"}


def test_every_plain_mnemonic_has_an_arm():
    """Only the Zicsr ops, mret, wfi, ecall and ebreak are judged by the
    reflective code alone; every other instruction compiles an arm, so a
    new mnemonic cannot silently take the slow path."""
    from repro.isa import ALL_INSTRUCTIONS, CSR_OPS, Format
    from repro.isa.encoding import Instruction, encode
    from repro.verify.rvfi import _compile_arm

    reflective_only = set(CSR_OPS) | {"mret", "wfi", "ecall", "ebreak"}
    for d in ALL_INSTRUCTIONS:
        word = encode(Instruction(d.mnemonic, rd=1, rs1=2, rs2=3,
                                  imm=0x1000 if d.fmt is Format.U else 8))
        arm = _compile_arm(word)
        assert (arm is None) == (d.mnemonic in reflective_only), d.mnemonic
