"""Regression tests for RVFI read-effect parity between RTL and golden sims.

The seed recorded ``mem_rmask=0b1111`` and the raw full memory word for
*every* RTL load — so ``cosimulate`` could not compare the read side of the
memory interface at all.  These tests pin the fixed convention (true byte
address, ``(1 << width) - 1`` lane mask, extended sub-word value), prove
cosimulation now detects injected read corruption, pin that the RTL trace
records the source operands the core's read ports delivered, and cover
the ebreak/ecall halt-cause plumbing.
"""

import pytest

from repro.isa import INSTRUCTIONS, assemble
from repro.rtl import RisspSim, build_rissp, cosimulate
from repro.rtl.core_sim import CosimMismatch
from repro.sim import GoldenSim, RvfiTrace, abi_initial_regs, run_program
from repro.verify import check_trace

_SUBWORD_LOADS = """.text
main:
    la a1, testdata
    lb a0, 0(a1)
    lb a2, 1(a1)
    lbu a3, 2(a1)
    lbu a4, 3(a1)
    lh a0, 4(a1)
    lhu a2, 6(a1)
    lw a3, 8(a1)
    sb a0, 12(a1)
    sh a2, 14(a1)
    lb a0, 12(a1)
    ret
.data
testdata:
    .word 0x80FF7F01, 0xFFFE8002, 0xDEADBEEF, 0
"""


@pytest.fixture(scope="module")
def full_core():
    return build_rissp([d.mnemonic for d in INSTRUCTIONS])


def test_subword_load_rvfi_fields_match_golden(full_core):
    prog = assemble(_SUBWORD_LOADS)
    rtl_trace = RisspSim(full_core, prog, trace=True).run(10_000).trace
    gold_trace = GoldenSim(prog, trace=True).run(10_000).trace
    assert len(rtl_trace) == len(gold_trace)
    for rtl_rec, gold_rec in zip(rtl_trace, gold_trace):
        for name in ("insn", "mem_addr", "mem_rmask", "mem_rdata",
                     "mem_wmask", "mem_wdata", "rd_addr", "rd_wdata"):
            assert getattr(rtl_rec, name) == getattr(gold_rec, name), \
                (f"order={rtl_rec.order} {name}: rtl="
                 f"{getattr(rtl_rec, name):#x} "
                 f"gold={getattr(gold_rec, name):#x}")


def test_subword_load_rmask_is_lane_width(full_core):
    prog = assemble(_SUBWORD_LOADS)
    trace = RisspSim(full_core, prog, trace=True).run(10_000).trace
    rmasks = [r.mem_rmask for r in trace if r.mem_rmask]
    assert rmasks == [0b1, 0b1, 0b1, 0b1, 0b11, 0b11, 0b1111, 0b1]


def test_rvfi_checker_accepts_rtl_subword_trace(full_core):
    prog = assemble(_SUBWORD_LOADS)
    result = RisspSim(full_core, prog, trace=True).run(10_000)
    report = check_trace(result.trace, initial_regs=abi_initial_regs())
    assert report.passed, report.errors


def test_cosim_clean_on_subword_loads(full_core):
    assert cosimulate(full_core, assemble(_SUBWORD_LOADS)) is None


def test_cosim_shares_golden_trace(full_core):
    prog = assemble(_SUBWORD_LOADS)
    golden_trace = RvfiTrace()
    assert cosimulate(full_core, prog, golden_trace_out=golden_trace) is None
    report = check_trace(golden_trace, initial_regs=abi_initial_regs())
    assert report.passed, report.errors


def test_cosim_reports_limit_exhaustion(full_core):
    """A matching prefix that never halts must not read as verified."""
    prog = assemble(".text\nmain:\n j main\n")
    mismatch = cosimulate(full_core, prog, max_instructions=100)
    assert mismatch is not None and mismatch.field == "limit"
    assert mismatch.index == 100


def test_cosim_detects_injected_read_corruption(full_core, monkeypatch):
    """Flipping one bit of a recorded mem_rdata must surface as a mismatch
    in the read-side fields — the seed comparison never looked at them."""
    original = RisspSim._cycle

    def corrupted(self, order, sink=None):
        halted, reason = original(self, order, sink)
        if sink is not None and len(sink) and sink.peek(-1, "mem_rmask"):
            sink.poke(-1, "mem_rdata", sink.peek(-1, "mem_rdata") ^ 1)
        return halted, reason

    monkeypatch.setattr(RisspSim, "_cycle", corrupted)
    # backend="interpreter" pins the per-cycle path the patched _cycle
    # rides; the fused-loop compare path gets the same treatment in
    # tests/test_rtl_fused_diff.py.
    mismatch = cosimulate(full_core, assemble(_SUBWORD_LOADS),
                          backend="interpreter")
    assert mismatch is not None and mismatch.field == "mem_rdata"
    assert mismatch.rtl_value == mismatch.golden_value ^ 1


def test_cosim_detects_injected_read_mask_corruption(full_core, monkeypatch):
    original = RisspSim._cycle

    def corrupted(self, order, sink=None):
        halted, reason = original(self, order, sink)
        if sink is not None and len(sink) and \
                sink.peek(-1, "mem_rmask") == 0b1:
            sink.poke(-1, "mem_rmask", 0b1111)
        return halted, reason

    monkeypatch.setattr(RisspSim, "_cycle", corrupted)
    mismatch = cosimulate(full_core, assemble(_SUBWORD_LOADS),
                          backend="interpreter")
    assert mismatch is not None and mismatch.field == "mem_rmask"


#: rs2 = a1 = 0x80000003 for both the sll (shift amount: low 5 bits) and
#: the sb (stored byte: low 8 bits), so bit 31 of rs2 never reaches an
#: architectural result.
_READ_PORT_PROBE = """.text
main:
    li a1, 0x80000003
    li a2, 5
    addi a4, sp, -16
    sll a3, a2, a1
    sb a1, 0(a4)
    ret
"""


@pytest.mark.parametrize("backend", ["fused", "interpreter"])
def test_rs_rdata_is_what_the_read_port_delivered(full_core, backend):
    """The RTL trace records ``rs*_rdata`` from the core's read ports,
    not from the harness's copy of the register file.  A core whose rs2
    read port flips bit 31 computes the probe's sll and sb correctly, so
    cosim passes, but its own trace carries the corrupt operand, which
    the checker's shadow register file rejects at the sll row."""
    from repro.isa.encoding import decode
    from repro.rtl.ir import const

    variant = full_core.with_assigns({
        "rf_rs2_data": full_core.assigns["rf_rs2_data"]
        ^ const(0x80000000, 32)})
    prog = assemble(_READ_PORT_PROBE)
    assert cosimulate(variant, prog, backend=backend) is None
    trace = RisspSim(variant, prog, trace=True, backend=backend).run(100) \
        .trace
    sll = next(row for row in trace if decode(row.insn).mnemonic == "sll")
    report = check_trace(trace, initial_regs=abi_initial_regs())
    assert report.errors[:1] == [
        f"order={sll.order} pc={sll.pc_rdata:#x}: rs2 x11 read 0x3, "
        f"shadow 0x80000003"]
    healthy = RisspSim(full_core, prog, trace=True, backend=backend).run(100)
    assert check_trace(healthy.trace, initial_regs=abi_initial_regs()).passed


@pytest.mark.parametrize("backend", ["fused", "interpreter"])
def test_checking_sink_catches_the_read_port_core(full_core, backend):
    """The flow's checking sink, fed by cosim chunk by chunk (one row at
    a time on the interpreter), fails the bit-31 read-port core at its
    sll row, as the whole trace's check does, and passes the healthy
    core."""
    from repro.core.flow import RvfiCheckSink
    from repro.rtl.ir import const

    variant = full_core.with_assigns({
        "rf_rs2_data": full_core.assigns["rf_rs2_data"]
        ^ const(0x80000000, 32)})
    prog = assemble(_READ_PORT_PROBE)
    for core, passed in ((variant, False), (full_core, True)):
        sink = RvfiCheckSink()
        assert cosimulate(core, prog, backend=backend,
                          rtl_trace_out=sink) is None
        whole = check_trace(
            RisspSim(core, prog, trace=True, backend=backend).run(100)
            .trace, initial_regs=abi_initial_regs())
        assert sink.report == whole
        assert sink.report.passed is passed


def test_interpreter_rows_reach_check_trace_one_by_one(monkeypatch):
    """On the interpreter each cosim chunk is one row, and the checking
    sink hands each to the module's ``check_trace``, looked up per call
    (so a wrapper installed on the module sees every row): on an
    interrupt-driven SoC image the calls equal the rows, and the report
    equals the whole trace's."""
    from repro.core.flow import RvfiCheckSink
    from repro.farm.campaigns import workload_target
    from repro.verify import rvfi

    core, program, soc = workload_target("label_refresh")
    whole_trace = RvfiTrace()
    streamed = RvfiCheckSink()
    calls = []
    check = rvfi.check_trace

    def counted(trace, *args, **kwargs):
        calls.append(len(trace))
        return check(trace, *args, **kwargs)

    class Both:
        def extend(self, chunk):
            whole_trace.extend(chunk)
            streamed.extend(chunk)

    monkeypatch.setattr(rvfi, "check_trace", counted)
    assert cosimulate(core, program, soc=soc, backend="interpreter",
                      rtl_trace_out=Both()) is None
    assert any(whole_trace.column("intr"))
    assert calls == [1] * len(whole_trace)
    whole = check(whole_trace, initial_regs=abi_initial_regs())
    assert whole.passed and streamed.report == whole


_STORE_PROBE = """.text
main:
    li a1, 0x1234
    addi a4, sp, -16
    sw a1, 0(a4)
    lw a0, 0(a4)
    ret
"""


@pytest.mark.parametrize("backend", ["fused", "interpreter"])
def test_read_on_a_store_is_a_spurious_load_effect(full_core, backend):
    """A core whose ``dmem_re`` also fires on ``sw`` records that read as
    a 4-byte unsigned read: cosim reports it in the ``mem_rmask`` column
    of the ``sw`` row, and the checker names it on the core's own trace.
    Tracing it used to raise ``KeyError: 'sw'`` on both backends."""
    from repro.isa.encoding import decode

    variant = full_core.with_assigns({
        "dmem_re": full_core.assigns["dmem_re"]
        | full_core.sig("ex_sel_sw")})
    rtl = RvfiTrace()
    mismatch = cosimulate(variant, assemble(_STORE_PROBE), backend=backend,
                          rtl_trace_out=rtl)
    sw = list(rtl)[-1]
    assert decode(sw.insn).mnemonic == "sw"
    assert mismatch == CosimMismatch(sw.order, "mem_rmask", 0b1111, 0)
    report = check_trace(rtl, initial_regs=abi_initial_regs())
    assert report.errors == [
        f"order={sw.order} pc={sw.pc_rdata:#x}: spurious load effect"]


@pytest.mark.parametrize("flipped", [False, True],
                         ids=["healthy", "rs2_bit31"])
def test_flow_rvfi_verdict_is_about_the_core(monkeypatch, flipped):
    """``RisspFlow.generate`` spec-checks the core's own retirements (the
    RTL side of its cosim), not the golden reference's.  Through the
    flow, the read-port probe on the bit-31 core passes cosim and fails
    the RVFI check; on the healthy core both pass."""
    from repro.core import flow as flow_module
    from repro.rtl.ir import const
    from repro.workloads import WORKLOADS
    from repro.workloads.registry import Workload

    monkeypatch.setitem(WORKLOADS, "read_port_probe", Workload(
        "read_port_probe", _READ_PORT_PROBE, "test",
        "rs2 read-port bit-31 probe", lang="asm"))
    if flipped:
        build = flow_module.build_rissp

        def build_flipped(*args, **kwargs):
            core = build(*args, **kwargs)
            return core.with_assigns({
                "rf_rs2_data": core.assigns["rf_rs2_data"]
                ^ const(0x80000000, 32)})
        monkeypatch.setattr(flow_module, "build_rissp", build_flipped)
    result = flow_module.RisspFlow().generate("read_port_probe",
                                              run_verification=True)
    assert result.verified["cosim"] is True
    assert result.verified["rvfi"] is not flipped


@pytest.mark.parametrize("name", ["uart_selftest", "label_refresh"])
def test_golden_and_core_agree_on_rs1_addr(name):
    """A Zicsr immediate form (``csrrsi``/``csrrci``) reads no register,
    so the reference and the core both record ``rs1_addr`` 0 on its row;
    cosim's compared columns leave ``rs1_addr`` out, so the two traces
    are compared here.  Both firmware images toggle ``mstatus.MIE`` with
    immediates."""
    from repro.farm.campaigns import workload_target
    from repro.isa.encoding import decode

    core, program, soc = workload_target(name)
    golden, rtl = RvfiTrace(), RvfiTrace()
    assert cosimulate(core, program, soc=soc, golden_trace_out=golden,
                      rtl_trace_out=rtl) is None
    uimm = [row for row in rtl
            if decode(row.insn).mnemonic in ("csrrsi", "csrrci")]
    assert uimm and all(row.rs1_addr == 0 for row in uimm)
    assert golden.column("rs1_addr") == rtl.column("rs1_addr")


_EBREAK = ".text\nmain:\n li a0, 77\n ebreak\n"


def test_golden_reports_ebreak():
    r = run_program(assemble(_EBREAK))
    assert r.halted_by == "ebreak" and r.exit_code == 77


def test_golden_traced_reports_ebreak():
    r = run_program(assemble(_EBREAK), trace=True)
    assert r.halted_by == "ebreak" and r.exit_code == 77


def test_rissp_run_reports_ebreak(full_core):
    r = RisspSim(full_core, assemble(_EBREAK)).run(1_000)
    assert r.halted_by == "ebreak" and r.exit_code == 77


def test_rissp_run_reports_ecall(full_core):
    r = RisspSim(full_core, assemble(".text\nmain:\n li a0, 5\n ret\n")) \
        .run(1_000)
    assert r.halted_by == "ecall" and r.exit_code == 5


def test_serv_reports_ebreak():
    from repro.sim import run_program_serv
    r = run_program_serv(assemble(_EBREAK))
    assert r.halted_by == "ebreak" and r.exit_code == 77
