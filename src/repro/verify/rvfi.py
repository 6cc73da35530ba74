"""RVFI trace checking — the riscv-formal analog (§3.4.2).

riscv-formal attaches to a core through the RISC-V Formal Interface and
checks, per retired instruction: correct execution against the ISA spec,
register-file consistency, and PC chaining.  The same three families of
checks run here over the RVFI retirement traces either simulator emits
(a row-major :class:`repro.sim.tracing.RvfiTrace`, read row tuple by row
tuple, or a list of :class:`repro.sim.tracing.RvfiRecord`):

  * **insn checks** — re-execute each retired instruction with the spec and
    compare ``pc_wdata``, ``rd_addr``/``rd_wdata`` and both sides of the
    memory interface: a store's address, data and ``mem_wmask`` of
    ``(1 << width) - 1``; a load's address (``rs1_rdata + imm`` mod
    2^32), ``mem_rmask`` of ``(1 << width) - 1`` and ``mem_rdata`` equal
    to its own width-extension (the read-effect convention of
    :mod:`repro.sim.tracing`); no read or write effect on any other row,
  * **reg checks** — where an instruction reads ``rs1``/``rs2``, the
    row's ``rs*_addr`` is the decoded field, and a shadow register file
    built from retired writes (x0 pinned to zero) must match every
    ``rs*_rdata`` it covers,
  * **pc checks** — ``pc_rdata`` of instruction *n+1* must equal
    ``pc_wdata`` of instruction *n*, and ``order`` must be gapless.

The reflective code in :func:`check_trace` states these checks once,
with :func:`repro.isa.spec.step`, and is the only writer of errors.  Most
rows never reach it: each distinct instruction word compiles a *check
arm* (:func:`_compile_arm`) from the spec's own semantic tables, a
closure that accepts a row only when the reflective code would find
nothing wrong with it, and then applies the same shadow write.  A row the
arm declines, and every Zicsr, ``mret``, ``wfi``, ``ecall`` and
``ebreak`` row, goes to the reflective code.  So reports are identical
with and without arms by construction; ``tests/test_verify.py`` patches
the arm compiler to return None and requires it.

Machine-mode extension (PR 3, multi-source in PR 5): the checker follows
the riscv-formal ``rvfi_trap``/``rvfi_intr`` conventions — a trapping
instruction retires with no architectural side effects and ``pc_wdata``
pointing at the handler; the first instruction of an interrupt handler
carries ``intr``, holding the *arbitrated exception code* of the source
that won (7 = machine timer, 16 = sensor data-ready), and is exempt from
the pc chain.  CSR state is verified through a *shadow CSR file* that
mirrors the shadow register file: values it has observed (via Zicsr
writes or trap entries) are checked exactly, values it has not yet
observed are learned from the trace — so a corrupted ``mepc``/``mtvec``/
Zicsr data path is caught as soon as the state flows back through an
``mret``, a trap entry or a CSR read.  The Zicsr read-only rule is
pinned too: a row where a write to a read-only CSR (``mip``) retired
without trapping is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

from ..isa.bits import sign_extend, to_u32
from ..isa.csrs import (
    CAUSE_BREAKPOINT,
    CAUSE_ECALL_M,
    CAUSE_ILLEGAL_INSTRUCTION,
    CAUSE_INTERRUPT,
    INTERRUPT_SOURCES,
    MCAUSE,
    MEPC,
    MIP,
    MSTATUS,
    MSTATUS_MIE,
    MSTATUS_MPIE,
    MTVAL,
    MTVEC,
)
from ..isa.encoding import DecodeError, Instruction, decode
from ..isa.instructions import CSR_OPS
from ..isa.spec import (
    _ALU_OPS,
    _BRANCH_TAKEN,
    _IMM_TO_ALU,
    _LOAD_WIDTH,
    _STORE_WIDTH,
    SpecError,
    step,
)
from ..sim.csr import CsrError, READ_ONLY_CSRS, warl_mask
from ..sim.tracing import RvfiRecord, RvfiTrace

#: Exception codes an interrupt row's ``intr`` column may legally carry
#: (the arbitrated cause, see :data:`repro.isa.csrs.INTERRUPT_SOURCES`).
_INTR_CODES = frozenset(cause & 0x3F for _, cause in INTERRUPT_SOURCES)

_CSR_MNEMONICS = set(CSR_OPS)


@dataclass
class RvfiCheckReport:
    records_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.records_checked > 0 and not self.errors


def _trap_cause(insn: int) -> int:
    """Cause code a trap row's instruction word implies."""
    try:
        mnemonic = decode(insn).mnemonic
    except DecodeError:
        return CAUSE_ILLEGAL_INSTRUCTION
    if mnemonic == "ecall":
        return CAUSE_ECALL_M
    if mnemonic == "ebreak":
        return CAUSE_BREAKPOINT
    return CAUSE_ILLEGAL_INSTRUCTION


class _ShadowCsrs:
    """Learn-then-check model of the M-mode CSR state (mip excluded —
    MTIP is wired from the timer and not reconstructible from a trace)."""

    def __init__(self):
        self.values: dict[int, int] = {}

    def known(self, addr: int) -> bool:
        return addr in self.values

    def write(self, addr: int, value: int) -> None:
        if addr == MIP:
            return
        mask = warl_mask(addr)
        old = self.values.get(addr, 0)
        self.values[addr] = (old & ~mask) | (to_u32(value) & mask)

    def stack_mie(self) -> None:
        if MSTATUS in self.values:
            mie = self.values[MSTATUS] & MSTATUS_MIE
            self.values[MSTATUS] = (self.values[MSTATUS]
                                    & ~(MSTATUS_MIE | MSTATUS_MPIE)) \
                | (MSTATUS_MPIE if mie else 0)

    def unstack_mie(self) -> None:
        if MSTATUS in self.values:
            mpie = self.values[MSTATUS] & MSTATUS_MPIE
            self.values[MSTATUS] = (self.values[MSTATUS] & ~MSTATUS_MIE) \
                | MSTATUS_MPIE | (MSTATUS_MIE if mpie else 0)

    def trap_entry(self, epc: int, cause: int, tval: int) -> None:
        self.stack_mie()
        self.values[MEPC] = to_u32(epc) & ~0x3
        self.values[MCAUSE] = to_u32(cause)
        self.values[MTVAL] = to_u32(tval)

    def reader(self, learned: int):
        """Spec ``csr`` callback for one row: shadow-known values are
        checked exactly; unobserved ones read as ``learned``, the value
        the row itself reveals (rd for Zicsr reads, the redirect target
        for mret), and are verified self-consistently."""
        values = self.values
        return lambda addr: values.get(addr, learned)


def _record_load(mem_rdata: int, accesses: list[tuple[int, int, int]]):
    """Spec ``load`` callback answering from a row's own read effect.

    The value is the low ``width`` bytes of ``mem_rdata``, extended as the
    load's signedness asks: under the read-effect convention of
    :mod:`repro.sim.tracing`, ``mem_rdata`` already holds the value that
    lands in ``rd``.  Each access the spec makes is appended to
    ``accesses`` as ``(addr, width, value)``, so the checker can hold the
    row's ``mem_addr``, ``mem_rmask`` and ``mem_rdata`` to it."""
    def load(addr: int, width: int, signed: bool) -> int:
        value = mem_rdata & ((1 << (8 * width)) - 1)
        if signed and width < 4:
            value = to_u32(sign_extend(value, 8 * width))
        accesses.append((addr, width, value))
        return value
    return load


#: Decode facts the checker needs per row: ``(instr, uses_rs1, uses_rs2,
#: system)``, where ``system`` is ``"csr"`` (Zicsr), ``"mret"``, ``"wfi"``
#: or None.
_WordFacts = tuple[Instruction, bool, bool, str | None]


def _word_facts(word: int) -> _WordFacts:
    """Decode facts of ``word``; raises :class:`DecodeError`."""
    instr = decode(word)
    d = instr.definition
    fmt = d.fmt.value
    uses_rs1 = fmt in ("R", "I", "S", "B") or (fmt == "CSR"
                                               and not d.csr_uimm)
    uses_rs2 = fmt in ("R", "S", "B")
    if instr.mnemonic in _CSR_MNEMONICS:
        system: str | None = "csr"
    elif instr.mnemonic in ("mret", "wfi"):
        system = instr.mnemonic
    else:
        system = None
    return instr, uses_rs1, uses_rs2, system


#: A compiled row check: ``arm(shadow, pc_rdata, pc_wdata, rs1_addr,
#: rs2_addr, rs1_rdata, rs2_rdata, rd_addr, rd_wdata, mem_addr, mem_rmask,
#: mem_wmask, mem_rdata, mem_wdata) -> bool``, the row's own fields in
#: ``FIELDS`` order.
Arm = Callable[..., bool]


def _compile_arm(word: int) -> Arm | None:
    """The compiled check of one instruction word, or None when the word
    is undecodable or is a Zicsr op, ``mret``, ``wfi``, ``ecall`` or
    ``ebreak``: their rows need the shadow CSR file or end the trace, and
    the reflective code judges every one of them.

    The arm judges an untrapped row of ``word``.  It returns True only
    when the reflective row check in :func:`check_trace` would append no
    error, and only then applies the same shadow-register write.  On
    False it has changed nothing and the reflective code judges the row,
    so reports are identical with or without arms.  The semantics come
    from the spec's own tables (``_ALU_OPS``, ``_IMM_TO_ALU``,
    ``_BRANCH_TAKEN``, ``_LOAD_WIDTH``, ``_STORE_WIDTH``); what the arm
    hoists out of the row is the decode, the mnemonic dispatch, the
    :class:`~repro.isa.spec.Effects` record and the load callback.
    """
    try:
        instr = decode(word)
    except DecodeError:
        return None
    m = instr.mnemonic
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm

    if m in _ALU_OPS:
        op = _ALU_OPS[m]

        def arm_alu(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                    m_addr, rmask, wmask, rdata, wdata):
            if (a1 != rs1 or a2 != rs2 or rd_a != rd or rmask or wmask
                    or pc_w != (pc + 4) & 0xFFFFFFFF
                    or shadow.get(rs1, v1) != v1
                    or shadow.get(rs2, v2) != v2):
                return False
            if rd:
                if rd_w != op(v1, v2) & 0xFFFFFFFF:
                    return False
                shadow[rd] = rd_w
            return True
        return arm_alu

    if m in _IMM_TO_ALU:
        op = _ALU_OPS[_IMM_TO_ALU[m]]

        def arm_alu_imm(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                        m_addr, rmask, wmask, rdata, wdata):
            if (a1 != rs1 or rd_a != rd or rmask or wmask
                    or pc_w != (pc + 4) & 0xFFFFFFFF
                    or shadow.get(rs1, v1) != v1):
                return False
            if rd:
                if rd_w != op(v1, imm) & 0xFFFFFFFF:
                    return False
                shadow[rd] = rd_w
            return True
        return arm_alu_imm

    if m in _BRANCH_TAKEN:
        cond = _BRANCH_TAKEN[m]

        def arm_branch(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                       m_addr, rmask, wmask, rdata, wdata):
            target = (pc + imm if cond(v1, v2) else pc + 4) & 0xFFFFFFFF
            return not (target & 0x3 or pc_w != target
                        or a1 != rs1 or a2 != rs2 or rd_a or rmask or wmask
                        or shadow.get(rs1, v1) != v1
                        or shadow.get(rs2, v2) != v2)
        return arm_branch

    if m in _LOAD_WIDTH:
        width, signed = _LOAD_WIDTH[m]
        lane = (1 << (8 * width)) - 1
        rmask_want = (1 << width) - 1
        # A signed sub-word value with its top lane bit set extends with
        # ones above the lane.
        sign = (lane + 1) >> 1 if signed and width < 4 else 0
        fill = 0xFFFFFFFF ^ lane

        def arm_load(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                     m_addr, rmask, wmask, rdata, wdata):
            value = rdata & lane
            if value & sign:
                value |= fill
            if (rdata != value or rmask != rmask_want
                    or m_addr != (v1 + imm) & 0xFFFFFFFF
                    or a1 != rs1 or rd_a != rd or wmask
                    or pc_w != (pc + 4) & 0xFFFFFFFF
                    or shadow.get(rs1, v1) != v1):
                return False
            if rd:
                if rd_w != value:
                    return False
                shadow[rd] = rd_w
            return True
        return arm_load

    if m in _STORE_WIDTH:
        width = _STORE_WIDTH[m]
        lane = (1 << (8 * width)) - 1
        wmask_want = (1 << width) - 1

        def arm_store(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                      m_addr, rmask, wmask, rdata, wdata):
            return not (wmask != wmask_want
                        or m_addr != (v1 + imm) & 0xFFFFFFFF
                        or wdata != v2 & lane
                        or a1 != rs1 or a2 != rs2 or rd_a or rmask
                        or pc_w != (pc + 4) & 0xFFFFFFFF
                        or shadow.get(rs1, v1) != v1
                        or shadow.get(rs2, v2) != v2)
        return arm_store

    if m in ("lui", "auipc"):
        adds_pc = m == "auipc"

        def arm_upper(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                      m_addr, rmask, wmask, rdata, wdata):
            if (pc_w != (pc + 4) & 0xFFFFFFFF or rd_a != rd
                    or rmask or wmask):
                return False
            if rd:
                if rd_w != ((pc if adds_pc else 0) + imm) & 0xFFFFFFFF:
                    return False
                shadow[rd] = rd_w
            return True
        return arm_upper

    if m == "jal":
        def arm_jal(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                    m_addr, rmask, wmask, rdata, wdata):
            target = (pc + imm) & 0xFFFFFFFF
            if target & 0x3 or pc_w != target or rd_a != rd \
                    or rmask or wmask:
                return False
            if rd:
                if rd_w != (pc + 4) & 0xFFFFFFFF:
                    return False
                shadow[rd] = rd_w
            return True
        return arm_jal

    if m == "jalr":
        def arm_jalr(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                     m_addr, rmask, wmask, rdata, wdata):
            target = (v1 + imm) & 0xFFFFFFFE
            if (target & 0x3 or pc_w != target or a1 != rs1 or rd_a != rd
                    or rmask or wmask or shadow.get(rs1, v1) != v1):
                return False
            if rd:
                if rd_w != (pc + 4) & 0xFFFFFFFF:
                    return False
                shadow[rd] = rd_w
            return True
        return arm_jalr

    if m == "fence":
        def arm_fence(shadow, pc, pc_w, a1, a2, v1, v2, rd_a, rd_w,
                      m_addr, rmask, wmask, rdata, wdata):
            return not (pc_w != (pc + 4) & 0xFFFFFFFF
                        or rd_a or rmask or wmask)
        return arm_fence

    return None


def _at(order: int, pc: int) -> str:
    """Location prefix of an error message."""
    return f"order={order} pc={pc:#x}"


#: Row tuple of an :class:`RvfiRecord`, in :attr:`RvfiTrace.FIELDS` order.
_RECORD_ROW = attrgetter(*RvfiTrace.FIELDS)

#: The check stops walking once it has collected this many errors.
_MAX_ERRORS = 25


def check_trace(trace: RvfiTrace | Sequence[RvfiRecord],
                initial_regs: dict[int, int] | None = None
                ) -> RvfiCheckReport:
    """Validate a retirement trace against the executable spec.

    ``trace`` is the row-major :class:`~repro.sim.tracing.RvfiTrace` or
    any sequence of :class:`RvfiRecord`.  Either way the checker walks
    plain ``FIELDS``-ordered row tuples — :meth:`RvfiTrace.rows`, or each
    record's fields — so both forms yield identical reports and no record
    is built per row.  The shadow register file starts from
    ``initial_regs`` plus x0, which always reads as 0.

    The pc, order, interrupt and trap checks run on every row.  An
    untrapped row then goes to its word's compiled arm
    (:func:`_compile_arm`, memoized per word for this trace), unless the
    word is undecodable or a Zicsr op, ``mret``, ``wfi``, ``ecall`` or
    ``ebreak``.  An arm that accepts the row has applied the shadow write
    the reflective code would; any other row is judged by the reflective
    code below, which re-executes it with :func:`repro.isa.spec.step` and
    is the only writer of errors.  So the arms change the speed of the
    check, never its report.
    """
    report = RvfiCheckReport()
    errors = report.errors
    shadow: dict[int, int] = dict(initial_regs or {})
    shadow[0] = 0
    csrs = _ShadowCsrs()
    # Facts and arms per word, memoized for this trace; an undecodable
    # word is never stored in word_facts, so its DecodeError is raised on
    # every row.
    word_facts: dict[int, _WordFacts] = {}
    arms: dict[int, Arm | None] = {}
    checked = 0
    prev_pc_wdata: int | None = None
    prev_order: int | None = None
    rows = trace.rows() if isinstance(trace, RvfiTrace) \
        else map(_RECORD_ROW, trace)

    for (order, insn, pc_rdata, pc_wdata, rs1_addr, rs2_addr, rs1_rdata,
         rs2_rdata, rd_addr, rd_wdata, mem_addr, mem_rmask, mem_wmask,
         mem_rdata, mem_wdata, trap, intr) in rows:
        if len(errors) >= _MAX_ERRORS:
            break
        checked += 1

        # --- pc checks -------------------------------------------------
        if prev_order is not None and order != prev_order + 1:
            errors.append(f"{_at(order, pc_rdata)}: order gap after "
                          f"{prev_order}")
        prev_order = order
        if intr:
            # Interrupt entry redirected the pc between retirements; the
            # handler address replaces the chain, and the interrupted pc
            # became mepc.  The intr column carries the arbitrated
            # exception code (mcause low bits) of the source that won.
            if intr not in _INTR_CODES:
                errors.append(f"{_at(order, pc_rdata)}: intr carries "
                              f"unknown interrupt code {intr}")
            if csrs.known(MTVEC) and pc_rdata != csrs.values[MTVEC] & ~0x3:
                errors.append(
                    f"{_at(order, pc_rdata)}: interrupt entered at "
                    f"{pc_rdata:#x}, mtvec is {csrs.values[MTVEC]:#x}")
            if prev_pc_wdata is not None:
                # Full trap-entry model: stacks MIE and resets MTVAL too.
                csrs.trap_entry(prev_pc_wdata, CAUSE_INTERRUPT | intr, 0)
        elif prev_pc_wdata is not None and pc_rdata != prev_pc_wdata:
            errors.append(f"{_at(order, pc_rdata)}: pc_rdata != previous "
                          f"pc_wdata {prev_pc_wdata:#x}")
        prev_pc_wdata = pc_wdata

        # --- trap rows ---------------------------------------------------
        if trap:
            if csrs.known(MTVEC) and pc_wdata != csrs.values[MTVEC] & ~0x3:
                errors.append(
                    f"{_at(order, pc_rdata)}: trap redirected to "
                    f"{pc_wdata:#x}, mtvec is {csrs.values[MTVEC]:#x}")
            if rd_addr or mem_wmask:
                errors.append(f"{_at(order, pc_rdata)}: trapping "
                              f"instruction has side effects")
            cause = _trap_cause(insn)
            csrs.trap_entry(pc_rdata, cause,
                            insn if cause == CAUSE_ILLEGAL_INSTRUCTION else 0)
            continue

        # --- compiled arm ------------------------------------------------
        arm = arms.get(insn)
        if arm is None and insn not in arms:
            arm = arms[insn] = _compile_arm(insn)
        if arm is not None and arm(shadow, pc_rdata, pc_wdata, rs1_addr,
                                   rs2_addr, rs1_rdata, rs2_rdata, rd_addr,
                                   rd_wdata, mem_addr, mem_rmask, mem_wmask,
                                   mem_rdata, mem_wdata):
            continue

        # --- reg checks --------------------------------------------------
        facts = word_facts.get(insn)
        if facts is None:
            try:
                facts = word_facts[insn] = _word_facts(insn)
            except DecodeError as exc:
                errors.append(f"{_at(order, pc_rdata)}: undecodable insn: "
                              f"{exc}")
                continue
        instr, uses_rs1, uses_rs2, system = facts
        if uses_rs1:
            if rs1_addr != instr.rs1:
                errors.append(f"{_at(order, pc_rdata)}: rs1_addr "
                              f"{rs1_addr} != insn rs1 {instr.rs1}")
            if rs1_addr in shadow and rs1_rdata != shadow[rs1_addr]:
                errors.append(f"{_at(order, pc_rdata)}: rs1 x{rs1_addr} "
                              f"read {rs1_rdata:#x}, shadow "
                              f"{shadow[rs1_addr]:#x}")
        elif system == "csr" and rs1_addr:
            # A Zicsr immediate form reads no register: its rs1 field is
            # the uimm, so a row naming a register there is malformed.
            errors.append(f"{_at(order, pc_rdata)}: rs1_addr {rs1_addr} "
                          f"on {instr.mnemonic}, whose rs1 field is a uimm")
        if uses_rs2:
            if rs2_addr != instr.rs2:
                errors.append(f"{_at(order, pc_rdata)}: rs2_addr "
                              f"{rs2_addr} != insn rs2 {instr.rs2}")
            if rs2_addr in shadow and rs2_rdata != shadow[rs2_addr]:
                errors.append(f"{_at(order, pc_rdata)}: rs2 x{rs2_addr} "
                              f"read {rs2_rdata:#x}, shadow "
                              f"{shadow[rs2_addr]:#x}")

        # --- insn checks -------------------------------------------------
        csr_known = True
        read_csr = None
        if system is not None:
            csr_known = csrs.known(instr.imm & 0xFFF if system == "csr"
                                   else MEPC)
            if system == "csr":
                learned = rd_wdata if rd_addr else 0
            else:
                learned = pc_wdata if system == "mret" else 0
            read_csr = csrs.reader(learned)
        loads: list[tuple[int, int, int]] = []
        try:
            expected = step(instr, pc_rdata, rs1_rdata, rs2_rdata,
                            _record_load(mem_rdata, loads), read_csr)
        except (SpecError, CsrError) as exc:
            errors.append(f"{_at(order, pc_rdata)}: spec refusal: {exc}")
            continue
        if pc_wdata != expected.next_pc:
            errors.append(f"{_at(order, pc_rdata)}: pc_wdata {pc_wdata:#x} "
                          f"!= spec {expected.next_pc:#x}")
        want_rd = expected.rd or 0
        if rd_addr != want_rd:
            errors.append(f"{_at(order, pc_rdata)}: rd_addr {rd_addr} != "
                          f"spec {want_rd}")
        elif want_rd and csr_known and rd_wdata != expected.rd_data:
            errors.append(f"{_at(order, pc_rdata)}: rd_wdata {rd_wdata:#x} "
                          f"!= spec {expected.rd_data:#x}")
        if loads:
            # The read effect is the access the spec made: its address,
            # its lane mask, and the extended value it returned.
            load_addr, width, value = loads[0]
            if mem_addr != load_addr:
                errors.append(f"{_at(order, pc_rdata)}: load addr "
                              f"{mem_addr:#x} != {load_addr:#x}")
            if mem_rmask != (1 << width) - 1:
                errors.append(f"{_at(order, pc_rdata)}: load rmask "
                              f"{mem_rmask:#x} != {(1 << width) - 1:#x}")
            if mem_rdata != value:
                errors.append(f"{_at(order, pc_rdata)}: load data "
                              f"{mem_rdata:#x} != extended {value:#x}")
        elif mem_rmask:
            errors.append(f"{_at(order, pc_rdata)}: spurious load effect")
        if expected.mem_write is not None:
            mw = expected.mem_write
            if not mem_wmask:
                errors.append(f"{_at(order, pc_rdata)}: missing store "
                              f"effect")
            else:
                if mem_wmask != (1 << mw.width) - 1:
                    errors.append(f"{_at(order, pc_rdata)}: store wmask "
                                  f"{mem_wmask:#x} != "
                                  f"{(1 << mw.width) - 1:#x}")
                if mem_addr != mw.addr:
                    errors.append(f"{_at(order, pc_rdata)}: store addr "
                                  f"{mem_addr:#x} != {mw.addr:#x}")
                if mem_wdata != mw.data:
                    errors.append(f"{_at(order, pc_rdata)}: store data "
                                  f"{mem_wdata:#x} != {mw.data:#x}")
        elif mem_wmask:
            errors.append(f"{_at(order, pc_rdata)}: spurious store effect")

        if expected.csr_write is not None:
            write_addr, write_value = expected.csr_write
            if write_addr in READ_ONLY_CSRS:
                # Zicsr rule the PR 5 audit pinned: a *write* to a
                # read-only CSR must raise illegal instruction — it can
                # never appear as a plain retirement.  (Pure-read forms
                # produce no csr_write and are exempt.)
                errors.append(
                    f"{_at(order, pc_rdata)}: {instr.mnemonic} wrote "
                    f"read-only CSR {write_addr:#x} without trapping")
            # The written value is only trustworthy when the old value was
            # observable: shadow-known, read out through rd, or irrelevant
            # (csrrw/csrrwi overwrite unconditionally).  A blind
            # read-modify-write (csrrs/csrrc with rd=x0 on an unobserved
            # CSR) must *invalidate* the shadow, not learn a guess.
            old_observable = csr_known or rd_addr \
                or instr.mnemonic in ("csrrw", "csrrwi")
            try:
                if old_observable:
                    csrs.write(write_addr, write_value)
                else:
                    csrs.values.pop(write_addr, None)
            except CsrError:
                pass    # real sims trap these; a trace row cannot carry one
        if expected.is_mret:
            csrs.unstack_mie()

        if want_rd:
            shadow[want_rd] = rd_wdata if not csr_known \
                else expected.rd_data

    report.records_checked = checked
    return report
