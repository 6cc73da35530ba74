"""RVFI trace checking — the riscv-formal analog (§3.4.2).

riscv-formal attaches to a core through the RISC-V Formal Interface and
checks, per retired instruction: correct execution against the ISA spec,
register-file consistency, and PC chaining.  The same three families of
checks run here over the RVFI retirement traces either simulator emits
(a row-major :class:`repro.sim.tracing.RvfiTrace`, read row tuple by row
tuple, or a list of :class:`repro.sim.tracing.RvfiRecord`):

  * **insn checks** — re-execute each retired instruction with the spec and
    compare ``pc_wdata``, ``rd_addr``/``rd_wdata`` and store effects,
  * **reg checks** — maintain a shadow register file from retired writes
    (x0 pinned to zero) and require every ``rs*_rdata`` it covers to
    match it,
  * **pc checks** — ``pc_rdata`` of instruction *n+1* must equal
    ``pc_wdata`` of instruction *n*, and ``order`` must be gapless.

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
from typing import Sequence

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
from ..isa.spec import SpecError, step
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


def _record_load(mem_addr: int, mem_rmask: int, mem_rdata: int):
    """Spec ``load`` callback modelling a load from a row's own memory
    view (its read-effect triple)."""
    def load(addr: int, width: int, signed: bool) -> int:
        offset = (addr - (mem_addr & ~0x3)) & 0x3
        if width == 4 or mem_rmask != 0b1111:
            value = mem_rdata
        else:
            value = (mem_rdata >> (8 * offset)) & ((1 << (8 * width)) - 1)
        if signed and width < 4:
            value = to_u32(sign_extend(value, 8 * width))
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


def _at(order: int, pc: int) -> str:
    """Location prefix of an error message."""
    return f"order={order} pc={pc:#x}"


#: Row tuple of an :class:`RvfiRecord`, in :attr:`RvfiTrace.FIELDS` order.
_RECORD_ROW = attrgetter(*RvfiTrace.FIELDS)


def check_trace(trace: RvfiTrace | Sequence[RvfiRecord],
                num_regs: int = 16,
                initial_regs: dict[int, int] | None = None,
                max_errors: int = 25) -> RvfiCheckReport:
    """Validate a retirement trace against the executable spec.

    ``trace`` is the row-major :class:`~repro.sim.tracing.RvfiTrace` or
    any sequence of :class:`RvfiRecord`.  Either way the checker walks
    plain ``FIELDS``-ordered row tuples — :meth:`RvfiTrace.rows`, or each
    record's fields — so both forms yield identical reports and no record
    is built per row.  The shadow register file starts from
    ``initial_regs`` plus x0, which always reads as 0.
    """
    report = RvfiCheckReport()
    errors = report.errors
    shadow: dict[int, int] = dict(initial_regs or {})
    shadow[0] = 0
    csrs = _ShadowCsrs()
    # Facts per decodable word, memoized for this trace; an undecodable
    # word is never stored, so its DecodeError is raised on every row.
    word_facts: dict[int, _WordFacts] = {}
    prev_pc_wdata: int | None = None
    prev_order: int | None = None
    rows = trace.rows() if isinstance(trace, RvfiTrace) \
        else map(_RECORD_ROW, trace)

    for (order, insn, pc_rdata, pc_wdata, rs1_addr, rs2_addr, rs1_rdata,
         rs2_rdata, rd_addr, rd_wdata, mem_addr, mem_rmask, mem_wmask,
         mem_rdata, mem_wdata, trap, intr) in rows:
        if len(errors) >= max_errors:
            break
        report.records_checked += 1

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
        if uses_rs1 and rs1_addr in shadow \
                and rs1_rdata != shadow[rs1_addr]:
            errors.append(f"{_at(order, pc_rdata)}: rs1 x{rs1_addr} read "
                          f"{rs1_rdata:#x}, shadow {shadow[rs1_addr]:#x}")
        if uses_rs2 and rs2_addr in shadow \
                and rs2_rdata != shadow[rs2_addr]:
            errors.append(f"{_at(order, pc_rdata)}: rs2 x{rs2_addr} read "
                          f"{rs2_rdata:#x}, shadow {shadow[rs2_addr]:#x}")

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
        try:
            expected = step(instr, pc_rdata, rs1_rdata, rs2_rdata,
                            _record_load(mem_addr, mem_rmask, mem_rdata)
                            if mem_rmask else None,
                            read_csr)
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
        if expected.mem_write is not None:
            mw = expected.mem_write
            if not mem_wmask:
                errors.append(f"{_at(order, pc_rdata)}: missing store "
                              f"effect")
            else:
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

    return report
