"""Golden instruction-set simulator — the repo's Spike analog.

Executes RV32I/E programs straight from the executable spec
(:mod:`repro.isa.spec`).  It is the reference model for RISCOF-style
signature comparison and the source of reference RVFI traces.

Two loops share one :class:`~repro.sim.decoded.DecodedImage` (the
decoded-op cache, see :mod:`repro.sim.decoded`):

* **fast path** (``trace=False``, the default): :meth:`GoldenSim.run`
  dispatches precompiled executor closures keyed by pc — no per-retirement
  decode, no ``Effects`` allocation, no trace-record construction.  This
  took the loop microbenchmark from ~0.19 MIPS (seed interpreter) to
  multiple MIPS (>10x, see ``benchmarks/test_bench_sim_throughput.py``).
* **recorded path** (``trace=True``, and the golden side of
  cosimulation): :meth:`GoldenSim.run_chunk` dispatches the recording
  form of the same closures (:func:`~repro.isa.spec.compile_recorder`),
  each of which retires one instruction and records its full RVFI row
  with one call of the trace's ``row_sink``.

Both loops, and the Serv model's (:mod:`repro.sim.serv`), follow one rule.
A cached closure retires the instruction while the retirement index is
below the interrupt fire index and the closure returns a real next pc; a
pc's first execution compiles its closure through the image and runs it
in the same iteration.  Every other retirement — interrupt entry, MMIO,
Zicsr/``mret``/``wfi``, ``ecall``/``ebreak``, undecodable and RV32E-bound
words — goes to :meth:`GoldenSim.retire_one`, the reflective ``spec.step``
retirement.  That is the one slow path: the reference's trap, interrupt,
MMIO, CSR, ``wfi``, poweroff and halt rules live there and nowhere else.
``retire_one`` is also the per-row entry (the per-cycle cosimulation
walk) and the oracle the closures are tested against bit for bit.

Machine-mode traps: a :class:`~repro.sim.csr.CsrFile` is always present.
With ``mtvec == 0`` (reset) the seed's halt convention holds — ``ecall``
terminates with the exit value in ``a0``, ``ebreak`` with a breakpoint
status.  Once firmware installs a handler, ``ecall``/``ebreak`` and
illegal instructions become trap entries, ``mret`` returns, and (with a
:class:`~repro.soc.SocSpec` attached) the devices raise interrupts.  The
compiled closures never see CSR or interrupt state: system instructions
return the :data:`~repro.isa.spec.DEFER_SYSTEM` sentinel, and the
*interrupt check happens per retirement in the run loop* (a single integer
comparison against a precomputed fire index), so enabling the subsystem
costs the idle fast path almost nothing.

MMIO: with a SoC attached, ``self.memory`` is a :class:`~repro.soc.SocBus`
in direct mode, and the compiled closures run on a copy of it in
*deferred* mode.  A device access there aborts the closure before any side
effect, and the instruction retires through :meth:`GoldenSim.retire_one`
on the bus itself with the SoC clock synced, so device reads always see
exact time and device writes (e.g. re-arming ``mtimecmp``) are honoured
before the next retirement.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..isa.bits import to_u32
from ..isa.csrs import (
    CAUSE_BREAKPOINT,
    CAUSE_ECALL_M,
    CAUSE_ILLEGAL_INSTRUCTION,
)
from ..isa.program import DEFAULT_MEM_SIZE, Program
from ..isa.registers import RV32E_NUM_REGS
from ..isa.spec import step
from .csr import CsrError, CsrFile
from .decoded import DecodedImage, SimulationError
from .memory import Memory
from .tracing import RvfiRecord, RvfiTrace
# Safe despite repro.soc wrapping this simulator: the soc package only
# imports the cycle-free repro.sim.memory submodule, never this module.
from ..soc import NEVER
from ..soc.bus import MmioDeferred, PowerOffSignal

__all__ = ["GoldenSim", "RunResult", "SimulationError", "abi_initial_regs",
           "run_program"]


@dataclass
class RunResult:
    """Outcome of a completed simulation.

    ``trace`` is a sequence of :class:`RvfiRecord` — recorded runs return
    the row-major :class:`RvfiTrace`, which materializes records lazily.
    """

    exit_code: int            # a0 at the terminating ecall/ebreak, or the
                              # value stored to the SoC power gate
    instructions: int         # dynamic instruction count
    cycles: int               # core cycles (single-cycle core: == instructions)
    halted_by: str            # "ecall" | "ebreak" | "poweroff" | "wfi"
                              # | "limit" ("wfi" = slept with no enabled
                              # interrupt source that could ever wake it)
    trace: "RvfiTrace | list[RvfiRecord]" = field(default_factory=list)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class GoldenSim:
    """Reference RV32E simulator built directly on the ISA spec."""

    def __init__(self, program: Program, mem_size: int = DEFAULT_MEM_SIZE,
                 num_regs: int = RV32E_NUM_REGS, trace: bool = False,
                 trace_capacity: int | None = None,
                 soc: "object | None" = None):
        self.memory = Memory.from_program(program, mem_size)
        self.csr = CsrFile()
        from ..soc import attach_soc
        self.soc = attach_soc(soc, self.memory)
        #: The memory the compiled closures run on: with a SoC, a copy of
        #: the bus in deferred mode, so a device access sends its
        #: instruction to retire_one, which uses the bus itself.
        self._fast_memory = self.memory
        if self.soc is not None:
            self.memory = self.soc.bus
            self._fast_memory = copy.copy(self.memory)
            self._fast_memory.deferred = True
        self.num_regs = num_regs
        self.regs = [0] * num_regs
        self.pc = to_u32(program.entry)
        for index, value in abi_initial_regs(mem_size).items():
            self.regs[index] = value
        self._trace_enabled = trace
        self._trace_capacity = trace_capacity
        self._poweroff_code = 0
        self._install_halt_stub(program)
        self.image = DecodedImage(self.memory, num_regs)

    def _install_halt_stub(self, program: Program) -> None:
        """Place ``ecall`` at a sentinel address so ``ret`` from main halts."""
        from ..isa.encoding import Instruction, encode
        self.memory.store(_HALT_SENTINEL, encode(Instruction("ecall")), 4)

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = to_u32(value)

    # --------------------------------------------------- reflective path

    def retire_one(self, order: int,
                   sink: RvfiTrace | None = None) -> tuple[bool, str]:
        """Retire one instruction; returns (halted, halt_reason).

        The one slow path: every retirement a run loop's compiled closure
        cannot complete comes here, so each trap, interrupt, MMIO, CSR,
        ``wfi``, poweroff and halt rule of the reference is stated once,
        below.  When ``sink`` is given the retirement's RVFI fields are
        appended to it as one row (:meth:`RvfiTrace.append_row`) — no
        per-retirement record allocation.
        Interrupt entry happens *between* retirements: when an enabled
        source's level is high the arbiter redirects the pc to the handler
        and the handler's first instruction retires with ``intr`` set to
        the arbitrated exception code (7 = timer, 16 = sensor); a trapping
        instruction (ecall/ebreak/illegal with a handler installed)
        retires with ``trap=1``, no architectural side effects and
        ``pc_wdata`` = the handler address.
        """
        csr = self.csr
        soc = self.soc
        intr = 0
        pc = self.pc
        if soc is not None:
            csr.set_pending(soc.irq_lines(order))
            cause = csr.pending_cause()
            if cause is not None:
                pc = csr.take_interrupt(cause, pc)
                self.pc = pc
                intr = cause & 0x3F   # arbitrated exception code

        try:
            op = self.image.get(pc)
        except SimulationError:
            if not csr.traps_enabled:
                raise
            return self._retire_trap(order, sink, pc, self.memory.fetch(pc),
                                     CAUSE_ILLEGAL_INSTRUCTION, intr)
        instr = op.instr
        # A Zicsr immediate form's rs1 field is its uimm: no register read,
        # so its row names none (as the RTL harness's row does).
        rs1_addr = 0 if instr.definition.csr_uimm else instr.rs1
        rs1 = self.read_reg(rs1_addr)
        rs2 = self.read_reg(instr.rs2)

        mem_addr = mem_rmask = mem_wmask = mem_rdata = mem_wdata = 0

        def load(addr: int, width: int, signed: bool) -> int:
            nonlocal mem_addr, mem_rmask, mem_rdata
            value = self.memory.load(addr, width, signed)
            mem_addr = to_u32(addr)
            mem_rmask = (1 << width) - 1
            mem_rdata = value
            return value

        try:
            effects = step(instr, pc, rs1, rs2, load, csr.read)
            if effects.csr_write is not None:
                # Committed inside the try: a write to a read-only CSR
                # traps as illegal with no architectural side effects.
                csr.write(*effects.csr_write)
        except CsrError:
            if not csr.traps_enabled:
                raise SimulationError(
                    f"{instr.mnemonic} at {pc:#x}: illegal CSR access "
                    f"(csr {instr.imm:#x})") from None
            return self._retire_trap(order, sink, pc, op.word,
                                     CAUSE_ILLEGAL_INSTRUCTION, intr)
        if effects.halt and csr.traps_enabled:
            cause = CAUSE_ECALL_M if effects.is_ecall else CAUSE_BREAKPOINT
            return self._retire_trap(order, sink, pc, op.word, cause, intr)

        halted = False
        reason = ""
        if effects.mem_write is not None:
            mw = effects.mem_write
            try:
                self.memory.store(mw.addr, mw.data, mw.width)
            except PowerOffSignal as sig:
                self._poweroff_code = sig.exit_code
                halted, reason = True, "poweroff"
            self.image.invalidate(mw.addr)
            if soc is not None:
                soc.rebase(order)   # honour firmware writes to MTIME
            mem_addr = mw.addr
            mem_wmask = (1 << mw.width) - 1
            mem_wdata = mw.data
        if effects.is_mret:
            csr.do_mret()
        if effects.is_wfi and not self._wfi_resume(order):
            halted, reason = True, "wfi"
        if effects.rd is not None:
            self.write_reg(effects.rd, effects.rd_data)
        self.pc = effects.next_pc

        if sink is not None:
            sink.append_row(
                order, op.word, pc, effects.next_pc, rs1_addr, instr.rs2,
                rs1, rs2, effects.rd or 0,
                effects.rd_data if effects.rd else 0,
                mem_addr, mem_rmask, mem_wmask, mem_rdata, mem_wdata,
                0, intr)
        if effects.halt:
            return True, "ecall" if effects.is_ecall else "ebreak"
        return halted, reason

    def _retire_trap(self, order: int, sink: RvfiTrace | None, pc: int,
                     word: int, cause: int, intr: int) -> tuple[bool, str]:
        """Trap entry: the trapping instruction retires with ``trap=1``."""
        target = self.csr.trap_enter(cause, pc,
                                     word if cause ==
                                     CAUSE_ILLEGAL_INSTRUCTION else 0)
        self.pc = target
        if sink is not None:
            sink.append_row(order, word, pc, target, 0, 0, 0, 0, 0, 0,
                            trap=1, intr=intr)
        return False, ""

    def _wfi_resume(self, order: int) -> bool:
        """Shared ``wfi`` semantics: fast-forward the clock to the next
        *enabled* (``mie``) source edge regardless of ``mstatus.MIE`` —
        the privileged-spec wake rule — and return True.  Returns False
        when no enabled source can ever become pending (nothing armed, or
        no SoC at all): the run then ends deterministically with
        ``halted_by == "wfi"`` instead of spinning."""
        wake = self.csr.wfi_wake_mask()
        if self.soc is None or not wake:
            return False
        return self.soc.skip_to_event(order + 1, wake)

    # ----------------------------------------------------------- run loops

    def _fire_index(self) -> int:
        """Retirement index of the next arbitrated interrupt (``NEVER``
        with no SoC attached or no source able to fire).  The run loops
        re-read it after each :meth:`retire_one` retirement, the only
        place machine state can move it."""
        if self.soc is None:
            return NEVER
        return self.soc.fire_index(self.csr)

    def _compile_at(self, pc: int, closures: dict):
        """A pc's first execution: compile it through the decoded-op cache
        and return its closure from ``closures`` (the image's
        ``executors`` or ``recorders``).  None for a word only
        :meth:`retire_one` can retire: undecodable or RV32E-bound, which
        traps or raises there."""
        try:
            self.image.get(pc)
        except SimulationError:
            return None
        return closures[pc]

    def run(self, max_instructions: int = 20_000_000) -> RunResult:
        """Run to halt (or instruction limit).

        With tracing on, :meth:`run_chunk` records every retirement.  With
        tracing off this is the decoded-op fast path: one dict probe plus
        one compiled-closure call per retired instruction, and exactly one
        integer comparison against ``fire_at`` (the precomputed earliest
        fire index over every enabled interrupt source — the packed
        pending word collapses to one integer, ``NEVER`` without a SoC).
        A first execution compiles in place.  Every retirement the
        executor cannot complete — the fire index reached, an MMIO
        access, a sentinel, an undecodable word — goes to
        :meth:`retire_one`.
        """
        if self._trace_enabled:
            trace = RvfiTrace(capacity=self._trace_capacity)
            halted, reason, count = self.run_chunk(0, max_instructions,
                                                   trace)
            return self._result(count, reason if halted else "limit",
                                trace)
        regs = self.regs
        memory = self._fast_memory
        executors = self.image.executors
        ex_get = executors.get
        compile_at = self._compile_at
        retire = self.retire_one
        fire_at = self._fire_index()
        pc = self.pc
        count = 0
        halted_by = "limit"
        try:
            while count < max_instructions:
                execute = ex_get(pc) or compile_at(pc, executors)
                if execute is not None and count < fire_at:
                    try:
                        next_pc = execute(regs, memory, pc)
                    except MmioDeferred:
                        pass
                    else:
                        if next_pc >= 0:
                            pc = next_pc
                            count += 1
                            continue
                self.pc = pc
                try:
                    halted, reason = retire(count)
                finally:
                    pc = self.pc
                count += 1
                if halted:
                    halted_by = reason
                    break
                fire_at = self._fire_index()
        finally:
            self.pc = pc
        return self._result(count, halted_by, [])

    def _result(self, count: int, halted_by: str,
                trace: "RvfiTrace | list[RvfiRecord]") -> RunResult:
        exit_code = self._poweroff_code if halted_by == "poweroff" \
            else self.read_reg(10)
        return RunResult(exit_code=exit_code, instructions=count,
                         cycles=count, halted_by=halted_by, trace=trace)

    def run_chunk(self, order: int, limit: int,
                  sink: RvfiTrace) -> tuple[bool, str, int]:
        """Retire from retirement index ``order`` up to ``limit``,
        appending each retirement's RVFI row to ``sink`` (the recorders
        through its ``row_sink``); returns
        ``(halted, halt_reason, count)``, ``count`` being the index after
        the last retirement.

        The golden counterpart of ``RisspSim._fused_run``: state persists
        on the simulator between calls, so a run can be split into chunks
        at any index and records the same rows.  The loop is :meth:`run`'s
        with the recording closures: a cached or freshly compiled recorder
        retires the instruction below the fire index, and every other
        retirement goes through :meth:`retire_one`.  Either way the row is
        exactly the one :meth:`retire_one` records, and a refused
        retirement raises with no row appended.
        """
        regs = self.regs
        memory = self._fast_memory
        recorders = self.image.recorders
        rec_get = recorders.get
        compile_at = self._compile_at
        append = sink.row_sink()
        retire = self.retire_one
        fire_at = self._fire_index()
        pc = self.pc
        count = order
        try:
            while count < limit:
                record = rec_get(pc) or compile_at(pc, recorders)
                if record is not None and count < fire_at:
                    try:
                        next_pc = record(regs, memory, pc, count, append)
                    except MmioDeferred:
                        pass
                    else:
                        if next_pc >= 0:
                            pc = next_pc
                            count += 1
                            continue
                self.pc = pc
                try:
                    halted, reason = retire(count, sink)
                finally:
                    pc = self.pc
                count += 1
                if halted:
                    return True, reason, count
                fire_at = self._fire_index()
        finally:
            self.pc = pc
        return False, "", count


#: Sentinel return address holding an ``ecall``; ``ret`` from main halts here.
_HALT_SENTINEL = 0x0000_FFF0


def abi_initial_regs(mem_size: int = DEFAULT_MEM_SIZE) -> dict[int, int]:
    """Baremetal ABI reset state: sp at the top of memory (16-byte aligned),
    ra at the halt stub.  Single source of truth for every simulator's
    register reset and for the RVFI checker's initial shadow file."""
    return {2: mem_size - 16, 1: _HALT_SENTINEL}


def run_program(program: Program, max_instructions: int = 20_000_000,
                trace: bool = False, mem_size: int = DEFAULT_MEM_SIZE,
                soc: "object | None" = None) -> RunResult:
    """Assembled program in, :class:`RunResult` out — the main entry point."""
    sim = GoldenSim(program, mem_size=mem_size, trace=trace, soc=soc)
    return sim.run(max_instructions)
