"""Golden instruction-set simulator — the repo's Spike analog.

Executes RV32I/E programs straight from the executable spec
(:mod:`repro.isa.spec`).  It is the reference model for RISCOF-style
signature comparison and the source of reference RVFI traces.

Two execution paths share one :class:`~repro.sim.decoded.DecodedImage`
(the decoded-op cache, see :mod:`repro.sim.decoded`):

* **fast path** (``trace=False``, the default): :meth:`GoldenSim.run`
  dispatches precompiled executor closures keyed by pc — no per-retirement
  decode, no ``Effects`` allocation, no trace-record construction.  This
  took the loop microbenchmark from ~0.19 MIPS (seed interpreter) to
  multiple MIPS (>10x, see ``benchmarks/test_bench_sim_throughput.py``).
* **recorded path** (``trace=True``): :meth:`GoldenSim.retire_one` keeps
  the reflective ``spec.step`` flow so every retirement yields a full
  columnar RVFI row, but decode still comes from the shared cache.

Machine-mode traps (PR 3): a :class:`~repro.sim.csr.CsrFile` is always
present.  With ``mtvec == 0`` (reset) the seed's halt convention holds —
``ecall`` terminates with the exit value in ``a0``, ``ebreak`` with a
breakpoint status.  Once firmware installs a handler, ``ecall``/``ebreak``
and illegal instructions become trap entries, ``mret`` returns, and (with
a :class:`~repro.soc.SocSpec` attached) the machine timer raises
interrupts.  The decoded-op cache contract is preserved: compiled
executors never see CSR or interrupt state — system instructions return
the :data:`~repro.isa.spec.DEFER_SYSTEM` sentinel and are retired through
the slow path, and the *interrupt check happens per retirement in the run
loop* (a single integer comparison against a precomputed fire index), so
enabling the subsystem costs the idle fast path almost nothing.

MMIO (PR 3): with a SoC attached, ``self.memory`` is a
:class:`~repro.soc.SocBus`.  The fast path runs the bus in *deferred*
mode — device accesses abort the compiled executor before any side effect
and the instruction retires through the reflective path with the SoC
clock synced — so device reads always see exact time and device writes
(e.g. re-arming ``mtimecmp``) are honoured before the next retirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.bits import to_u32
from ..isa.csrs import (
    CAUSE_BREAKPOINT,
    CAUSE_ECALL_M,
    CAUSE_ILLEGAL_INSTRUCTION,
)
from ..isa.program import DEFAULT_MEM_SIZE, Program
from ..isa.registers import RV32E_NUM_REGS
from ..isa.spec import DEFER_SYSTEM, HALT_EBREAK, step
from .csr import CsrError, CsrFile
from .decoded import DecodedImage, SimulationError
from .memory import Memory
from .tracing import RvfiRecord, RvfiTrace
# Safe despite repro.soc wrapping this simulator: the soc package only
# imports the cycle-free repro.sim.memory submodule, never this module.
from ..soc.bus import MmioDeferred, PowerOffSignal

__all__ = ["GoldenSim", "RunResult", "SimulationError", "abi_initial_regs",
           "run_program"]

_M32 = 0xFFFFFFFF


@dataclass
class RunResult:
    """Outcome of a completed simulation.

    ``trace`` is a sequence of :class:`RvfiRecord` — recorded runs return
    the columnar :class:`RvfiTrace`, which materializes records lazily.
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
        if self.soc is not None:
            self.memory = self.soc.bus
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

    # ------------------------------------------------------- recorded path

    def retire_one(self, order: int,
                   sink: RvfiTrace | None = None) -> tuple[bool, str]:
        """Retire one instruction; returns (halted, halt_reason).

        When ``sink`` is given the retirement's RVFI fields are appended to
        it as one columnar row — no per-retirement record allocation.
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
        rs1 = 0 if instr.definition.csr_uimm else self.read_reg(instr.rs1)
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
                order, op.word, pc, effects.next_pc, instr.rs1, instr.rs2,
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

    # ----------------------------------------------------------- fast path

    def _wfi_resume(self, order: int) -> bool:
        """Shared ``wfi`` semantics (PR 5 conformance fix): fast-forward
        the clock to the next *enabled* (``mie``) source edge regardless
        of ``mstatus.MIE`` — the privileged-spec wake rule — and return
        True.  Returns False when no enabled source can ever become
        pending (nothing armed, or no SoC at all): the run then ends
        deterministically with ``halted_by == "wfi"`` instead of
        spinning."""
        wake = self.csr.wfi_wake_mask()
        if self.soc is None or not wake:
            return False
        return self.soc.skip_to_event(order + 1, wake)

    def _exec_system(self, pc: int, order: int) -> tuple[int, bool]:
        """Slow-path retirement of one deferred system instruction
        (csrr*/mret/wfi); returns ``(next_pc, wfi_halt)``.  Rare by
        construction — trap setup and handler entry/exit only."""
        if self.soc is not None:
            self.csr.set_pending(self.soc.irq_lines(order))
        op = self.image.get(pc)
        instr = op.instr
        rs1 = 0 if instr.definition.csr_uimm else self.read_reg(instr.rs1)
        try:
            effects = step(instr, pc, rs1, 0, csr=self.csr.read)
            if effects.csr_write is not None:
                self.csr.write(*effects.csr_write)
        except CsrError:
            if not self.csr.traps_enabled:
                raise SimulationError(
                    f"{instr.mnemonic} at {pc:#x}: illegal CSR access "
                    f"(csr {instr.imm:#x})") from None
            return self.csr.trap_enter(CAUSE_ILLEGAL_INSTRUCTION, pc,
                                       op.word), False
        if effects.is_mret:
            self.csr.do_mret()
        halted = effects.is_wfi and not self._wfi_resume(order)
        if effects.rd is not None:
            self.write_reg(effects.rd, effects.rd_data)
        return effects.next_pc, halted

    def run(self, max_instructions: int = 20_000_000) -> RunResult:
        """Run to halt (or instruction limit).

        With tracing off this is the decoded-op fast path: one dict probe
        plus one compiled-closure call per retired instruction.
        """
        if self._trace_enabled:
            return self._run_recorded(max_instructions)
        if self.soc is not None:
            return self._run_soc(max_instructions)
        csr = self.csr
        regs = self.regs
        memory = self.memory
        get_op = self.image.get
        executors = self.image.executors
        ex_get = executors.get
        pc = self.pc
        count = 0
        halted_by = "limit"
        try:
            while count < max_instructions:
                execute = ex_get(pc)
                if execute is None:
                    try:
                        execute = get_op(pc).execute
                    except SimulationError:
                        if not csr.traps_enabled:
                            raise
                        pc = csr.trap_enter(CAUSE_ILLEGAL_INSTRUCTION, pc,
                                            memory.fetch(pc))
                        count += 1
                        continue
                next_pc = execute(regs, memory, pc)
                count += 1
                if next_pc >= 0:
                    pc = next_pc
                else:
                    if next_pc == DEFER_SYSTEM:
                        pc, wfi_halt = self._exec_system(pc, count - 1)
                        if wfi_halt:
                            halted_by = "wfi"
                            break
                        continue
                    if csr.traps_enabled:
                        pc = csr.trap_enter(
                            CAUSE_BREAKPOINT if next_pc == HALT_EBREAK
                            else CAUSE_ECALL_M, pc)
                        continue
                    pc = (pc + 4) & _M32
                    halted_by = "ebreak" if next_pc == HALT_EBREAK else "ecall"
                    break
        finally:
            self.pc = pc
        return RunResult(exit_code=self.read_reg(10), instructions=count,
                         cycles=count, halted_by=halted_by, trace=[])

    def _run_soc(self, max_instructions: int) -> RunResult:
        """Fast path with the SoC attached.

        Identical inner loop plus exactly one integer comparison per
        retirement (``count >= fire_at``, the precomputed earliest fire
        index over every enabled interrupt source — the packed pending
        word collapses to one integer).  ``fire_at`` is refreshed only at
        the points where machine state can legally move it: deferred MMIO
        retirements (mtimecmp/mtime/sensor-ACK writes), deferred system
        instructions (mstatus/mie writes, mret, wfi), trap entries and
        interrupt entries.  At fire time the full pending word is
        assembled and :meth:`CsrFile.pending_cause` arbitrates.
        """
        csr = self.csr
        soc = self.soc
        bus = soc.bus
        regs = self.regs
        memory = self.memory
        get_op = self.image.get
        ex_get = self.image.executors.get
        pc = self.pc
        count = 0
        halted_by = "limit"
        exit_code = None
        fire_at = soc.fire_index(csr)
        bus.deferred = True
        try:
            while count < max_instructions:
                if count >= fire_at:
                    csr.set_pending(soc.irq_lines(count))
                    pc = csr.take_interrupt(csr.pending_cause(), pc)
                    fire_at = soc.fire_index(csr)
                    continue    # interrupt entry retires nothing
                execute = ex_get(pc)
                if execute is None:
                    try:
                        execute = get_op(pc).execute
                    except SimulationError:
                        if not csr.traps_enabled:
                            raise
                        pc = csr.trap_enter(CAUSE_ILLEGAL_INSTRUCTION, pc,
                                            memory.fetch(pc))
                        fire_at = soc.fire_index(csr)
                        count += 1
                        continue
                try:
                    next_pc = execute(regs, memory, pc)
                except MmioDeferred:
                    bus.deferred = False
                    try:
                        soc.sync(count)
                        next_pc = self._retire_mmio(pc)
                        soc.rebase(count)
                    except PowerOffSignal as sig:
                        count += 1
                        pc = (pc + 4) & _M32
                        halted_by = "poweroff"
                        exit_code = sig.exit_code
                        break
                    finally:
                        bus.deferred = True
                    count += 1
                    pc = next_pc
                    fire_at = soc.fire_index(csr)
                    continue
                count += 1
                if next_pc >= 0:
                    pc = next_pc
                    continue
                if next_pc == DEFER_SYSTEM:
                    pc, wfi_halt = self._exec_system(pc, count - 1)
                    fire_at = soc.fire_index(csr)
                    if wfi_halt:
                        halted_by = "wfi"
                        break
                    continue
                if csr.traps_enabled:
                    pc = csr.trap_enter(
                        CAUSE_BREAKPOINT if next_pc == HALT_EBREAK
                        else CAUSE_ECALL_M, pc)
                    fire_at = soc.fire_index(csr)
                    continue
                pc = (pc + 4) & _M32
                halted_by = "ebreak" if next_pc == HALT_EBREAK else "ecall"
                break
        finally:
            bus.deferred = False
            self.pc = pc
        return RunResult(
            exit_code=self.read_reg(10) if exit_code is None else exit_code,
            instructions=count, cycles=count, halted_by=halted_by, trace=[])

    def _retire_mmio(self, pc: int) -> int:
        """Reflective retirement of one instruction whose memory access
        hit an MMIO window (fast path only; bus is in direct mode and the
        SoC clock is already synced).  Returns the next pc."""
        op = self.image.get(pc)
        instr = op.instr
        effects = step(instr, pc, self.read_reg(instr.rs1),
                       self.read_reg(instr.rs2), self.memory.load)
        if effects.mem_write is not None:
            mw = effects.mem_write
            self.memory.store(mw.addr, mw.data, mw.width)
            self.image.invalidate(mw.addr)
        if effects.rd is not None:
            self.write_reg(effects.rd, effects.rd_data)
        return effects.next_pc

    def _run_recorded(self, max_instructions: int) -> RunResult:
        """Trace-recording loop over :meth:`retire_one` into a columnar
        :class:`RvfiTrace` (one row append per retirement, no records)."""
        trace = RvfiTrace(capacity=self._trace_capacity)
        count = 0
        halted_by = "limit"
        while count < max_instructions:
            halted, reason = self.retire_one(count, trace)
            count += 1
            if halted:
                halted_by = reason
                break
        exit_code = self._poweroff_code if halted_by == "poweroff" \
            else self.read_reg(10)
        return RunResult(exit_code=exit_code, instructions=count,
                         cycles=count, halted_by=halted_by, trace=trace)


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
