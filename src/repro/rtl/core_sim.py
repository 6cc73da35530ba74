"""Program execution harness for generated RISSP modules.

Drives the RTL evaluator cycle-by-cycle against a flat memory (or, with a
:class:`~repro.soc.SocSpec` attached, against the MMIO bus), mirroring the
testbench the paper uses for integration-level verification: the DUT is
the stitched RISSP RTL, the memory plays imem/dmem, and every retired
instruction can be captured as an RVFI record for the riscv-formal-analog
checker.

RVFI records follow the shared read-effect convention of
:mod:`repro.sim.tracing`: sub-word loads report the true byte address, the
``(1 << width) - 1`` lane mask and the extended sub-word value — the same
fields the golden ISS emits — so :func:`cosimulate` can compare the *read*
side of the memory interface bit-for-bit, not just the write side.
Instruction words are decoded through the memoized
:func:`repro.isa.encoding.decode`, so classifying loads and halt causes
costs one dict probe per retirement.

Machine-mode division of labour (PR 3, multi-source in PR 5): a
trap-capable core (built with ``mret`` in its subset, see
:func:`repro.rtl.rissp.build_rissp`) performs ``ecall``/``ebreak`` trap
entry to ``mtvec`` and ``mret`` return *in hardware* — the
mtvec/mepc/mcause CSR registers live in the RTL module and every backend
commits them like any other register.  The Zicsr register
instructions and ``wfi`` have no hardware block; this harness retires
them testbench-side through the same :func:`repro.isa.spec.step`
semantics the golden ISS uses (the CSR state *is* the hardware registers,
via :class:`_HwCsrFile`), and injects interrupts between retirements
through the identical :meth:`~repro.sim.csr.CsrFile.pending_cause`
arbiter over the SoC's packed pending word — which is what keeps
lock-step cosimulation of multi-source trap/interrupt timing exact, down
to the arbitrated cause code in the RVFI ``intr`` column.

The harness also enforces the RV32E register bound (PR 5 conformance
fix): a decodable word whose register fields reach x16+ traps as illegal
(mtval = the word) instead of reaching a datapath that would silently
truncate the 5-bit field to the 16-entry file.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice
from operator import ne

from ..isa.bits import to_u32
from ..isa.csrs import CAUSE_ILLEGAL_INSTRUCTION
from ..isa.encoding import DecodeError, Instruction, decode, encode
from ..isa.instructions import CSR_OPS
from ..isa.program import DEFAULT_MEM_SIZE, Program
from ..isa.spec import _LOAD_WIDTH, SpecError, step
from ..obs import telemetry as _obs
from ..sim.csr import CsrError, CsrFile
from ..sim.golden import (_HALT_SENTINEL, RunResult, SimulationError,
                          abi_initial_regs)
from ..sim.memory import Memory, MemoryError_
from ..sim.tracing import RvfiTrace, load_read_fields
from ..soc import NEVER, attach_soc
from ..soc.bus import PowerOffSignal
from .compiled import WSTRB_WIDTH as _WSTRB_WIDTH, compile_core
from .ir import Module
from .sim import RtlSim

#: RVFI fields compared in lock-step by :func:`cosimulate` — the full
#: retirement contract: instruction, pc chain, writeback, both sides of
#: the memory interface, and the trap/interrupt flags.
COSIM_FIELDS = ("insn", "pc_rdata", "pc_wdata", "rd_addr", "rd_wdata",
                "mem_addr", "mem_rmask", "mem_rdata",
                "mem_wmask", "mem_wdata", "trap", "intr")

#: System instructions the harness retires for the core (no RTL block).
_EMULATED = set(CSR_OPS) | {"wfi"}

#: RV32E register-file size every generated RISSP shares.
_RV32E_REGS = 16

#: The halt stub every harness stores at the halt sentinel.
_ECALL_WORD = encode(Instruction("ecall"))

#: word -> fused-loop class (0 = hardware, 1 = harness-emulated Zicsr/wfi,
#: 2 = mret, 3 = decodable word whose register fields violate the RV32E
#: bound — the hardware would silently truncate the 5-bit field to the
#: 4-bit file, so the harness must trap it before it reaches the
#: datapath, exactly as the golden ISS does).  Global like the decode
#: memo: classification depends only on the instruction word, never on
#: the core.
_WORD_CLASS: dict[int, int] = {}


def _classify_word(word: int) -> int:
    """Classify (and memoize) one instruction word for the cycle loops."""
    try:
        instr = decode(word)
    except DecodeError:
        cls = 0
    else:
        # Same register-bound rule as repro.sim.decoded.DecodedImage: the
        # Zicsr immediate forms carry a uimm in the rs1 field, exempt
        # from the bound.
        if instr.rd >= _RV32E_REGS or instr.rs2 >= _RV32E_REGS \
                or (not instr.definition.csr_uimm
                    and instr.rs1 >= _RV32E_REGS):
            cls = 3
        elif instr.mnemonic in _EMULATED:
            cls = 1
        elif instr.mnemonic == "mret":
            cls = 2
        else:
            cls = 0
    _WORD_CLASS[word] = cls
    return cls


def _halt_reason(word: int) -> str:
    """Halt cause of a halting retirement, same decode as the per-cycle
    harness."""
    return "ebreak" if decode(word).mnemonic == "ebreak" else "ecall"


def _trace_load_fields(word: int, addr: int,
                       mem_word: int) -> tuple[int, int, int]:
    """RVFI read-effect triple of a retirement that read data memory, for
    every RTL loop.  A read on a word that is not a load (a core whose
    ``dmem_re`` fires where it should not) is recorded as a 4-byte
    unsigned read, so cosim and ``check_trace`` report it instead of the
    trace raising."""
    width, signed = _LOAD_WIDTH.get(decode(word).mnemonic, (4, False))
    return load_read_fields(addr, mem_word, width, signed)


class _HwCsrFile(CsrFile):
    """CSR file whose mtvec/mepc/mcause are the RTL core's registers.

    The trap-slice state lives in exactly one place — the hardware
    register environment — so harness-emulated Zicsr instructions, the
    hardware trap unit and the interrupt injector can never disagree about
    it.  mstatus/mie/mip/mscratch/mtval stay harness-side (plain slots).
    """

    __slots__ = ("_env",)

    def __init__(self, env: dict):
        self._env = env
        super().__init__()

    @property
    def mtvec(self) -> int:
        return self._env["mtvec"]

    @mtvec.setter
    def mtvec(self, value: int) -> None:
        self._env["mtvec"] = value & 0xFFFFFFFF

    @property
    def mepc(self) -> int:
        return self._env["mepc"]

    @mepc.setter
    def mepc(self, value: int) -> None:
        self._env["mepc"] = value & 0xFFFFFFFF

    @property
    def mcause(self) -> int:
        return self._env["mcause"]

    @mcause.setter
    def mcause(self, value: int) -> None:
        self._env["mcause"] = value & 0xFFFFFFFF


class RisspSim:
    """Run programs on a RISSP RTL module (cycle-accurate, single cycle/instr)."""

    def __init__(self, core: Module, program: Program,
                 mem_size: int = DEFAULT_MEM_SIZE, trace: bool = False,
                 trace_capacity: int | None = None,
                 backend: str | None = None,
                 soc: "object | None" = None):
        self.core = core
        self.memory = Memory.from_program(program, mem_size)
        self.soc = attach_soc(soc, self.memory)
        if self.soc is not None:
            self.memory = self.soc.bus
        self.rtl = RtlSim(core, backend=backend)
        self.rtl.env["pc"] = to_u32(program.entry)
        self._trap_hw = "mtvec" in core.registers
        self.csr = _HwCsrFile(self.rtl.env) if self._trap_hw else CsrFile()
        self._trace_enabled = trace
        self._trace_capacity = trace_capacity
        self._poweroff_code = 0
        # compile_core refuses a core without the fused harness interface.
        self._fused = compile_core(core) \
            if self.rtl.backend == "fused" else None
        self._fused_ctx = None
        self._fused_sink: RvfiTrace | None = None
        # ABI setup mirrors the golden ISS: sp at top, ra at the halt stub.
        self.memory.store(_HALT_SENTINEL, _ECALL_WORD, 4)
        if self.rtl.regfile_data is not None:
            for index, value in abi_initial_regs(mem_size).items():
                self.rtl.regfile_data[index] = value

    def _cycle(self, order: int,
               sink: RvfiTrace | None = None) -> tuple[bool, str]:
        """Advance one cycle on the interpreter; returns (halted, reason).

        When ``sink`` is given (requires ``trace=True`` construction), the
        retirement's RVFI fields are appended to it as one row, with
        ``rs1_rdata``/``rs2_rdata`` read from the core's register-file
        read-port data signals.
        """
        rtl = self.rtl
        csr = self.csr
        soc = self.soc
        intr = 0
        pc = rtl.get("pc")
        if soc is not None:
            csr.set_pending(soc.irq_lines(order))
            cause = csr.pending_cause()
            if cause is not None:
                # Arbitrated interrupt entry between retirements,
                # identical to the golden ISS: redirect to the handler,
                # latch mepc/mcause (the hardware CSR registers, via the
                # shared CsrFile).  The intr column carries the
                # arbitrated exception code.
                pc = csr.take_interrupt(cause, pc)
                rtl.env["pc"] = pc
                intr = cause & 0x3F
        word = self.memory.fetch(pc)

        cls = _WORD_CLASS.get(word)
        if cls is None:
            cls = _classify_word(word)
        if cls == 3:
            # RV32E register-bound violation: the datapath would truncate
            # the register field, so trap/refuse harness-side (PR 5 fix).
            return self._retire_illegal(order, sink, pc, word, intr)
        if self._trap_hw and cls == 1:
            return self._retire_emulated(order, sink, pc, word, intr)

        rtl.set_inputs(imem_rdata=word, dmem_rdata=0)
        rtl.eval_comb()
        if rtl.get("illegal"):
            return self._retire_illegal(order, sink, pc, word, intr)
        reading = bool(rtl.get("dmem_re"))
        load_addr = mem_word = 0
        if reading:
            load_addr = rtl.get("dmem_addr")
            mem_word = self.memory.load(load_addr & ~0x3, 4, signed=False)
            rtl.set_inputs(dmem_rdata=mem_word)
            rtl.eval_comb()

        wstrb = rtl.get("dmem_wstrb")
        mem_addr = mem_wmask = mem_wdata = 0
        halted = False
        reason = ""
        if wstrb:
            addr = rtl.get("dmem_addr")
            base = addr & ~0x3
            wdata = rtl.get("dmem_wdata")
            width = _WSTRB_WIDTH.get(wstrb)
            if width is None:
                raise SimulationError(f"malformed dmem_wstrb {wstrb:#06b}")
            offset = (wstrb & -wstrb).bit_length() - 1
            mem_addr = base + offset
            mem_wmask = (1 << width) - 1
            mem_wdata = (wdata >> (8 * offset)) & ((1 << (8 * width)) - 1)
            try:
                self.memory.store(mem_addr, mem_wdata, width)
            except PowerOffSignal as sig:
                self._poweroff_code = sig.exit_code
                halted, reason = True, "poweroff"
            if soc is not None:
                soc.rebase(order)   # honour firmware writes to MTIME

        trapped = 0
        if self._trap_hw and rtl.get("trap"):
            # Hardware ecall/ebreak trap entry: mepc/mcause latch at the
            # tick below; mirror the mstatus/mtval side in the shadow.
            csr.stack_interrupt_enable()
            csr.mtval = 0
            trapped = 1
        elif self._trap_hw and cls == 2:
            csr.unstack_interrupt_enable()

        if not halted and bool(rtl.get("halt")):
            halted = True
            reason = _halt_reason(word)
        if sink is not None:
            mem_rmask = mem_rdata = 0
            if reading:
                mem_addr, mem_rmask, mem_rdata = _trace_load_fields(
                    word, load_addr, mem_word)
            we = rtl.get("rf_we")
            waddr = rtl.get("rf_waddr") if we else 0
            # Source operands as the core's read ports delivered them.
            (rs1_addr, rs1_data), (rs2_addr, rs2_data) = \
                self.core.regfile.read_ports
            sink.append_row(
                order, word, pc, rtl.get("next_pc"), rtl.get(rs1_addr),
                rtl.get(rs2_addr), rtl.get(rs1_data), rtl.get(rs2_data),
                waddr, rtl.get("rf_wdata") if we and waddr else 0,
                mem_addr, mem_rmask, mem_wmask, mem_rdata, mem_wdata,
                trapped, intr)
        rtl.tick()
        return halted, reason

    def _wfi_resume(self, order: int) -> bool:
        """Shared ``wfi`` wake rule (see ``GoldenSim._wfi_resume``):
        fast-forward to the next *enabled* source edge regardless of
        ``mstatus.MIE``; False = nothing armed, end the run cleanly."""
        wake = self.csr.wfi_wake_mask()
        if self.soc is None or not wake:
            return False
        return self.soc.skip_to_event(order + 1, wake)

    def _retire_emulated(self, order: int, sink: RvfiTrace | None, pc: int,
                         word: int, intr: int) -> tuple[bool, str]:
        """Testbench-side retirement of a Zicsr/wfi instruction: same
        :func:`repro.isa.spec.step` semantics as the golden ISS, operating
        on the hardware CSR registers.  The RTL datapath is not clocked —
        architecturally the instruction retires in one cycle like any
        other — so ``rs1`` comes from the harness's copy of the register
        file, not from a read port."""
        instr = decode(word)
        rs1_is_reg = not instr.definition.csr_uimm
        rs1 = self._read_rf(instr.rs1) if rs1_is_reg else 0
        try:
            effects = step(instr, pc, rs1, 0, csr=self.csr.read)
            if effects.csr_write is not None:
                # Inside the try: a write to a read-only CSR traps as
                # illegal with no architectural side effects.
                self.csr.write(*effects.csr_write)
        except CsrError:
            if self.csr.traps_enabled:
                return self._retire_trap(order, sink, pc, word, intr)
            raise SimulationError(
                f"{instr.mnemonic} at {pc:#x}: illegal CSR access "
                f"(csr {instr.imm:#x})") from None
        halted = effects.is_wfi and not self._wfi_resume(order)
        if effects.rd is not None and self.rtl.regfile_data is not None:
            self.rtl.regfile_data[effects.rd] = effects.rd_data
        self.rtl.env["pc"] = effects.next_pc
        if sink is not None:
            sink.append_row(
                order, word, pc, effects.next_pc,
                instr.rs1 if rs1_is_reg else 0, 0, rs1, 0,
                effects.rd or 0, effects.rd_data if effects.rd else 0,
                0, 0, 0, 0, 0, 0, intr)
        return halted, "wfi" if halted else ""

    def _retire_illegal(self, order: int, sink: RvfiTrace | None, pc: int,
                        word: int, intr: int) -> tuple[bool, str]:
        """Retire an instruction the RTL flags illegal: trap entry when a
        handler is installed, simulator refusal otherwise (shared by the
        per-cycle and fused paths so messages and timing agree)."""
        if self._trap_hw and self.csr.traps_enabled:
            return self._retire_trap(order, sink, pc, word, intr)
        raise SimulationError(
            f"unsupported instruction {word:#010x} at {pc:#x} "
            f"(subset: {self.core.meta.get('mnemonics')})")

    def _retire_trap(self, order: int, sink: RvfiTrace | None, pc: int,
                     word: int, intr: int) -> tuple[bool, str]:
        """Illegal-instruction trap entry (harness-side: the RTL slice
        only traps ecall/ebreak in hardware)."""
        target = self.csr.trap_enter(CAUSE_ILLEGAL_INSTRUCTION, pc, word)
        self.rtl.env["pc"] = target
        if sink is not None:
            sink.append_row(order, word, pc, target, 0, 0, 0, 0, 0, 0,
                            trap=1, intr=intr)
        return False, ""

    def _read_rf(self, index: int) -> int:
        if self.rtl.regfile_data is None or index == 0:
            return 0
        return self.rtl.regfile_data[index]

    # ------------------------------------------------------ fused fast path
    #
    # The callbacks below are the only Python the generated run_cycles loop
    # calls back into: MMIO/device traffic, traps/interrupts, emulated
    # system instructions and halt classification.  Each one replicates the
    # corresponding _cycle branch exactly (same CSR syncing, same
    # exceptions); the generated code flushes loop-carried register locals
    # into rtl.env before any callback that can read or write CSR state
    # through _HwCsrFile, and reloads them after.

    def _fused_context(self) -> dict:
        ctx = self._fused_ctx
        if ctx is None:
            memory = self.memory
            ctx = self._fused_ctx = {
                "env": self.rtl.env,
                "regfile": self.rtl.regfile_data,
                "mem": memory.raw,
                "ram_size": memory.direct_size,
                "fetch": memory.fetch,
                "load_mmio": self._fused_load_slow,
                "store_mmio": self._fused_store_slow,
                "illegal": self._fused_illegal,
                "halt_reason": _halt_reason,
                "trace_load": _trace_load_fields,
                "wclass": _WORD_CLASS,
                "classify": _classify_word,
                "emulated": self._fused_emulated,
                "mret": self._fused_mret,
                "hw_trap": self._fused_hw_trap,
                "fire_index": self._fused_fire_index,
                "take_interrupt": self._fused_take_interrupt,
            }
        return ctx

    def _fused_fire_index(self) -> int:
        """Retirement index of the next arbitrated interrupt (NEVER when
        no SoC is attached or no source can fire) — the fused loop's
        entire per-cycle interrupt cost is one compare against this."""
        if self.soc is None:
            return NEVER
        return self.soc.fire_index(self.csr)

    def _fused_take_interrupt(self, order: int, pc: int) -> tuple[int, int]:
        """Arbitrated interrupt entry; returns ``(handler_pc, intr_code)``
        — the generated loop stamps the code into the RVFI intr column."""
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["fused.exit.interrupt"] += 1
        csr = self.csr
        csr.set_pending(self.soc.irq_lines(order))
        cause = csr.pending_cause()
        return csr.take_interrupt(cause, pc), cause & 0x3F

    def _fused_mret(self) -> None:
        """Harness side of an ``mret`` retirement (interrupt-enable
        unstack; the pc redirect happens in the generated loop)."""
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["fused.exit.mret"] += 1
        self.csr.unstack_interrupt_enable()

    def _fused_emulated(self, order: int, pc: int, word: int,
                        intr: int) -> tuple[bool, str]:
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["fused.exit.emulated"] += 1
        if self.soc is not None:
            # The per-cycle path syncs the clock and the mip levels at the
            # top of every cycle; the fused loop only needs them fresh
            # where they are observable — a csrr of mip, wfi fast-forward.
            self.csr.set_pending(self.soc.irq_lines(order))
        return self._retire_emulated(order, self._fused_sink, pc, word,
                                     intr)

    def _fused_illegal(self, order: int, pc: int, word: int,
                       intr: int) -> None:
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["fused.exit.illegal"] += 1
        self._retire_illegal(order, self._fused_sink, pc, word, intr)

    def _fused_hw_trap(self) -> None:
        """Harness side of a hardware ecall/ebreak trap entry (mepc/mcause
        latch in the generated tick)."""
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["fused.exit.hw_trap"] += 1
        self.csr.stack_interrupt_enable()
        self.csr.mtval = 0

    def _fused_load_slow(self, order: int, addr: int) -> int:
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["fused.exit.mmio_load"] += 1
        if self.soc is not None:
            self.soc.sync(order)
        return self.memory.load(addr, 4, signed=False)

    def _fused_store_slow(self, order: int, addr: int, value: int,
                          width: int) -> bool:
        """Out-of-RAM store (device window or fault); True ends the run
        as a poweroff."""
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["fused.exit.mmio_store"] += 1
        soc = self.soc
        if soc is not None:
            soc.sync(order)
        try:
            self.memory.store(addr, value, width)
        except PowerOffSignal as sig:
            self._poweroff_code = sig.exit_code
            return True
        if soc is not None:
            soc.rebase(order)   # honour firmware writes to MTIME
        return False

    def _fused_run(self, count: int, limit: int,
                   trace: RvfiTrace | None) -> tuple[bool, str, int]:
        """Drive the fused loop from retirement ``count`` up to ``limit``.

        State persists in ``rtl.env``/``regfile_data`` between calls, so
        runs are resumable (the chunked cosimulation uses this) and
        peek/poke fault injection between calls behaves exactly like the
        interpreter.  Combinational signals are not settled after the
        run: a probe drives ``rtl.set_inputs``/``rtl.eval_comb`` first,
        as on the interpreter.
        """
        self._fused_sink = trace
        sink = trace.row_sink() if trace is not None else None
        active = _obs._ACTIVE
        if active is not None:
            # Decode-cache stats from the shared per-word cache's growth
            # (misses are exact; lookups are counted as retirements,
            # which over-counts probes — emulated Zicsr/wfi and
            # RV32E-bound words never probe the cache — so the derived
            # hit rate is an upper bound).  Nothing is injected into the
            # generated loop itself.
            dcache = self._fused.namespace.get("_DCACHE")
            words_before = len(dcache) if dcache is not None else 0
        try:
            halted, reason, retired = self._fused.run_cycles(
                self._fused_context(), count, limit, sink)
        finally:
            self._fused_sink = None
        if active is None:
            return halted, reason, retired
        counters = active.counters
        counters["fused.runs"] += 1
        counters["fused.retired"] += retired - count
        counters["decode_cache.lookups"] += retired - count
        if dcache is not None:
            counters["decode_cache.misses"] += len(dcache) - words_before
        if halted:
            counters["fused.exit.halt"] += 1
        return halted, reason, retired

    def _advance(self, count: int, limit: int,
                 trace: RvfiTrace | None) -> tuple[bool, str, int]:
        """Retire from ``count`` up to ``limit`` (or a halt) on this sim's
        backend; returns ``(halted, reason, count)``."""
        if self._fused is not None:
            return self._fused_run(count, limit, trace)
        halted, reason = False, ""
        while count < limit and not halted:
            halted, reason = self._cycle(count, trace)
            count += 1
        return halted, reason, count

    def run(self, max_instructions: int = 2_000_000) -> RunResult:
        """Run to halt; single-cycle core, so cycles == instructions."""
        trace = RvfiTrace(capacity=self._trace_capacity) \
            if self._trace_enabled else None
        halted, reason, count = self._advance(0, max_instructions, trace)
        halted_by = (reason or "ecall") if halted else "limit"
        exit_code = self._poweroff_code if halted_by == "poweroff" \
            else self._read_rf(10)
        return RunResult(exit_code=exit_code, instructions=count,
                         cycles=count, halted_by=halted_by,
                         trace=trace if trace is not None else [])


@dataclass
class CosimMismatch:
    """First divergence between RISSP RTL and the golden ISS."""

    index: int
    field: str
    rtl_value: int
    golden_value: int


def cosimulate(core: Module, program: Program,
               max_instructions: int = 2_000_000,
               golden_trace_out: RvfiTrace | None = None,
               backend: str | None = None,
               soc: "object | None" = None,
               rtl_trace_out: RvfiTrace | None = None
               ) -> CosimMismatch | None:
    """Lock-step compare RISSP RTL execution against the golden ISS.

    Returns None only when the run matches *through the halting
    instruction*; exhausting ``max_instructions`` without a halt is
    reported as a ``"limit"`` pseudo-mismatch so a matching prefix is never
    mistaken for full verification.  Every retired instruction's PC,
    writeback, memory effect (read *and* write side) and trap/interrupt
    flags must agree.

    One loop on both backends.  Each chunk, the RTL side retires up to a
    chunk of rows (``RisspSim._advance``: the fused loop or the
    interpreter's ``_cycle``); the golden reference then records exactly
    as many through ``GoldenSim.run_chunk`` (fewer when it halts or
    refuses first), each side into its own :class:`RvfiTrace`, and
    :func:`_chunk_mismatch` compares the two traces by column.  A chunk
    is :data:`COSIM_CHUNK` rows on the fused backend and one row on the
    interpreter, so the golden side may run at most one chunk past a
    divergence and an oracle run stops at the divergent row.  The
    verdict: the first divergence is the lowest retirement index whose
    fields or halt flags differ, reported with the first differing field
    in :data:`COSIM_FIELDS` order (``"halt"`` when only the halt flags
    differ).  A refusal (SimulationError/MemoryError_) on the RTL side
    ends its chunk and is raised only when every row retired before it
    compared clean; a golden refusal ends the golden chunk early, so it
    loses to a divergence among the rows it did retire and wins over any
    later RTL refusal.

    ``golden_trace_out`` and ``rtl_trace_out``, :class:`RvfiTrace` sinks,
    when given, receive exactly the compared rows of their side: through
    the divergent index on a mismatch, the rows before a refusal, every
    row on a clean run.  A caller that spec-checks the core's own
    retirements (:func:`repro.verify.rvfi.check_trace`, as
    :meth:`repro.core.flow.RisspFlow.generate` does) reuses
    ``rtl_trace_out`` instead of paying for a second traced RTL run.

    ``backend`` forces the RTL evaluator backend (``"fused"`` or
    ``"interpreter"``); the default follows :class:`RtlSim`.  On
    ``"fused"`` a core without the fused harness interface raises
    :class:`~repro.rtl.ir.IrError` before either side runs.  ``soc``
    attaches a :class:`~repro.soc.SocSpec` — each side instantiates its
    own device set from it, so lock-step covers MMIO and interrupt timing.
    """
    from ..sim.golden import GoldenSim

    rtl = RisspSim(core, program, trace=True, backend=backend, soc=soc)
    gold = GoldenSim(program, trace=True, soc=soc)
    field_slots = [RvfiTrace.FIELDS.index(name) for name in COSIM_FIELDS]
    # One-row chunks on the interpreter: running it a chunk past a
    # divergence would multiply the cost of every mutant on the oracle.
    chunk_len = COSIM_CHUNK if rtl._fused is not None else 1
    order = 0
    while order < max_instructions:
        chunk = RvfiTrace()
        refusal = None
        rtl_halted = False
        try:
            rtl_halted, _, _ = rtl._advance(
                order, min(order + chunk_len, max_instructions), chunk)
        except (SimulationError, MemoryError_) as exc:
            refusal = exc
        gold_chunk = RvfiTrace()
        gold_halted = False
        try:
            gold_halted, _, _ = gold.run_chunk(order, order + len(chunk),
                                               gold_chunk)
        except (SimulationError, MemoryError_, SpecError) as exc:
            refusal = exc
        mismatch = _chunk_mismatch(order, chunk, gold_chunk, rtl_halted,
                                   gold_halted, field_slots)
        # The compared rows: through the divergent one, else every row
        # the golden side retired (all of the chunk's unless it refused).
        compared = len(gold_chunk) if mismatch is None \
            else mismatch.index - order + 1
        for out, side in ((golden_trace_out, gold_chunk),
                          (rtl_trace_out, chunk)):
            if out is None:
                continue
            if compared == len(side):
                out.extend(side)
            else:
                record = out.row_sink()
                for row in islice(side.rows(), compared):
                    record(row)
        if mismatch is not None:
            return mismatch
        if refusal is not None:
            raise refusal
        if rtl_halted:
            return None
        order += len(chunk)
    return CosimMismatch(max_instructions, "limit", 0, 0)


#: Retirements per fused-cosimulation chunk: bounds both sides' trace
#: buffers, and how far either side can run past a divergence before the
#: chunk's rows are compared.
COSIM_CHUNK = 4096


def _chunk_mismatch(order: int, chunk: RvfiTrace, gold_chunk: RvfiTrace,
                    rtl_halted: bool, gold_halted: bool,
                    field_slots: list[int]) -> CosimMismatch | None:
    """First divergence between one chunk's RTL rows and the golden rows
    recorded over the same span (a prefix of it when the golden side
    halted or refused early), or None when every golden row matches.

    The :data:`COSIM_FIELDS` columns are compared as whole lists; only a
    column that differs is scanned for its first differing index.  Each
    side's halt flag belongs to its last row.  The lowest divergent index
    is reported with its first differing field, or as ``"halt"`` when
    only the halt flags differ there.
    """
    rows = len(gold_chunk)
    rtl_last = len(chunk) - 1
    # The golden side never retires past the RTL chunk, so the two halt
    # flags can only disagree at the golden side's last row.
    first = rows - 1 if gold_halted != (rtl_halted and rtl_last == rows - 1) \
        else rows
    for name in COSIM_FIELDS:
        rtl_column = chunk.column(name)
        gold_column = gold_chunk.column(name)
        if rtl_column != gold_column:
            first = min(first, next(
                compress(count(), map(ne, rtl_column, gold_column)), first))
    if first == rows:
        return None
    rtl_row = chunk.row(first)
    gold_row = gold_chunk.row(first)
    for slot, name in zip(field_slots, COSIM_FIELDS):
        if rtl_row[slot] != gold_row[slot]:
            return CosimMismatch(order + first, name, rtl_row[slot],
                                 gold_row[slot])
    return CosimMismatch(order + first, "halt",
                         int(rtl_halted and first == rtl_last),
                         int(gold_halted and first == rows - 1))
