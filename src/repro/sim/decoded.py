"""Decoded-program cache: the shared fast-execution substrate.

Every simulator in the repo (golden ISS, Serv timing model, RISSP RTL
harness) used to re-decode the instruction word at every retirement — the
dominant cost of the interpreter stack (~0.19 MIPS at the seed).  This
module memoizes the per-*address* work once per static instruction:

* :class:`DecodedImage` lazily maps a text address to a :class:`DecodedOp`
  holding the fetched word, the decoded :class:`~repro.isa.encoding.Instruction`,
  a precompiled executor closure from :func:`repro.isa.spec.compile_step`
  (immediates pre-extracted, format dispatch hoisted out of the inner
  loop), its recording form from :func:`repro.isa.spec.compile_recorder`,
  and the static classification the Serv cycle model needs — so
  per-instruction cycle costs are computed at decode time, not per step.
* Entries are **invalidated on stores into cached text**: compiled store
  closures call back into :meth:`DecodedImage.invalidate`, and the golden
  ISS's reflective path does the same, so self-modifying programs
  (including the self-patched halt-stub region) re-decode transparently.
  RISC-V stores are width-aligned and therefore never straddle a word, so
  invalidating the single covering word is exact.

Lazy decoding preserves the seed's error envelope: a data word is only
rejected as an illegal instruction if the pc actually reaches it, and
register-bound (RV32E) violations surface on first execution.
"""

from __future__ import annotations

from ..isa.encoding import DecodeError, decode
from ..isa.instructions import BRANCHES, LOADS, STORES
from ..isa.registers import RV32E_NUM_REGS
from ..isa.spec import compile_recorder, compile_step


class SimulationError(Exception):
    """Raised when execution leaves the architected envelope."""


class DecodedOp:
    """One static instruction: decoded fields plus its compiled executor."""

    __slots__ = ("pc", "word", "instr", "execute",
                 "is_mem", "is_branch", "is_jump")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecodedOp(pc={self.pc:#x}, {self.instr})"


class DecodedImage:
    """Lazy text-address -> :class:`DecodedOp` cache over one memory.

    ``executors`` and ``recorders`` mirror the cache as bare
    ``pc -> closure`` dicts so hot loops can dispatch with a single
    dictionary probe; both are kept in sync by :meth:`get` and
    :meth:`invalidate`.
    """

    def __init__(self, memory):
        self.memory = memory
        self._ops: dict[int, DecodedOp] = {}
        self.executors: dict[int, object] = {}
        self.recorders: dict[int, object] = {}

    def get(self, pc: int) -> DecodedOp:
        """Return the decoded op at ``pc``, compiling it on first use."""
        op = self._ops.get(pc)
        if op is None:
            op = self._compile(pc)
        return op

    def invalidate(self, addr: int) -> None:
        """Drop the cached entry whose word covers byte address ``addr``."""
        base = addr & ~0x3 & 0xFFFFFFFF
        if self._ops.pop(base, None) is not None:
            self.executors.pop(base, None)
            self.recorders.pop(base, None)

    def _compile(self, pc: int) -> DecodedOp:
        word = self.memory.fetch(pc)
        try:
            instr = decode(word)
        except DecodeError as exc:
            raise SimulationError(
                f"illegal instruction at {pc:#x}: {exc}") from exc
        # The Zicsr immediate forms carry a 5-bit uimm in the rs1 field —
        # not a register number, so it is exempt from the RV32E bound.
        rs1_is_reg = not instr.definition.csr_uimm
        if instr.rd >= RV32E_NUM_REGS \
                or (rs1_is_reg and instr.rs1 >= RV32E_NUM_REGS) \
                or instr.rs2 >= RV32E_NUM_REGS:
            raise SimulationError(
                f"{instr.mnemonic} at {pc:#x} uses registers outside RV32E")
        op = DecodedOp()
        op.pc = pc
        op.word = word
        op.instr = instr
        mnemonic = instr.mnemonic
        op.is_mem = mnemonic in LOADS or mnemonic in STORES
        op.is_branch = mnemonic in BRANCHES
        op.is_jump = mnemonic in ("jal", "jalr")
        op.execute = compile_step(instr, store_hook=self.invalidate)
        self._ops[pc] = op
        self.executors[pc] = op.execute
        self.recorders[pc] = compile_recorder(instr, word,
                                              store_hook=self.invalidate)
        return op
