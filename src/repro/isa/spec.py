"""Executable specification of RV32I/E instruction semantics.

Each instruction's architectural effect is a *pure function* of the program
counter, the decoded fields, the source register values, and (for loads) a
memory-read callback.  The golden ISS, the per-instruction hardware-block
verifier (architecture-test and operand-lattice vectors) and the RVFI trace
checker all consume this single spec — it plays the role the RISC-V ISA manual plays for
the paper's SVA assertions.

Three execution interfaces are offered over the same semantic tables:

* :func:`step` — the reflective form: decode fields in, :class:`Effects`
  out.  Used wherever per-retirement introspection is needed (trace
  checking, block testbenches, the golden ISS's slow path and oracle).
* :func:`compile_step` — the compiled form: specialize one *static*
  instruction into a closure ``(regs, memory, pc) -> next_pc`` with the
  immediate pre-extracted and all format/mnemonic dispatch hoisted out of
  the inner loop.  The simulators' hot paths execute these (see
  :mod:`repro.sim.decoded`).
* :func:`compile_recorder` — the recording form: the compiled closure
  plus the retirement's full RVFI row, appended to a trace sink.  The
  golden ISS records reference traces with these.

All three share ``_ALU_OPS``/``_BRANCH_TAKEN`` and the width tables
below, so they cannot drift apart on semantics.  Two consumers outside
this module read the tables too: the RTL harness takes a traced load's
width from ``_LOAD_WIDTH`` (:mod:`repro.rtl.core_sim`), and the RVFI
checker builds its per-word compiled check arms from ``_ALU_OPS``,
``_IMM_TO_ALU``, ``_BRANCH_TAKEN``, ``_LOAD_WIDTH`` and ``_STORE_WIDTH``
(:mod:`repro.verify.rvfi`), keeping :func:`step` as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bits import to_s32, to_u32
from .csrs import MEPC as _MEPC
from .encoding import Instruction

#: Memory read callback: (address, width_bytes, signed) -> value.
LoadFn = Callable[[int, int, bool], int]

#: CSR read callback: (csr_address) -> current value.  The spec never
#: applies CSR writes itself — they come back as an :class:`Effects`
#: ``csr_write`` for the simulator to commit, mirroring ``mem_write``.
CsrFn = Callable[[int], int]


@dataclass(frozen=True)
class MemWrite:
    """A store effect: ``width`` bytes of ``data`` at ``addr``."""

    addr: int
    data: int
    width: int


@dataclass(frozen=True)
class Effects:
    """Architectural effects of retiring one instruction.

    ``rd`` is None when no register is written (branches, stores and writes
    to x0 — the spec canonicalises ``rd == x0`` to "no write" so consumers
    never have to special-case the zero register).

    ``csr_write`` is ``(csr_address, new_value)`` for Zicsr instructions
    that perform a write; ``is_mret``/``is_wfi`` flag the system
    instructions whose remaining effects (mstatus stacking, timer
    fast-forward) live in the simulator's trap unit, not the pure spec.
    """

    next_pc: int
    rd: int | None = None
    rd_data: int | None = None
    mem_write: MemWrite | None = None
    halt: bool = False      # ecall/ebreak halt (or trap, when mtvec is set)
    is_ecall: bool = False
    csr_write: tuple[int, int] | None = None
    is_mret: bool = False
    is_wfi: bool = False


class SpecError(ValueError):
    """Raised for misaligned control transfers or unknown mnemonics."""


_ALU_OPS: dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a << (b & 31),
    "slt": lambda a, b: 1 if to_s32(a) < to_s32(b) else 0,
    "sltu": lambda a, b: 1 if to_u32(a) < to_u32(b) else 0,
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: to_u32(a) >> (b & 31),
    "sra": lambda a, b: to_s32(a) >> (b & 31),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
}

#: op-imm mnemonics mapped to their register-register ALU function.
_IMM_TO_ALU = {
    "addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor",
    "ori": "or", "andi": "and", "slli": "sll", "srli": "srl", "srai": "sra",
}

_BRANCH_TAKEN: dict[str, Callable[[int, int], bool]] = {
    "beq": lambda a, b: to_u32(a) == to_u32(b),
    "bne": lambda a, b: to_u32(a) != to_u32(b),
    "blt": lambda a, b: to_s32(a) < to_s32(b),
    "bge": lambda a, b: to_s32(a) >= to_s32(b),
    "bltu": lambda a, b: to_u32(a) < to_u32(b),
    "bgeu": lambda a, b: to_u32(a) >= to_u32(b),
}

_LOAD_WIDTH = {"lb": (1, True), "lh": (2, True), "lw": (4, True),
               "lbu": (1, False), "lhu": (2, False)}
_STORE_WIDTH = {"sb": 1, "sh": 2, "sw": 4}

#: Zicsr write rules: mnemonic -> (new_value(old, src), writes(src_field)).
#: Per the spec, csrrs/csrrc with rs1=x0 (or uimm=0) read without writing.
_CSR_RULES: dict[str, tuple[Callable[[int, int], int],
                            Callable[[int], bool]]] = {
    "csrrw": (lambda old, src: src, lambda field: True),
    "csrrs": (lambda old, src: old | src, lambda field: field != 0),
    "csrrc": (lambda old, src: old & ~src, lambda field: field != 0),
}
_CSR_RULES["csrrwi"] = _CSR_RULES["csrrw"]
_CSR_RULES["csrrsi"] = _CSR_RULES["csrrs"]
_CSR_RULES["csrrci"] = _CSR_RULES["csrrc"]
_CSR_IMM_FORMS = ("csrrwi", "csrrsi", "csrrci")


def _wr(rd: int, value: int) -> tuple[int | None, int | None]:
    """Canonicalise a register write: x0 writes are dropped."""
    if rd == 0:
        return None, None
    return rd, to_u32(value)


def step(instr: Instruction, pc: int, rs1_val: int, rs2_val: int,
         load: LoadFn | None = None, csr: CsrFn | None = None) -> Effects:
    """Compute the architectural effects of ``instr`` executing at ``pc``.

    ``rs1_val``/``rs2_val`` are the current source register values (ignored
    by formats that do not read them).  ``load`` is required for loads
    only; ``csr`` is required for Zicsr instructions and ``mret`` only.
    """
    m = instr.mnemonic
    pc = to_u32(pc)
    seq_pc = to_u32(pc + 4)

    if m in _ALU_OPS:
        rd, data = _wr(instr.rd, _ALU_OPS[m](rs1_val, rs2_val))
        return Effects(seq_pc, rd, data)
    if m in _IMM_TO_ALU:
        rd, data = _wr(instr.rd, _ALU_OPS[_IMM_TO_ALU[m]](rs1_val, instr.imm))
        return Effects(seq_pc, rd, data)
    if m in _BRANCH_TAKEN:
        taken = _BRANCH_TAKEN[m](rs1_val, rs2_val)
        target = to_u32(pc + instr.imm) if taken else seq_pc
        if target & 0x3:
            raise SpecError(f"misaligned branch target {target:#x}")
        return Effects(target)
    if m in _LOAD_WIDTH:
        if load is None:
            raise SpecError("load semantics require a memory callback")
        width, signed = _LOAD_WIDTH[m]
        addr = to_u32(rs1_val + instr.imm)
        rd, data = _wr(instr.rd, load(addr, width, signed))
        return Effects(seq_pc, rd, data)
    if m in _STORE_WIDTH:
        width = _STORE_WIDTH[m]
        addr = to_u32(rs1_val + instr.imm)
        mask = (1 << (8 * width)) - 1
        return Effects(seq_pc,
                       mem_write=MemWrite(addr, to_u32(rs2_val) & mask, width))
    if m == "lui":
        rd, data = _wr(instr.rd, instr.imm)
        return Effects(seq_pc, rd, data)
    if m == "auipc":
        rd, data = _wr(instr.rd, pc + instr.imm)
        return Effects(seq_pc, rd, data)
    if m == "jal":
        target = to_u32(pc + instr.imm)
        if target & 0x3:
            raise SpecError(f"misaligned jal target {target:#x}")
        rd, data = _wr(instr.rd, seq_pc)
        return Effects(target, rd, data)
    if m == "jalr":
        target = to_u32(rs1_val + instr.imm) & ~1
        if target & 0x3:
            raise SpecError(f"misaligned jalr target {target:#x}")
        rd, data = _wr(instr.rd, seq_pc)
        return Effects(target, rd, data)
    if m == "fence":
        return Effects(seq_pc)
    if m == "ecall":
        return Effects(seq_pc, halt=True, is_ecall=True)
    if m == "ebreak":
        return Effects(seq_pc, halt=True)
    if m in _CSR_RULES:
        if csr is None:
            raise SpecError("csr semantics require a csr callback")
        new_value, writes = _CSR_RULES[m]
        addr = instr.imm & 0xFFF
        src = instr.rs1 if m in _CSR_IMM_FORMS else to_u32(rs1_val)
        src_field = instr.rs1
        old = to_u32(csr(addr))
        rd, data = _wr(instr.rd, old)
        write = ((addr, new_value(old, src) & 0xFFFFFFFF)
                 if writes(src_field) else None)
        return Effects(seq_pc, rd, data, csr_write=write)
    if m == "mret":
        if csr is None:
            raise SpecError("mret semantics require a csr callback")
        target = to_u32(csr(_MEPC)) & ~0x3
        return Effects(target, is_mret=True)
    if m == "wfi":
        return Effects(seq_pc, is_wfi=True)
    raise SpecError(f"no semantics for mnemonic {m!r}")


#: Sentinel ``next_pc`` values returned by compiled executors on a halting
#: instruction (real next-pc values are unsigned, so negatives are free).
HALT_ECALL = -1
HALT_EBREAK = -2
#: Sentinel for system instructions whose semantics need machine state the
#: executor cannot see (CSR file, trap unit, timer): csrr*, mret, wfi.
#: The simulator's run loop retires them through :func:`step` instead —
#: they are rare (trap setup and handler entry/exit), so the fast path
#: stays free of per-retirement CSR plumbing and the *interrupt check
#: happens per retirement in the loop*, never baked into a compiled
#: executor.
DEFER_SYSTEM = -3

_M32 = 0xFFFFFFFF

#: A compiled executor: ``(regs, memory, pc) -> next_pc`` where ``regs`` is
#: the register-file list (``regs[0]`` pinned to 0), ``memory`` provides
#: ``load(addr, width, signed)`` / ``store(addr, value, width)``, and the
#: return value is the unsigned next pc — or :data:`HALT_ECALL` /
#: :data:`HALT_EBREAK` when the instruction halts the machine.
Executor = Callable[[list, object, int], int]


def compile_step(instr: Instruction,
                 store_hook: Callable[[int], None]) -> Executor:
    """Specialize ``instr`` into a closure executing its semantics in place.

    The closure mutates ``regs`` and ``memory`` directly and returns the
    next pc, exactly mirroring :func:`step` + effect application but with
    zero per-retirement decode, dispatch or :class:`Effects` allocation.
    Writes to ``x0`` are dropped at compile time; loads to ``x0`` still
    perform the access so faults surface identically to :func:`step`.

    ``store_hook`` is called with the effective address after every store
    the closure performs — the decoded-program cache uses it to invalidate
    entries covering self-modified text.
    """
    m = instr.mnemonic
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm

    if m in _ALU_OPS:
        if rd == 0:
            return lambda regs, memory, pc: pc + 4
        op = _ALU_OPS[m]

        def ex_alu(regs, memory, pc):
            regs[rd] = op(regs[rs1], regs[rs2]) & _M32
            return pc + 4
        return ex_alu

    if m in _IMM_TO_ALU:
        if rd == 0:
            return lambda regs, memory, pc: pc + 4
        op = _ALU_OPS[_IMM_TO_ALU[m]]

        def ex_alu_imm(regs, memory, pc):
            regs[rd] = op(regs[rs1], imm) & _M32
            return pc + 4
        return ex_alu_imm

    if m in _BRANCH_TAKEN:
        cond = _BRANCH_TAKEN[m]

        def ex_branch(regs, memory, pc):
            if cond(regs[rs1], regs[rs2]):
                target = (pc + imm) & _M32
                if target & 0x3:
                    raise SpecError(f"misaligned branch target {target:#x}")
                return target
            return pc + 4
        return ex_branch

    if m in _LOAD_WIDTH:
        width, signed = _LOAD_WIDTH[m]
        if rd == 0:
            def ex_load_x0(regs, memory, pc):
                memory.load((regs[rs1] + imm) & _M32, width, signed)
                return pc + 4
            return ex_load_x0

        def ex_load(regs, memory, pc):
            regs[rd] = memory.load((regs[rs1] + imm) & _M32, width, signed)
            return pc + 4
        return ex_load

    if m in _STORE_WIDTH:
        width = _STORE_WIDTH[m]
        mask = (1 << (8 * width)) - 1

        def ex_store(regs, memory, pc):
            addr = (regs[rs1] + imm) & _M32
            memory.store(addr, regs[rs2] & mask, width)
            store_hook(addr)
            return pc + 4
        return ex_store

    if m == "lui":
        if rd == 0:
            return lambda regs, memory, pc: pc + 4
        value = imm & _M32

        def ex_lui(regs, memory, pc):
            regs[rd] = value
            return pc + 4
        return ex_lui

    if m == "auipc":
        if rd == 0:
            return lambda regs, memory, pc: pc + 4

        def ex_auipc(regs, memory, pc):
            regs[rd] = (pc + imm) & _M32
            return pc + 4
        return ex_auipc

    if m == "jal":
        def ex_jal(regs, memory, pc):
            target = (pc + imm) & _M32
            if target & 0x3:
                raise SpecError(f"misaligned jal target {target:#x}")
            if rd:
                regs[rd] = (pc + 4) & _M32
            return target
        return ex_jal

    if m == "jalr":
        def ex_jalr(regs, memory, pc):
            target = (regs[rs1] + imm) & 0xFFFFFFFE
            if target & 0x3:
                raise SpecError(f"misaligned jalr target {target:#x}")
            if rd:
                regs[rd] = (pc + 4) & _M32
            return target
        return ex_jalr

    if m == "fence":
        return lambda regs, memory, pc: pc + 4
    if m == "ecall":
        return lambda regs, memory, pc: HALT_ECALL
    if m == "ebreak":
        return lambda regs, memory, pc: HALT_EBREAK
    if m in _CSR_RULES or m in ("mret", "wfi"):
        return lambda regs, memory, pc: DEFER_SYSTEM
    raise SpecError(f"no semantics for mnemonic {m!r}")


#: A recording executor: ``(regs, memory, pc, order, append) -> next_pc``.
#: It retires like an :data:`Executor`, then calls ``append`` — a trace's
#: :meth:`~repro.sim.tracing.RvfiTrace.row_sink` — once, with the
#: retirement's whole RVFI row as one ``FIELDS``-ordered 17-tuple,
#: ``order`` being its retirement index.  A negative return is the same
#: sentinel the :data:`Executor` returns, with no row.
Recorder = Callable[[list, object, int, int,
                     Callable[[tuple[int, ...]], None]], int]


def compile_recorder(instr: Instruction, word: int,
                     store_hook: Callable[[int], None]) -> Recorder:
    """The recording form of :func:`compile_step`.

    The closure retires ``instr`` (fetched as ``word``) exactly as the
    :func:`compile_step` closure does, and records the row the golden
    ISS's reflective retirement records for it: the source registers'
    values as read before any write, ``rd_addr``/``rd_wdata`` zero for no
    write or a write to x0, and both sides of the memory interface.  The
    row goes to ``append`` (a trace's ``row_sink``) as one 17-tuple, only
    after every check that can refuse the retirement (memory bounds and
    alignment, misaligned targets, an MMIO access the bus defers), so a
    refused retirement changes no state and records nothing.
    Instructions whose :func:`compile_step` closure returns a sentinel
    return the same sentinel here and record nothing.  ``store_hook`` is
    called with the address of every store, as for :func:`compile_step`.

    Writes to x0 are masked to zero rather than dropped: ``regs[0]`` is
    re-pinned to 0 and the row reports ``rd_wdata`` 0, with no branch.
    """
    m = instr.mnemonic
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    keep = _M32 if rd else 0

    if m in _ALU_OPS:
        op = _ALU_OPS[m]

        def rec_alu(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            value = op(a, b) & keep
            regs[rd] = value
            append((order, word, pc, pc + 4, rs1, rs2, a, b, rd, value,
                    0, 0, 0, 0, 0, 0, 0))
            return pc + 4
        return rec_alu

    if m in _IMM_TO_ALU:
        op = _ALU_OPS[_IMM_TO_ALU[m]]

        def rec_alu_imm(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            value = op(a, imm) & keep
            regs[rd] = value
            append((order, word, pc, pc + 4, rs1, rs2, a, b, rd, value,
                    0, 0, 0, 0, 0, 0, 0))
            return pc + 4
        return rec_alu_imm

    if m in _BRANCH_TAKEN:
        cond = _BRANCH_TAKEN[m]

        def rec_branch(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            if cond(a, b):
                target = (pc + imm) & _M32
                if target & 0x3:
                    raise SpecError(f"misaligned branch target {target:#x}")
            else:
                target = pc + 4
            append((order, word, pc, target, rs1, rs2, a, b, 0, 0,
                    0, 0, 0, 0, 0, 0, 0))
            return target
        return rec_branch

    if m in _LOAD_WIDTH:
        width, signed = _LOAD_WIDTH[m]
        rmask = (1 << width) - 1

        def rec_load(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            addr = (a + imm) & _M32
            data = memory.load(addr, width, signed)
            value = data & keep
            regs[rd] = value
            append((order, word, pc, pc + 4, rs1, rs2, a, b, rd, value,
                    addr, rmask, 0, data, 0, 0, 0))
            return pc + 4
        return rec_load

    if m in _STORE_WIDTH:
        width = _STORE_WIDTH[m]
        mask = (1 << (8 * width)) - 1
        wmask = (1 << width) - 1

        def rec_store(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            addr = (a + imm) & _M32
            data = b & mask
            memory.store(addr, data, width)
            store_hook(addr)
            append((order, word, pc, pc + 4, rs1, rs2, a, b, 0, 0,
                    addr, 0, wmask, 0, data, 0, 0))
            return pc + 4
        return rec_store

    if m == "lui":
        value = imm & keep

        def rec_lui(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            regs[rd] = value
            append((order, word, pc, pc + 4, rs1, rs2, a, b, rd, value,
                    0, 0, 0, 0, 0, 0, 0))
            return pc + 4
        return rec_lui

    if m == "auipc":
        def rec_auipc(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            value = (pc + imm) & keep
            regs[rd] = value
            append((order, word, pc, pc + 4, rs1, rs2, a, b, rd, value,
                    0, 0, 0, 0, 0, 0, 0))
            return pc + 4
        return rec_auipc

    if m == "jal":
        def rec_jal(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            target = (pc + imm) & _M32
            if target & 0x3:
                raise SpecError(f"misaligned jal target {target:#x}")
            link = (pc + 4) & keep
            regs[rd] = link
            append((order, word, pc, target, rs1, rs2, a, b, rd, link,
                    0, 0, 0, 0, 0, 0, 0))
            return target
        return rec_jal

    if m == "jalr":
        def rec_jalr(regs, memory, pc, order, append):
            a = regs[rs1]
            b = regs[rs2]
            target = (a + imm) & 0xFFFFFFFE
            if target & 0x3:
                raise SpecError(f"misaligned jalr target {target:#x}")
            link = (pc + 4) & keep
            regs[rd] = link
            append((order, word, pc, target, rs1, rs2, a, b, rd, link,
                    0, 0, 0, 0, 0, 0, 0))
            return target
        return rec_jalr

    if m == "fence":
        def rec_fence(regs, memory, pc, order, append):
            append((order, word, pc, pc + 4, rs1, rs2, regs[rs1], regs[rs2],
                    0, 0, 0, 0, 0, 0, 0, 0, 0))
            return pc + 4
        return rec_fence

    if m == "ecall":
        return lambda regs, memory, pc, order, append: HALT_ECALL
    if m == "ebreak":
        return lambda regs, memory, pc, order, append: HALT_EBREAK
    if m in _CSR_RULES or m in ("mret", "wfi"):
        return lambda regs, memory, pc, order, append: DEFER_SYSTEM
    raise SpecError(f"no semantics for mnemonic {m!r}")

