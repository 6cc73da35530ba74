"""Per-instruction test vectors: architecture tests and the operand lattice.

The paper extracts the per-instruction test cases from the RISC-V
Foundation Architecture Test Suite and replays them through custom
testbenches (Figure 4, step 2).  :func:`vectors_for` generates the same
class of directed vectors — operand corner values, walking patterns,
boundary immediates — and :func:`lattice_vectors` the bounded-exhaustive
operand lattice that stands in for the formal check (step 4).  Both
compute their expected results from the *independent* executable spec
(:mod:`repro.isa.spec`).  :func:`block_vectors` is their distinct union:
the one set :func:`repro.verify.testbench.verify_block` checks a block on
and the gate-level mutation campaign probes it with.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..isa.bits import sign_extend, to_u32
from ..isa.encoding import Instruction, encode
from ..isa.instructions import BRANCHES, BY_MNEMONIC, Format, LOADS, STORES
from ..isa.spec import Effects, step

#: Corner operand values exercised for every data input (SIG-style).
CORNER_VALUES = (
    0x0000_0000, 0x0000_0001, 0x0000_0002, 0xFFFF_FFFF, 0xFFFF_FFFE,
    0x7FFF_FFFF, 0x8000_0000, 0x8000_0001, 0x5555_5555, 0xAAAA_AAAA,
    0x0000_FFFF, 0xFFFF_0000, 0x0000_0010, 0x8000_0000 >> 3,
)

#: Immediate corners for 12-bit signed formats.
IMM12_CORNERS = (0, 1, -1, 2, -2, 16, -16, 2047, -2048, 1365, -1366)

#: Shift amounts for the shift group.
SHAMT_CORNERS = (0, 1, 4, 15, 16, 30, 31)

#: 20-bit upper-immediate corners (already shifted into bits 31:12).
IMM20_CORNERS = (0x0000_0000, 0x0000_1000, 0x7FFFF000, 0x80000000,
                 0xFFFFF000, 0x12345000)

_TEST_PC = 0x0000_0400
_MEM_BASE = 0x0001_0000

#: Access width in bytes of every load and store.
_WIDTH = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4,
          "sb": 1, "sh": 2, "sw": 4}


@dataclass(frozen=True)
class TestVector:
    """One directed test case for one instruction."""

    instr: Instruction
    insn_word: int
    pc: int
    rs1_val: int
    rs2_val: int
    mem_word: int          # aligned word returned by dmem for loads
    expected: Effects


def _lcg(seed: int):
    """Deterministic pseudo-random 32-bit stream (no global random state).

    :func:`vectors_for` seeds it with a CRC of the mnemonic, not ``hash()``,
    which Python salts per process.
    """
    state = seed & 0xFFFF_FFFF
    while True:
        state = (1103515245 * state + 12345) & 0xFFFF_FFFF
        yield state


def _expected(instr: Instruction, pc: int, rs1: int, rs2: int,
              mem_word: int) -> Effects:
    def load(addr: int, width: int, signed: bool) -> int:
        offset = addr & 0x3
        raw = (mem_word >> (8 * offset)) & ((1 << (8 * width)) - 1)
        if signed:
            return to_u32(sign_extend(raw, 8 * width))
        return raw

    # mret's only data input is the mepc CSR register; vectors carry the
    # driven value in ``mem_word`` (see the mret branch of vectors_for).
    return step(instr, pc, rs1, rs2, load, csr=lambda addr: mem_word)


#: Pseudo-random vectors added to the directed ones of an R- or I-format
#: instruction.
_EXTRA_RANDOM = 32


def vectors_for(mnemonic: str) -> list[TestVector]:
    """Directed + pseudo-random vectors for one instruction."""
    d = BY_MNEMONIC[mnemonic]
    rng = _lcg(0xC0FFEE ^ zlib.crc32(mnemonic.encode()) & 0xFFFF)
    out: list[TestVector] = []

    def emit(rd: int, rs1: int, rs2: int, imm: int,
             rs1_val: int, rs2_val: int, mem_word: int = 0,
             pc: int = _TEST_PC) -> None:
        instr = Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
        word = encode(instr, num_regs=16)
        expected = _expected(instr, pc, rs1_val, rs2_val, mem_word)
        out.append(TestVector(instr, word, pc, to_u32(rs1_val),
                              to_u32(rs2_val), to_u32(mem_word), expected))

    def random_val() -> int:
        return next(rng)

    if d.fmt is Format.R:
        for a in CORNER_VALUES:
            for b in (0, 1, 0xFFFF_FFFF, 0x8000_0000, 31, 32, a):
                emit(rd=5, rs1=3, rs2=4, imm=0, rs1_val=a, rs2_val=b)
        emit(rd=0, rs1=3, rs2=4, imm=0, rs1_val=7, rs2_val=9)   # x0 sink
        emit(rd=5, rs1=6, rs2=6, imm=0, rs1_val=13, rs2_val=13)  # rs1 == rs2
        for _ in range(_EXTRA_RANDOM):
            emit(rd=7, rs1=2, rs2=9, imm=0,
                 rs1_val=random_val(), rs2_val=random_val())
    elif d.is_shift_imm:
        for a in CORNER_VALUES:
            for shamt in SHAMT_CORNERS:
                emit(rd=5, rs1=3, rs2=0, imm=shamt, rs1_val=a, rs2_val=0)
    elif d.fmt is Format.I and mnemonic in LOADS:
        width = _WIDTH[mnemonic]
        for mem in (0x0089_AB7F, 0x8000_0001, 0xFF7F_80FF, 0x1234_5678):
            for offset in range(0, 4, width):
                emit(rd=5, rs1=3, rs2=0, imm=offset,
                     rs1_val=_MEM_BASE, rs2_val=0, mem_word=mem)
            for imm in (-4 * width, 4 * width, 0):
                emit(rd=5, rs1=3, rs2=0, imm=imm,
                     rs1_val=_MEM_BASE + 64, rs2_val=0, mem_word=mem)
    elif mnemonic in STORES:
        width = _WIDTH[mnemonic]
        for val in CORNER_VALUES:
            for offset in range(0, 4, width):
                emit(rd=0, rs1=3, rs2=4, imm=offset,
                     rs1_val=_MEM_BASE, rs2_val=val)
    elif mnemonic == "jalr":
        # Targets must be 32-bit aligned after the architectural bit-0
        # clear; the odd-base case checks that clear explicitly.
        for base in (_MEM_BASE, 0x0000_0404, 0x0000_2000):
            for imm in (0, 4, -4, 2044, -2048):
                emit(rd=1, rs1=3, rs2=0, imm=imm, rs1_val=base, rs2_val=0)
        emit(rd=1, rs1=3, rs2=0, imm=3, rs1_val=0x2001, rs2_val=0)
        emit(rd=0, rs1=3, rs2=0, imm=0, rs1_val=0x2000, rs2_val=0)
    elif d.fmt is Format.I:
        for a in CORNER_VALUES:
            for imm in IMM12_CORNERS:
                emit(rd=5, rs1=3, rs2=0, imm=imm, rs1_val=a, rs2_val=0)
        for _ in range(_EXTRA_RANDOM):
            emit(rd=5, rs1=3, rs2=0, imm=next(rng) % 4095 - 2048,
                 rs1_val=random_val(), rs2_val=0)
    elif mnemonic in BRANCHES:
        pairs = [(a, b) for a in (0, 1, 0xFFFF_FFFF, 0x7FFF_FFFF,
                                  0x8000_0000, 5)
                 for b in (0, 1, 0xFFFF_FFFF, 0x7FFF_FFFF, 0x8000_0000, 5)]
        for a, b in pairs:
            for imm in (8, -8, 4092, -4096):
                emit(rd=0, rs1=3, rs2=4, imm=imm, rs1_val=a, rs2_val=b)
    elif d.fmt is Format.U:
        for imm in IMM20_CORNERS:
            emit(rd=5, rs1=0, rs2=0, imm=sign_extend(imm, 32),
                 rs1_val=0, rs2_val=0)
            emit(rd=5, rs1=0, rs2=0, imm=sign_extend(imm, 32),
                 rs1_val=0, rs2_val=0, pc=0x0000_0FFC)
    elif mnemonic == "jal":
        for imm in (8, -8, 1048572, -1048576, 4):
            emit(rd=1, rs1=0, rs2=0, imm=imm, rs1_val=0, rs2_val=0)
        emit(rd=0, rs1=0, rs2=0, imm=16, rs1_val=0, rs2_val=0)
    elif mnemonic == "mret":
        # Trap return: the mepc CSR register is the block's one data
        # input, carried in the vector's mem_word slot.
        for target in (0, 0x400, 0x7FFC, 0xFFFF_FFFC, 0x0001_2344):
            emit(rd=0, rs1=0, rs2=0, imm=0, rs1_val=0, rs2_val=0,
                 mem_word=target)
    else:  # fence / ecall / ebreak (+ harness-emulated csr*/wfi)
        emit(rd=0, rs1=0, rs2=0, imm=0, rs1_val=0, rs2_val=0)
    return out


#: Operand lattice: every source register the format reads takes every
#: value (kept small: the sweep is quadratic in it for two-source
#: instructions).
LATTICE = (0x0000_0000, 0x0000_0001, 0xFFFF_FFFF, 0x7FFF_FFFF,
           0x8000_0000, 0x5555_5555, 0x0000_001F, 0xFFFF_FFE0)

_LATTICE_PC = 0x0000_1000


def _lattice_imms(mnemonic: str) -> tuple[int, ...]:
    d = BY_MNEMONIC[mnemonic]
    if d.is_shift_imm:
        return (0, 1, 31)
    if mnemonic in LOADS or mnemonic in STORES or mnemonic == "jalr":
        return (0, 4, -4, 2040)
    if mnemonic in BRANCHES:
        return (8, -8, 4092, -4096)
    if mnemonic == "jal":
        return (8, -8, 1048572, -1048576)
    if d.fmt is Format.U:
        return (0, 0x7FFF_F000, -0x1000)
    if d.fmt is Format.I:
        return (0, 1, -1, 2047, -2048)
    return (0,)


def lattice_vectors(mnemonic: str) -> list[TestVector]:
    """The bounded-exhaustive operand lattice of one instruction.

    The cross product of its immediate corners, :data:`LATTICE` on each
    source register its format reads, and the corners of its other data
    input (the loaded word, or ``mret``'s ``mepc`` in ``mem_word``).  A
    load or store pins ``rs1`` to a valid base plus the lattice value's
    low bits, aligned to the access, and ``jalr`` to ``0x2000`` plus bit
    0, so every address stays modelled.  Every state encodes and has a
    spec result; a corner that broke either would raise here rather than
    leave the lattice silently smaller.
    """
    d = BY_MNEMONIC[mnemonic]
    reads_rs1 = d.fmt in (Format.R, Format.I, Format.S, Format.B)
    reads_rs2 = d.fmt in (Format.R, Format.S, Format.B)
    if mnemonic in LOADS:
        mem_space: tuple[int, ...] = (0x1234_5678, 0x8000_00FF)
    elif mnemonic == "mret":
        mem_space = (0x0000_0400, 0x7FFF_FFFC, 0xFFFF_FFFD)
    else:
        mem_space = (0,)
    rd = 5 if d.fmt in (Format.R, Format.I, Format.U, Format.J) else 0
    out: list[TestVector] = []
    for imm in _lattice_imms(mnemonic):
        instr = Instruction(mnemonic, rd=rd, rs1=3, rs2=4, imm=imm)
        word = encode(instr, num_regs=16)
        for rs1_val in LATTICE if reads_rs1 else (0,):
            if mnemonic in _WIDTH:
                width = _WIDTH[mnemonic]
                rs1_val = _MEM_BASE + (rs1_val % 4 // width) * width
            elif mnemonic == "jalr":
                rs1_val = 0x0000_2000 + (rs1_val & 1)
            for rs2_val in LATTICE if reads_rs2 else (0,):
                for mem_word in mem_space:
                    out.append(TestVector(
                        instr, word, _LATTICE_PC, rs1_val, rs2_val, mem_word,
                        _expected(instr, _LATTICE_PC, rs1_val, rs2_val,
                                  mem_word)))
    return out


def block_vectors(mnemonic: str) -> list[TestVector]:
    """The distinct stimuli of ``vectors_for(mnemonic) +
    lattice_vectors(mnemonic)``, first occurrence first.

    A stimulus is ``(insn_word, pc, rs1_val, rs2_val, mem_word)``, and the
    expected effects are a function of it, so a repeat checks nothing new.
    The lattice repeats stimuli where a load, store or ``jalr`` pins
    ``rs1`` to a few bases.
    """
    distinct: dict[tuple[int, int, int, int, int], TestVector] = {}
    for v in vectors_for(mnemonic) + lattice_vectors(mnemonic):
        distinct.setdefault(
            (v.insn_word, v.pc, v.rs1_val, v.rs2_val, v.mem_word), v)
    return list(distinct.values())
