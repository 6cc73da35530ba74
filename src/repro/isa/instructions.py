"""Catalog of the RV32I/E base instruction set.

Each instruction is described once here — mnemonic, format, opcode fields and
Table 2 block type — and every other subsystem (assembler, disassembler,
golden ISS, hardware-block library, subset analyser) derives from this
catalog.  This mirrors the paper's premise that *each instruction in the ISA
is a discrete, fully specified unit*.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Format(Enum):
    """RISC-V encoding formats (Table 2 of the paper groups blocks by these)."""

    R = "R"
    I = "I"        # noqa: E741 - canonical RISC-V format name
    S = "S"
    B = "B"
    U = "U"
    J = "J"
    SYS = "SYS"    # fence / ecall / ebreak / mret / wfi
    CSR = "CSR"    # Zicsr: csrrw/csrrs/csrrc and immediate forms


@dataclass(frozen=True)
class InstrDef:
    """Static definition of one instruction.

    Attributes:
        mnemonic: assembly mnemonic, lower case.
        fmt: encoding format.
        opcode: 7-bit major opcode.
        funct3: 3-bit minor opcode (None where the format has no funct3).
        funct7: 7-bit function field for R-type and shift-immediates.
        block_type: Table 2 hardware-block family ("r-type", "i-type", ...).
        is_shift_imm: True for slli/srli/srai (I-format with funct7).
        imm12: fixed 12-bit immediate distinguishing SYSTEM instructions
            that share opcode/funct3 (ecall=0, ebreak=1, wfi=0x105,
            mret=0x302).
        csr_uimm: True for the Zicsr immediate forms, whose rs1 field
            carries a 5-bit unsigned immediate instead of a register.
    """

    mnemonic: str
    fmt: Format
    opcode: int
    funct3: int | None
    funct7: int | None
    block_type: str
    is_shift_imm: bool = False
    imm12: int | None = None
    csr_uimm: bool = False


OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_REG = 0b0110011
OP_MISC_MEM = 0b0001111
OP_SYSTEM = 0b1110011


def _r(mnemonic: str, funct3: int, funct7: int) -> InstrDef:
    return InstrDef(mnemonic, Format.R, OP_REG, funct3, funct7, "r-type")


def _i(mnemonic: str, opcode: int, funct3: int,
       funct7: int | None = None, shift: bool = False) -> InstrDef:
    return InstrDef(mnemonic, Format.I, opcode, funct3, funct7, "i-type",
                    is_shift_imm=shift)


def _b(mnemonic: str, funct3: int) -> InstrDef:
    return InstrDef(mnemonic, Format.B, OP_BRANCH, funct3, None, "b-type")


def _s(mnemonic: str, funct3: int) -> InstrDef:
    return InstrDef(mnemonic, Format.S, OP_STORE, funct3, None, "s-type")


#: Ordered catalog of the RV32I base ISA (RV32E shares the identical list;
#: the E variant only shrinks the register file to 16 entries).
INSTRUCTIONS: tuple[InstrDef, ...] = (
    InstrDef("lui", Format.U, OP_LUI, None, None, "u-type"),
    InstrDef("auipc", Format.U, OP_AUIPC, None, None, "u-type"),
    InstrDef("jal", Format.J, OP_JAL, None, None, "j-type"),
    _i("jalr", OP_JALR, 0b000),
    _b("beq", 0b000),
    _b("bne", 0b001),
    _b("blt", 0b100),
    _b("bge", 0b101),
    _b("bltu", 0b110),
    _b("bgeu", 0b111),
    _i("lb", OP_LOAD, 0b000),
    _i("lh", OP_LOAD, 0b001),
    _i("lw", OP_LOAD, 0b010),
    _i("lbu", OP_LOAD, 0b100),
    _i("lhu", OP_LOAD, 0b101),
    _s("sb", 0b000),
    _s("sh", 0b001),
    _s("sw", 0b010),
    _i("addi", OP_IMM, 0b000),
    _i("slti", OP_IMM, 0b010),
    _i("sltiu", OP_IMM, 0b011),
    _i("xori", OP_IMM, 0b100),
    _i("ori", OP_IMM, 0b110),
    _i("andi", OP_IMM, 0b111),
    _i("slli", OP_IMM, 0b001, funct7=0b0000000, shift=True),
    _i("srli", OP_IMM, 0b101, funct7=0b0000000, shift=True),
    _i("srai", OP_IMM, 0b101, funct7=0b0100000, shift=True),
    _r("add", 0b000, 0b0000000),
    _r("sub", 0b000, 0b0100000),
    _r("sll", 0b001, 0b0000000),
    _r("slt", 0b010, 0b0000000),
    _r("sltu", 0b011, 0b0000000),
    _r("xor", 0b100, 0b0000000),
    _r("srl", 0b101, 0b0000000),
    _r("sra", 0b101, 0b0100000),
    _r("or", 0b110, 0b0000000),
    _r("and", 0b111, 0b0000000),
    InstrDef("fence", Format.SYS, OP_MISC_MEM, 0b000, None, "sys"),
    InstrDef("ecall", Format.SYS, OP_SYSTEM, 0b000, 0b0000000, "sys",
             imm12=0),
    InstrDef("ebreak", Format.SYS, OP_SYSTEM, 0b000, 0b0000001, "sys",
             imm12=1),
)


def _csr(mnemonic: str, funct3: int, uimm: bool = False) -> InstrDef:
    return InstrDef(mnemonic, Format.CSR, OP_SYSTEM, funct3, None, "sys",
                    csr_uimm=uimm)


#: The machine-mode system extension grown in PR 3: Zicsr plus trap
#: return and wait-for-interrupt.  Kept separate from :data:`INSTRUCTIONS`
#: so the base-ISA surface (block library, Table 2 accounting, the
#: 37-instruction compute denominator) is untouched; ``BY_MNEMONIC`` and
#: the decoder cover the union.
ZICSR_INSTRUCTIONS: tuple[InstrDef, ...] = (
    _csr("csrrw", 0b001),
    _csr("csrrs", 0b010),
    _csr("csrrc", 0b011),
    _csr("csrrwi", 0b101, uimm=True),
    _csr("csrrsi", 0b110, uimm=True),
    _csr("csrrci", 0b111, uimm=True),
    InstrDef("mret", Format.SYS, OP_SYSTEM, 0b000, None, "sys",
             imm12=0b0011000_00010),
    InstrDef("wfi", Format.SYS, OP_SYSTEM, 0b000, None, "sys",
             imm12=0b0001000_00101),
)

#: The full decodable instruction table (base ISA + system extension).
ALL_INSTRUCTIONS: tuple[InstrDef, ...] = INSTRUCTIONS + ZICSR_INSTRUCTIONS

#: Zicsr mnemonics whose semantics need the CSR file (no standalone RTL
#: hardware block; the RTL harness emulates them testbench-side).
CSR_OPS: tuple[str, ...] = tuple(
    d.mnemonic for d in ZICSR_INSTRUCTIONS if d.fmt is Format.CSR)

#: Mnemonic -> definition lookup (base ISA + system extension).
BY_MNEMONIC: dict[str, InstrDef] = {d.mnemonic: d for d in ALL_INSTRUCTIONS}

#: The 37 computational/control/memory instructions used for the
#: "applications use 24-86% of the full ISA" calculation in the paper
#: (fence/ecall/ebreak are excluded from the percentage denominator).
COMPUTE_MNEMONICS: tuple[str, ...] = tuple(
    d.mnemonic for d in INSTRUCTIONS if d.block_type != "sys"
)

FULL_ISA_SIZE = len(COMPUTE_MNEMONICS)  # 37

LOADS = ("lb", "lh", "lw", "lbu", "lhu")
STORES = ("sb", "sh", "sw")
BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def lookup(mnemonic: str) -> InstrDef:
    """Return the catalog entry for ``mnemonic`` (case-insensitive)."""
    try:
        return BY_MNEMONIC[mnemonic.lower()]
    except KeyError:
        raise KeyError(f"unknown RV32I/E instruction {mnemonic!r}") from None
