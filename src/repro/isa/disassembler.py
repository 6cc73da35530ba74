"""Disassembler for RV32I/E words — used for diagnostics and reports."""

from __future__ import annotations

from .csrs import CSR_NAME_BY_ADDR
from .encoding import DecodeError, Instruction, decode
from .instructions import BY_MNEMONIC, Format
from .registers import register_name


def csr_name(addr: int) -> str:
    """Canonical CSR operand text: symbolic where named, hex otherwise."""
    return CSR_NAME_BY_ADDR.get(addr, f"{addr:#x}")


def format_instruction(instr: Instruction, addr: int | None = None) -> str:
    """Render a decoded instruction as canonical assembly text."""
    d = BY_MNEMONIC[instr.mnemonic]
    rd = register_name(instr.rd)
    rs1 = register_name(instr.rs1)
    rs2 = register_name(instr.rs2)
    m = instr.mnemonic
    if d.fmt is Format.R:
        return f"{m} {rd}, {rs1}, {rs2}"
    if d.fmt is Format.I:
        if d.opcode == 0b0000011:  # loads
            return f"{m} {rd}, {instr.imm}({rs1})"
        if m == "jalr":
            return f"{m} {rd}, {rs1}, {instr.imm}"
        return f"{m} {rd}, {rs1}, {instr.imm}"
    if d.fmt is Format.S:
        return f"{m} {rs2}, {instr.imm}({rs1})"
    if d.fmt is Format.B:
        target = f"{instr.imm:+d}" if addr is None else f"{addr + instr.imm:#x}"
        return f"{m} {rs1}, {rs2}, {target}"
    if d.fmt is Format.U:
        return f"{m} {rd}, {(instr.imm >> 12) & 0xFFFFF:#x}"
    if d.fmt is Format.J:
        target = f"{instr.imm:+d}" if addr is None else f"{addr + instr.imm:#x}"
        return f"{m} {rd}, {target}"
    if d.fmt is Format.CSR:
        source = str(instr.rs1) if d.csr_uimm else rs1
        return f"{m} {rd}, {csr_name(instr.imm & 0xFFF)}, {source}"
    return m


def disassemble_word(word: int, addr: int | None = None) -> str:
    """Disassemble one 32-bit word; undecodable words render as ``.word``."""
    try:
        return format_instruction(decode(word), addr)
    except DecodeError:
        return f".word {word:#010x}"


def disassemble(words: list[int]) -> list[str]:
    """Disassemble a text section loaded at address 0 into ``addr: text``
    lines."""
    lines = []
    for index, word in enumerate(words):
        addr = 4 * index
        lines.append(f"{addr:#010x}: {disassemble_word(word, addr)}")
    return lines
