"""RISC-V RV32I/E ISA substrate: catalog, encoding, spec semantics, assembler.

Public surface:
    * :data:`INSTRUCTIONS`, :func:`lookup` — the instruction catalog
    * :class:`Instruction`, :func:`encode`, :func:`decode`
    * :func:`step` — the executable specification (one retire)
    * :class:`Assembler`, :func:`assemble`, :class:`Program`
    * :func:`disassemble_word`, :func:`format_instruction`
"""

from .bits import sign_extend, to_s32, to_u32
from .encoding import DecodeError, EncodingError, Instruction, decode, encode
from .instructions import (
    ALL_INSTRUCTIONS,
    BRANCHES,
    BY_MNEMONIC,
    COMPUTE_MNEMONICS,
    CSR_OPS,
    FULL_ISA_SIZE,
    Format,
    INSTRUCTIONS,
    InstrDef,
    LOADS,
    STORES,
    ZICSR_INSTRUCTIONS,
    lookup,
)
from .assembler import Assembler, AssemblerError, assemble
from .disassembler import disassemble_word, format_instruction
from .program import DEFAULT_DATA_BASE, DEFAULT_MEM_SIZE, DEFAULT_TEXT_BASE, Program
from .registers import (
    ABI_NAMES,
    RV32E_NUM_REGS,
    RV32I_NUM_REGS,
    RegisterError,
    parse_register,
    register_name,
)
from .spec import Effects, MemWrite, SpecError, step

__all__ = [
    "ABI_NAMES", "ALL_INSTRUCTIONS", "Assembler", "AssemblerError",
    "BRANCHES", "BY_MNEMONIC", "CSR_OPS", "ZICSR_INSTRUCTIONS",
    "COMPUTE_MNEMONICS", "DEFAULT_DATA_BASE", "DEFAULT_MEM_SIZE",
    "DEFAULT_TEXT_BASE", "DecodeError", "Effects", "EncodingError", "Format",
    "FULL_ISA_SIZE", "INSTRUCTIONS", "InstrDef", "Instruction", "LOADS",
    "MemWrite", "Program", "RV32E_NUM_REGS", "RV32I_NUM_REGS",
    "RegisterError", "STORES", "SpecError", "assemble", "decode",
    "disassemble_word", "encode", "format_instruction",
    "lookup", "parse_register", "register_name", "sign_extend", "step",
    "to_s32", "to_u32",
]
