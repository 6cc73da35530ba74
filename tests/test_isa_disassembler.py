"""Disassembler round-trip: assemble(disassemble_word(word)) == word.

The canonical-text rendering of :mod:`repro.isa.disassembler` must be
legal assembler input that encodes back to the identical word, for
*every* instruction in the full table (base ISA + the PR 3 Zicsr/system
extension) across its legal operand space.  Exhaustive over mnemonics and
corner operands, plus hypothesis-randomized operand sweeps per format.
"""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    ALL_INSTRUCTIONS,
    Format,
    Instruction,
    assemble,
    decode,
    encode,
)
from repro.isa.disassembler import disassemble_word, format_instruction

#: Representative operand corners per field kind (RV32E register space).
_REGS = (0, 1, 2, 10, 15)
_IMM12 = (-2048, -33, -1, 0, 1, 2047)
_BOFF = (-4096, -8, 0, 8, 4094 & ~1)
_JOFF = (-(1 << 20), -8, 0, 2048, (1 << 20) - 2)
_UFIELD = (0, 1, 0x80000, 0xFFFFF, 0x12345)
_SHAMT = (0, 1, 13, 31)
_CSRS = (0x300, 0x305, 0x341, 0x344, 0x7FF, 0xFFF)
_UIMM5 = (0, 1, 8, 21, 31)


def _operand_cases(d):
    """Yield legal Instruction kwargs covering the definition's fields."""
    if d.fmt is Format.R:
        for rd in _REGS:
            for rs1 in _REGS[:3]:
                for rs2 in _REGS[2:]:
                    yield dict(rd=rd, rs1=rs1, rs2=rs2)
    elif d.is_shift_imm:
        for rd in _REGS:
            for imm in _SHAMT:
                yield dict(rd=rd, rs1=3, imm=imm)
    elif d.fmt is Format.I:
        for rd in _REGS:
            for imm in _IMM12:
                yield dict(rd=rd, rs1=5, imm=imm)
    elif d.fmt is Format.S:
        for rs2 in _REGS:
            for imm in _IMM12:
                yield dict(rs1=6, rs2=rs2, imm=imm)
    elif d.fmt is Format.B:
        for imm in _BOFF:
            yield dict(rs1=7, rs2=8, imm=imm)
    elif d.fmt is Format.U:
        for rd in _REGS:
            for field in _UFIELD:
                from repro.isa import sign_extend
                yield dict(rd=rd, imm=sign_extend(field << 12, 32))
    elif d.fmt is Format.J:
        for rd in _REGS:
            for imm in _JOFF:
                yield dict(rd=rd, imm=imm)
    elif d.fmt is Format.CSR:
        sources = _UIMM5 if d.csr_uimm else _REGS
        for csr in _CSRS:
            for source in sources:
                yield dict(rd=9, rs1=source, imm=csr)
    else:   # SYS: no operands
        yield dict()


def _roundtrip(word: int) -> int:
    """Disassemble at address 0 and reassemble at text base 0."""
    text = disassemble_word(word, addr=0)
    program = assemble(f".text\n    {text}\n", entry_symbol="main")
    assert len(program.text_words) == 1, text
    return program.text_words[0]


@pytest.mark.parametrize("d", ALL_INSTRUCTIONS, ids=lambda d: d.mnemonic)
def test_roundtrip_exhaustive_over_table(d):
    for kwargs in _operand_cases(d):
        instr = Instruction(d.mnemonic, **kwargs)
        word = encode(instr, num_regs=16)
        assert _roundtrip(word) == word, format_instruction(instr)
        # and the decoder agrees with the original operands
        assert decode(word) == instr


def test_new_system_opcodes_render_canonically():
    assert disassemble_word(0x30200073) == "mret"
    assert disassemble_word(0x10500073) == "wfi"
    assert disassemble_word(
        encode(Instruction("csrrw", rd=10, rs1=11, imm=0x305))) \
        == "csrrw a0, mtvec, a1"
    assert disassemble_word(
        encode(Instruction("csrrsi", rd=0, rs1=21, imm=0x340))) \
        == "csrrsi zero, mscratch, 21"
    # unnamed CSR addresses render numerically and still round-trip
    word = encode(Instruction("csrrc", rd=1, rs1=2, imm=0x7C0))
    assert "0x7c0" in disassemble_word(word)
    assert _roundtrip(word) == word


regs = st.integers(0, 15)


@given(rd=regs, rs1=regs, imm=st.integers(0, 4095))
def test_roundtrip_csr_random(rd, rs1, imm):
    word = encode(Instruction("csrrs", rd=rd, rs1=rs1, imm=imm))
    assert _roundtrip(word) == word


@given(rd=regs, uimm=st.integers(0, 31), imm=st.integers(0, 4095))
def test_roundtrip_csr_imm_random(rd, uimm, imm):
    word = encode(Instruction("csrrci", rd=rd, rs1=uimm, imm=imm))
    assert _roundtrip(word) == word


@given(rs1=regs, rs2=regs,
       imm=st.integers(-2048, 2047).map(lambda x: x * 2))
def test_roundtrip_branch_random(rs1, rs2, imm):
    word = encode(Instruction("bgeu", rs1=rs1, rs2=rs2, imm=imm))
    assert _roundtrip(word) == word


@given(rd=regs, imm=st.integers(-(1 << 19), (1 << 19) - 1)
       .map(lambda x: x * 2))
def test_roundtrip_jal_random(rd, imm):
    word = encode(Instruction("jal", rd=rd, imm=imm))
    assert _roundtrip(word) == word


def test_undecodable_words_render_as_data():
    assert disassemble_word(0xFFFFFFFF) == ".word 0xffffffff"
