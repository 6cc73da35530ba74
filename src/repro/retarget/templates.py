"""Candidate macro templates for instruction retargeting (§5).

Each unsupported instruction has an ordered list of *candidate* expansions
over the minimal subset.  This plays the role of the LLM in Figure 11: a
generator that proposes plausible rewrites, some of which are wrong — the
verification loop rejects those and requests the next candidate, exactly as
the paper reports needing "less than 10 attempts" per instruction.

A template receives the operand strings, a fresh-label factory, and the two
scratch registers the objectives permit ("allow the use of temporary
registers"), and returns assembly lines that may use only the target
subset.
"""

from __future__ import annotations

from typing import Callable

#: The paper's minimal 12-instruction subset (§5).
MINIMAL_SUBSET = ("addi", "add", "and", "xori", "sll", "sra", "jal",
                  "jalr", "blt", "bltu", "lw", "sw")

TEMP0 = "gp"
TEMP1 = "tp"

LabelFn = Callable[[], str]
Template = Callable[..., list[str]]


# ------------------------------------------------------------- arithmetic

def _sub(rd, rs1, rs2, label):
    return [f"xori {TEMP0}, {rs2}, -1",
            f"addi {TEMP0}, {TEMP0}, 1",
            f"add {rd}, {rs1}, {TEMP0}"]


def _sub_bad(rd, rs1, rs2, label):
    # plausible but wrong: forgets the +1 of two's complement
    return [f"xori {TEMP0}, {rs2}, -1",
            f"add {rd}, {rs1}, {TEMP0}"]


def _or(rd, rs1, rs2, label):
    return [f"xori {TEMP0}, {rs1}, -1",
            f"xori {TEMP1}, {rs2}, -1",
            f"and {rd}, {TEMP0}, {TEMP1}",
            f"xori {rd}, {rd}, -1"]


def _xor(rd, rs1, rs2, label):
    # a ^ b = (a | b) & ~(a & b), with | built De Morgan style
    return [f"and {TEMP0}, {rs1}, {rs2}",
            f"xori {TEMP0}, {TEMP0}, -1",         # ~(a&b)
            f"xori {TEMP1}, {rs1}, -1",
            f"xori {rd}, {rs2}, -1",
            f"and {TEMP1}, {TEMP1}, {rd}",
            f"xori {TEMP1}, {TEMP1}, -1",         # a|b
            f"and {rd}, {TEMP1}, {TEMP0}"]


def _andi(rd, rs1, imm, label):
    return [f"addi {TEMP0}, x0, {imm}",
            f"and {rd}, {rs1}, {TEMP0}"]


def _ori(rd, rs1, imm, label):
    # the constant must live in TEMP1: _or's first step clobbers TEMP0
    return [f"addi {TEMP1}, x0, {imm}"] + _or(rd, rs1, TEMP1, label)


def _lui(rd, imm20, label):
    value = int(str(imm20), 0) & 0xFFFFF
    hi = value >> 10
    lo = value & 0x3FF
    return [f"addi {rd}, x0, {hi}",
            f"addi {TEMP0}, x0, 10",
            f"sll {rd}, {rd}, {TEMP0}",
            f"addi {rd}, {rd}, {lo}",
            f"addi {TEMP0}, x0, 12",
            f"sll {rd}, {rd}, {TEMP0}"]


def _auipc(rd, imm20, label):
    # pc-relative: jal link trick to read the pc, then add the upper imm
    skip = label()
    lines = [f"jal {rd}, {skip}", f"{skip}:"]
    lines += _lui(TEMP1, imm20, label)
    # rd holds pc+4 of the jal == address of the lui sequence; correct to
    # the auipc's own pc by subtracting 4
    lines += [f"addi {rd}, {rd}, -4",
              f"add {rd}, {rd}, {TEMP1}"]
    return lines


# ----------------------------------------------------------------- shifts

def _slli(rd, rs1, shamt, label):
    return [f"addi {TEMP0}, x0, {shamt}",
            f"sll {rd}, {rs1}, {TEMP0}"]


def _srai(rd, rs1, shamt, label):
    return [f"addi {TEMP0}, x0, {shamt}",
            f"sra {rd}, {rs1}, {TEMP0}"]


def _srli_bad(rd, rs1, shamt, label):
    # wrong for negative inputs: arithmetic shift keeps the sign bits
    return [f"addi {TEMP0}, x0, {shamt}",
            f"sra {rd}, {rs1}, {TEMP0}"]


def _srli(rd, rs1, shamt, label):
    amount = int(str(shamt), 0) & 31
    if amount == 0:
        return [f"addi {rd}, {rs1}, 0"]
    lines = [f"addi {TEMP0}, x0, {amount}",
             f"sra {rd}, {rs1}, {TEMP0}",
             f"addi {TEMP0}, x0, -1",
             f"addi {TEMP1}, x0, {32 - amount}",
             f"sll {TEMP0}, {TEMP0}, {TEMP1}",     # -1 << (32-n)
             f"xori {TEMP0}, {TEMP0}, -1",         # low-(32-n)-bit mask
             f"and {rd}, {rd}, {TEMP0}"]
    return lines


def _srl(rd, rs1, rs2, label):
    """Logical right shift by register amount: sra + computed mask."""
    step = label()
    done = label()
    return [
        f"addi {TEMP1}, x0, 31",
        f"and {TEMP0}, {TEMP1}, {rs2}",        # amt = rs2 & 31
        f"blt x0, {TEMP0}, {step}",
        f"addi {rd}, {rs1}, 0",                # amt == 0: plain copy
        f"jal x0, {done}",
        f"{step}:",
        f"xori {TEMP1}, {TEMP0}, -1",
        f"addi {TEMP1}, {TEMP1}, 1",           # -amt
        f"addi {TEMP1}, {TEMP1}, 32",          # 32 - amt
        f"sra {rd}, {rs1}, {TEMP0}",           # arithmetic shift
        f"addi {TEMP0}, x0, -1",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",      # -1 << (32-amt)
        f"xori {TEMP0}, {TEMP0}, -1",          # low-bit mask
        f"and {rd}, {rd}, {TEMP0}",
        f"{done}:",
    ]


# ------------------------------------------------------------ comparisons

def _sltu(rd, rs1, rs2, label):
    done = label()
    return [f"addi {rd}, x0, 1",
            f"bltu {rs1}, {rs2}, {done}",
            f"addi {rd}, x0, 0",
            f"{done}:"]


def _slt(rd, rs1, rs2, label):
    done = label()
    return [f"addi {rd}, x0, 1",
            f"blt {rs1}, {rs2}, {done}",
            f"addi {rd}, x0, 0",
            f"{done}:"]


def _sltiu(rd, rs1, imm, label):
    return [f"addi {TEMP1}, x0, {imm}"] + _sltu(rd, rs1, TEMP1, label)


def _slti(rd, rs1, imm, label):
    return [f"addi {TEMP1}, x0, {imm}"] + _slt(rd, rs1, TEMP1, label)


# -------------------------------------------------------------- branches

def _beq_bad(rs1, rs2, target, label):
    # wrong polarity: jumps when operands differ
    return [f"blt {rs1}, {rs2}, {target}",
            f"blt {rs2}, {rs1}, {target}"]


def _beq(rs1, rs2, target, label):
    skip = label()
    return [f"blt {rs1}, {rs2}, {skip}",
            f"blt {rs2}, {rs1}, {skip}",
            f"jal x0, {target}",
            f"{skip}:"]


def _bne(rs1, rs2, target, label):
    return [f"blt {rs1}, {rs2}, {target}",
            f"blt {rs2}, {rs1}, {target}"]


def _bge(rs1, rs2, target, label):
    skip = label()
    return [f"blt {rs1}, {rs2}, {skip}",
            f"jal x0, {target}",
            f"{skip}:"]


def _bgeu(rs1, rs2, target, label):
    skip = label()
    return [f"bltu {rs1}, {rs2}, {skip}",
            f"jal x0, {target}",
            f"{skip}:"]


# ------------------------------------------------------------ memory ops

def _lbu(rd, offset, base, label):
    big = label()
    return [
        f"addi {TEMP0}, {base}, {offset}",      # byte address
        f"addi {TEMP1}, x0, -4",
        f"and {TEMP1}, {TEMP0}, {TEMP1}",
        f"lw {TEMP1}, 0({TEMP1})",              # aligned word
        f"addi {rd}, x0, 3",
        f"and {rd}, {rd}, {TEMP0}",             # lane 0..3
        f"add {rd}, {rd}, {rd}",
        f"add {rd}, {rd}, {rd}",
        f"add {rd}, {rd}, {rd}",                # lane*8
        # shift word right by lane*8 logically via loop-free trick:
        # left-shift by (24 - lane*8) then arithmetic-right by 24 would
        # sign-extend; for lbu shift left so byte is at [31:24], then
        # sra 24 and mask to 8 bits.
        f"xori {rd}, {rd}, -1",
        f"addi {rd}, {rd}, 1",                  # -(lane*8)
        f"addi {rd}, {rd}, 24",                 # 24 - lane*8
        f"sll {TEMP1}, {TEMP1}, {rd}",          # byte now at top
        f"addi {rd}, x0, 24",
        f"sra {TEMP1}, {TEMP1}, {rd}",          # sign-extended byte
        f"addi {rd}, x0, 255",
        f"and {rd}, {rd}, {TEMP1}",             # zero-extend to lbu
    ]


def _lb(rd, offset, base, label):
    lines = _lbu(rd, offset, base, label)
    # drop the final zero-extension mask: keep the sign extension
    return lines[:-2] + [f"addi {rd}, {TEMP1}, 0"]


def _lhu(rd, offset, base, label):
    return [
        f"addi {TEMP0}, {base}, {offset}",
        f"addi {TEMP1}, x0, -4",
        f"and {TEMP1}, {TEMP0}, {TEMP1}",
        f"lw {TEMP1}, 0({TEMP1})",
        f"addi {rd}, x0, 2",
        f"and {rd}, {rd}, {TEMP0}",             # halfword lane 0 or 2
        f"add {rd}, {rd}, {rd}",
        f"add {rd}, {rd}, {rd}",
        f"add {rd}, {rd}, {rd}",                # lane*8: 0 or 16
        f"xori {rd}, {rd}, -1",
        f"addi {rd}, {rd}, 1",
        f"addi {rd}, {rd}, 16",                 # 16 - lane*8
        f"sll {TEMP1}, {TEMP1}, {rd}",          # half at top
        f"addi {rd}, x0, 16",
        f"sra {TEMP1}, {TEMP1}, {rd}",
        # zero-extend 16 bits: mask 0xFFFF = (1<<16)-1 built with shifts
        f"addi {rd}, x0, 1",
        f"addi {TEMP0}, x0, 16",
        f"sll {rd}, {rd}, {TEMP0}",
        f"addi {rd}, {rd}, -1",
        f"and {rd}, {rd}, {TEMP1}",
    ]


def _lh(rd, offset, base, label):
    lines = _lhu(rd, offset, base, label)
    return lines[:-5] + [f"addi {rd}, {TEMP1}, 0"]


def _sb(rs2, offset, base, label):
    """Read-modify-write byte store via lw/sw (stack red-zone stashes)."""
    return [
        f"sw {rs2}, -8(sp)",                   # value stash
        f"addi {TEMP0}, {base}, {offset}",     # byte address
        f"sw {TEMP0}, -16(sp)",
        f"addi {TEMP1}, x0, 3",
        f"and {TEMP1}, {TEMP1}, {TEMP0}",      # lane
        f"add {TEMP1}, {TEMP1}, {TEMP1}",
        f"add {TEMP1}, {TEMP1}, {TEMP1}",
        f"add {TEMP1}, {TEMP1}, {TEMP1}",      # lane*8
        f"sw {TEMP1}, -20(sp)",
        f"addi {TEMP0}, x0, 255",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",      # byte mask at lane
        f"xori {TEMP0}, {TEMP0}, -1",          # clear mask
        f"sw {TEMP0}, -24(sp)",
        f"lw {TEMP1}, -16(sp)",                # byte address
        f"addi {TEMP0}, x0, -4",
        f"and {TEMP1}, {TEMP1}, {TEMP0}",      # aligned address
        f"sw {TEMP1}, -16(sp)",
        f"lw {TEMP0}, 0({TEMP1})",             # old word
        f"lw {TEMP1}, -24(sp)",                # clear mask
        f"and {TEMP0}, {TEMP0}, {TEMP1}",      # punched word
        f"sw {TEMP0}, -24(sp)",
        f"lw {TEMP0}, -8(sp)",                 # value
        f"addi {TEMP1}, x0, 255",
        f"and {TEMP0}, {TEMP0}, {TEMP1}",      # value byte
        f"lw {TEMP1}, -20(sp)",                # lane*8
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",      # byte into lane
        f"lw {TEMP1}, -24(sp)",                # punched word
        f"add {TEMP0}, {TEMP0}, {TEMP1}",      # merged word
        f"lw {TEMP1}, -16(sp)",                # aligned address
        f"sw {TEMP0}, 0({TEMP1})",
    ]


def _sh(rs2, offset, base, label):
    """Read-modify-write halfword store via lw/sw."""
    return [
        f"sw {rs2}, -8(sp)",
        f"addi {TEMP0}, {base}, {offset}",
        f"sw {TEMP0}, -16(sp)",
        f"addi {TEMP1}, x0, 2",
        f"and {TEMP1}, {TEMP1}, {TEMP0}",      # halfword lane (0 or 2)
        f"add {TEMP1}, {TEMP1}, {TEMP1}",
        f"add {TEMP1}, {TEMP1}, {TEMP1}",
        f"add {TEMP1}, {TEMP1}, {TEMP1}",      # lane*8: 0 or 16
        f"sw {TEMP1}, -20(sp)",
        f"addi {TEMP0}, x0, 1",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",      # not yet the mask
        f"addi {TEMP1}, x0, 16",
        f"addi {TEMP0}, x0, 1",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",
        f"addi {TEMP0}, {TEMP0}, -1",          # 0xFFFF
        f"lw {TEMP1}, -20(sp)",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",      # mask at lane
        f"xori {TEMP0}, {TEMP0}, -1",          # clear mask
        f"sw {TEMP0}, -24(sp)",
        f"lw {TEMP1}, -16(sp)",
        f"addi {TEMP0}, x0, -4",
        f"and {TEMP1}, {TEMP1}, {TEMP0}",
        f"sw {TEMP1}, -16(sp)",                # aligned address
        f"lw {TEMP0}, 0({TEMP1})",
        f"lw {TEMP1}, -24(sp)",
        f"and {TEMP0}, {TEMP0}, {TEMP1}",      # punched word
        f"sw {TEMP0}, -24(sp)",
        f"lw {TEMP0}, -8(sp)",                 # value
        f"addi {TEMP1}, x0, 16",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",
        f"lw {TEMP1}, -20(sp)",
        f"sra {TEMP0}, {TEMP0}, x0",           # placeholder, fixed below
    ]


def _sh_v2(rs2, offset, base, label):
    """Correct halfword store candidate (v1 above garbles the value)."""
    return [
        f"sw {rs2}, -8(sp)",
        f"addi {TEMP0}, {base}, {offset}",
        f"sw {TEMP0}, -16(sp)",
        f"addi {TEMP1}, x0, 2",
        f"and {TEMP1}, {TEMP1}, {TEMP0}",      # lane byte (0 or 2)
        f"add {TEMP1}, {TEMP1}, {TEMP1}",
        f"add {TEMP1}, {TEMP1}, {TEMP1}",
        f"add {TEMP1}, {TEMP1}, {TEMP1}",      # lane*8
        f"sw {TEMP1}, -20(sp)",
        f"addi {TEMP0}, x0, 1",
        f"addi {TEMP1}, x0, 16",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",
        f"addi {TEMP0}, {TEMP0}, -1",          # 0xFFFF
        f"sw {TEMP0}, -28(sp)",                # halfword mask stash
        f"lw {TEMP1}, -20(sp)",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",      # mask at lane
        f"xori {TEMP0}, {TEMP0}, -1",          # clear mask
        f"sw {TEMP0}, -24(sp)",
        f"lw {TEMP1}, -16(sp)",
        f"addi {TEMP0}, x0, -4",
        f"and {TEMP1}, {TEMP1}, {TEMP0}",
        f"sw {TEMP1}, -16(sp)",                # aligned address
        f"lw {TEMP0}, 0({TEMP1})",
        f"lw {TEMP1}, -24(sp)",
        f"and {TEMP0}, {TEMP0}, {TEMP1}",      # punched word
        f"sw {TEMP0}, -24(sp)",
        f"lw {TEMP0}, -8(sp)",                 # value
        f"lw {TEMP1}, -28(sp)",                # 0xFFFF
        f"and {TEMP0}, {TEMP0}, {TEMP1}",      # value halfword
        f"lw {TEMP1}, -20(sp)",
        f"sll {TEMP0}, {TEMP0}, {TEMP1}",      # into lane
        f"lw {TEMP1}, -24(sp)",
        f"add {TEMP0}, {TEMP0}, {TEMP1}",      # merged
        f"lw {TEMP1}, -16(sp)",
        f"sw {TEMP0}, 0({TEMP1})",
    ]


#: Candidate lists: first entries may be wrong (the verify loop filters).
CANDIDATES: dict[str, list[Template]] = {
    "sub": [_sub_bad, _sub],
    "or": [_or],
    "xor": [_xor],
    "andi": [_andi],
    "ori": [_ori],
    "lui": [_lui],
    "auipc": [_auipc],
    "slli": [_slli],
    "srai": [_srai],
    "srli": [_srli_bad, _srli],
    "srl": [_srl],
    "sltu": [_sltu],
    "slt": [_slt],
    "sltiu": [_sltiu],
    "slti": [_slti],
    "beq": [_beq_bad, _beq],
    "bne": [_bne],
    "bge": [_bge],
    "bgeu": [_bgeu],
    "lbu": [_lbu],
    "lb": [_lb],
    "lhu": [_lhu],
    "lh": [_lh],
    "sb": [_sb],
    "sh": [_sh, _sh_v2],
}
