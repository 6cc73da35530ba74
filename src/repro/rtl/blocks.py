"""Instruction hardware blocks — the paper's core concept (Table 2).

Every RV32I/E instruction becomes a discrete, fully functional RTL module
with the standard port contract of its format family:

===========  =========================================================
port         meaning
===========  =========================================================
pc           current program counter (input, 32)
insn         fetched instruction word (input, 32)
rs1_data     register-file read data (input, 32) — if the block reads rs1
rs2_data     register-file read data (input, 32) — if the block reads rs2
dmem_rdata   aligned 32-bit word at ``dmem_addr & ~3`` (input) — loads only
next_pc      next program counter (output, 32)
rs1_addr     register file read address (output, 4) — decoded inside
rs2_addr     register file read address (output, 4)
rdest_addr   destination register (output, 4) — writing blocks only
rdest_data   writeback value (output, 32)
rdest_we     writeback strobe (output, 1, constant 1 inside the block)
dmem_addr    data memory address (output, 32) — loads and stores
dmem_re      read enable (output, 1) — loads
dmem_wdata   lane-replicated store data (output, 32) — stores
dmem_wstrb   byte strobes (output, 4) — stores
halt         simulation-stop strobe — ecall/ebreak
===========  =========================================================

The *full decode of the instruction happens inside each block* (the
ModularEX switch is only a partial decoder), exactly as §3.3 describes.
Semantics here are written **structurally** — shifters, adders, lane muxes —
independently of :mod:`repro.isa.spec`, so that verifying block against
spec is a meaningful check and not a tautology.
"""

from __future__ import annotations

from ..isa.instructions import BY_MNEMONIC, Format, lookup
from .ir import Const, Expr, Module, cat, const, mux

REG_ADDR_BITS = 4  # RV32E: 16 registers


class BlockBuildError(ValueError):
    """Raised when a block cannot be constructed for a mnemonic."""


def _imm_i(insn: Expr) -> Expr:
    return insn.slice(31, 20).sext(32)


def _imm_s(insn: Expr) -> Expr:
    return cat(insn.slice(31, 25), insn.slice(11, 7)).sext(32)


def _imm_b(insn: Expr) -> Expr:
    return cat(insn.bit(31), insn.bit(7), insn.slice(30, 25),
               insn.slice(11, 8), const(0, 1)).sext(32)


def _imm_u(insn: Expr) -> Expr:
    return cat(insn.slice(31, 12), const(0, 12))


def _imm_j(insn: Expr) -> Expr:
    return cat(insn.bit(31), insn.slice(19, 12), insn.bit(20),
               insn.slice(30, 21), const(0, 1)).sext(32)


def _alu_expr(mnemonic: str, a: Expr, b: Expr) -> Expr:
    """Structural datapath for one ALU operation (b may be reg or imm)."""
    shamt = b.slice(4, 0)
    table = {
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "and": lambda: a & b,
        "or": lambda: a | b,
        "xor": lambda: a ^ b,
        "sll": lambda: a.shl(shamt),
        "srl": lambda: a.lshr(shamt),
        "sra": lambda: a.ashr(shamt),
        "slt": lambda: a.slt(b).zext(32),
        "sltu": lambda: a.ult(b).zext(32),
    }
    return table[mnemonic]()


_BRANCH_COND = {
    "beq": lambda a, b: a.eq(b),
    "bne": lambda a, b: a.ne(b),
    "blt": lambda a, b: a.slt(b),
    "bge": lambda a, b: a.sge(b),
    "bltu": lambda a, b: a.ult(b),
    "bgeu": lambda a, b: a.uge(b),
}

_IMM_ALU = {"addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor",
            "ori": "or", "andi": "and", "slli": "sll", "srli": "srl",
            "srai": "sra"}

_LOAD_EXT = {"lb": (8, True), "lbu": (8, False), "lh": (16, True),
             "lhu": (16, False), "lw": (32, True)}


def match_key(mnemonic: str) -> tuple[int, int | None, int | None, int | None]:
    """Partial-decode key ``(opcode, funct3, funct7, imm12)`` for the switch.

    ``None`` fields are don't-cares.  ``imm12`` distinguishes the SYSTEM
    instructions sharing opcode/funct3 (ecall=0, ebreak=1, mret=0x302).
    """
    d = lookup(mnemonic)
    funct7 = d.funct7 if (d.fmt is Format.R or d.is_shift_imm) else None
    return (d.opcode, d.funct3, funct7, d.imm12)


def build_block(mnemonic: str) -> Module:
    """Construct the instruction hardware block for ``mnemonic``.

    The returned module is self-contained and carries metadata used by the
    library and the ModularEX switch: ``meta['mnemonic']``,
    ``meta['block_type']``, ``meta['reads_rs1']`` etc.
    """
    d = BY_MNEMONIC.get(mnemonic.lower())
    if d is None:
        raise BlockBuildError(f"no such instruction {mnemonic!r}")
    m = Module(f"instr_{d.mnemonic}")
    pc = m.input("pc", 32)
    insn = m.input("insn", 32)
    next_pc = m.output("next_pc", 32)
    seq_pc = pc + const(4, 32)

    reads_rs1 = d.fmt in (Format.R, Format.S, Format.B) or (
        d.fmt is Format.I)
    reads_rs2 = d.fmt in (Format.R, Format.S, Format.B)
    writes_rd = d.fmt in (Format.R, Format.I, Format.U, Format.J)

    rs1_data = rs2_data = None
    if reads_rs1:
        m.assign(m.output("rs1_addr", REG_ADDR_BITS),
                 insn.slice(15 + REG_ADDR_BITS - 1, 15))
        rs1_data = m.input("rs1_data", 32)
    if reads_rs2:
        m.assign(m.output("rs2_addr", REG_ADDR_BITS),
                 insn.slice(20 + REG_ADDR_BITS - 1, 20))
        rs2_data = m.input("rs2_data", 32)
    if writes_rd:
        m.assign(m.output("rdest_addr", REG_ADDR_BITS),
                 insn.slice(7 + REG_ADDR_BITS - 1, 7))
        rdest_data = m.output("rdest_data", 32)
        m.assign(m.output("rdest_we", 1), const(1, 1))

    name = d.mnemonic
    if name in _ALU_EXPR_NAMES:
        m.assign(rdest_data, _alu_expr(name, rs1_data, rs2_data))
        m.assign(next_pc, seq_pc)
    elif name in _IMM_ALU:
        m.assign(rdest_data,
                 _alu_expr(_IMM_ALU[name], rs1_data, _imm_i(insn)))
        m.assign(next_pc, seq_pc)
    elif name in _BRANCH_COND:
        taken = m.wire("taken", 1)
        m.assign(taken, _BRANCH_COND[name](rs1_data, rs2_data))
        m.assign(next_pc, mux(m.sig("taken"), pc + _imm_b(insn), seq_pc))
    elif name in _LOAD_EXT:
        addr = m.wire("eff_addr", 32)
        m.assign(addr, rs1_data + _imm_i(insn))
        m.assign(m.output("dmem_addr", 32), m.sig("eff_addr"))
        m.assign(m.output("dmem_re", 1), const(1, 1))
        rdata = m.input("dmem_rdata", 32)
        width, signed = _LOAD_EXT[name]
        if width == 32:
            loaded = rdata
        elif width == 16:
            half = mux(m.sig("eff_addr").bit(1),
                       rdata.slice(31, 16), rdata.slice(15, 0))
            loaded = half.sext(32) if signed else half.zext(32)
        else:
            lane = m.sig("eff_addr").slice(1, 0)
            byte_hi = mux(lane.bit(0), rdata.slice(31, 24),
                          rdata.slice(23, 16))
            byte_lo = mux(lane.bit(0), rdata.slice(15, 8), rdata.slice(7, 0))
            byte = mux(lane.bit(1), byte_hi, byte_lo)
            loaded = byte.sext(32) if signed else byte.zext(32)
        m.assign(rdest_data, loaded)
        m.assign(next_pc, seq_pc)
    elif d.fmt is Format.S:
        addr = m.wire("eff_addr", 32)
        m.assign(addr, rs1_data + _imm_s(insn))
        m.assign(m.output("dmem_addr", 32), m.sig("eff_addr"))
        lane = m.sig("eff_addr").slice(1, 0)
        if name == "sw":
            wdata: Expr = rs2_data
            wstrb: Expr = const(0b1111, 4)
        elif name == "sh":
            half = rs2_data.slice(15, 0)
            wdata = cat(half, half)
            wstrb = mux(lane.bit(1), const(0b1100, 4), const(0b0011, 4))
        else:  # sb
            byte = rs2_data.slice(7, 0)
            wdata = cat(byte, byte, byte, byte)
            # Shift amount stays at the lane's natural 2 bits: a wider
            # amount could encode shifts >= 4 that silently truncate the
            # strobe to zero (RTL003).
            one = const(1, 4)
            wstrb = one.shl(lane)
        m.assign(m.output("dmem_wdata", 32), wdata)
        m.assign(m.output("dmem_wstrb", 4), wstrb)
        m.assign(next_pc, seq_pc)
    elif name == "lui":
        m.assign(rdest_data, _imm_u(insn))
        m.assign(next_pc, seq_pc)
    elif name == "auipc":
        m.assign(rdest_data, pc + _imm_u(insn))
        m.assign(next_pc, seq_pc)
    elif name == "jal":
        m.assign(rdest_data, seq_pc)
        m.assign(next_pc, pc + _imm_j(insn))
    elif name == "jalr":
        m.assign(rdest_data, seq_pc)
        target = rs1_data + _imm_i(insn)
        m.assign(next_pc, target & const(0xFFFF_FFFE, 32))
    elif name == "fence":
        m.assign(next_pc, seq_pc)
    elif name in ("ecall", "ebreak"):
        m.assign(m.output("halt", 1), const(1, 1))
        m.assign(next_pc, seq_pc)
    elif name == "mret":
        # Trap return (PR 3 slice): the stitched core feeds its mepc CSR
        # register in; the block redirects the pc to it.
        mepc = m.input("mepc", 32)
        m.assign(next_pc, mepc & const(0xFFFF_FFFC, 32))
    else:  # pragma: no cover - catalog and builders kept in lockstep
        raise BlockBuildError(f"no datapath builder for {name}")

    m.meta.update({
        "mnemonic": name,
        "block_type": d.block_type,
        "reads_rs1": reads_rs1,
        "reads_rs2": reads_rs2,
        "writes_rd": writes_rd,
        "is_load": name in _LOAD_EXT,
        "is_store": d.fmt is Format.S,
        "reads_mepc": name == "mret",
        "match": match_key(name),
    })
    m.check()
    return m


_ALU_EXPR_NAMES = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
                   "slt", "sltu")
