"""ModularEX — the Modular Execution Unit (Step 2, §3.2).

ModularEX inlines the selected instruction hardware blocks and generates the
*switch*: a partial decoder that derives a one-hot select per block from the
opcode/funct fields, and routes the selected block's outputs forward.  The
switch is emitted in SystemVerilog as a case statement; structurally it is
the classic parallel-case AND-OR one-hot multiplexer, which is also what a
synthesis tool infers — so our gate-level lowering sees the realistic mux
network whose size scales with the number of blocks.
"""

from __future__ import annotations

from functools import reduce

from .ir import Const, Expr, Module, Sig, const, inline
from .library import IsaHardwareLibrary

#: The standard full-width output contract of ModularEX.
_OUTPUTS = (
    ("next_pc", 32),
    ("rs1_addr", 4),
    ("rs2_addr", 4),
    ("rdest_addr", 4),
    ("rdest_data", 32),
    ("rdest_we", 1),
    ("dmem_addr", 32),
    ("dmem_re", 1),
    ("dmem_wdata", 32),
    ("dmem_wstrb", 4),
    ("halt", 1),
)


def _balanced_or(terms: list[Expr]) -> Expr:
    """OR-reduce as a balanced tree (realistic post-synthesis depth)."""
    if not terms:
        raise ValueError("empty OR reduction")
    while len(terms) > 1:
        nxt = []
        for index in range(0, len(terms) - 1, 2):
            nxt.append(terms[index] | terms[index + 1])
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def _onehot_mux(entries: list[tuple[Expr, Expr]], default: Expr) -> Expr:
    """One-hot AND-OR mux: ``OR_i (replicate(sel_i) & val_i)`` + default arm.

    ``entries`` are (1-bit select, value); selects must be mutually
    exclusive (they are: decode keys are distinct).  The default arm fires
    when no select is active.
    """
    width = default.width
    sels = [sel for sel, _ in entries]
    terms = [val & sel.sext(width) for sel, val in entries]
    if entries:
        # A constant-zero default contributes a `0 & none` term that is
        # identically zero — synthesis would sweep it, and RTL005 flags it
        # as unreachable logic, so it is never emitted (the no-select case
        # already ORs to zero).  Non-trivial defaults (seq_pc) keep the
        # explicit default arm.
        if not (isinstance(default, Const) and default.value == 0):
            none = _balanced_or(sels).invert()
            terms.append(default & none.sext(width))
        return _balanced_or(terms)
    return default


def build_modularex(mnemonics: list[str], library: IsaHardwareLibrary,
                    name: str = "modularex") -> Module:
    """Construct ModularEX for an instruction subset.

    Blocks are pulled from the pre-verified library (raising if any block is
    unverified), inlined under per-mnemonic prefixes, and joined by the
    generated switch.  The module's ``meta['mnemonics']`` records the subset.
    """
    subset = sorted(dict.fromkeys(m.lower() for m in mnemonics))
    m = Module(name)
    pc = m.input("pc", 32)
    insn = m.input("insn", 32)
    rs1_data = m.input("rs1_data", 32)
    rs2_data = m.input("rs2_data", 32)
    dmem_rdata = m.input("dmem_rdata", 32)
    blocks = {mnemonic: library.get_block(mnemonic) for mnemonic in subset}
    # Trap-return slice (PR 3): a block that redirects to mepc pulls the
    # core's mepc CSR register through a dedicated input.
    mepc = None
    if any(b.meta.get("reads_mepc") for b in blocks.values()):
        mepc = m.input("mepc", 32)
    for out_name, width in _OUTPUTS:
        m.output(out_name, width)
    illegal = m.output("illegal", 1)

    opcode = insn.slice(6, 0)
    funct3 = insn.slice(14, 12)
    funct7 = insn.slice(31, 25)
    imm12 = insn.slice(31, 20)

    selects: dict[str, Sig] = {}
    block_outputs: dict[str, dict[str, Sig]] = {}
    for mnemonic in subset:
        block = blocks[mnemonic]
        op, f3, f7, i12 = block.meta["match"]
        match: Expr = opcode.eq(const(op, 7))
        if f3 is not None:
            match = match & funct3.eq(const(f3, 3))
        if f7 is not None:
            match = match & funct7.eq(const(f7, 7))
        if i12 is not None:
            match = match & imm12.eq(const(i12, 12))
        sel = m.wire(f"sel_{mnemonic}", 1)
        m.assign(sel, match)
        selects[mnemonic] = sel
        bindings: dict[str, Expr] = {"pc": pc, "insn": insn}
        if block.meta["reads_rs1"]:
            bindings["rs1_data"] = rs1_data
        if block.meta["reads_rs2"]:
            bindings["rs2_data"] = rs2_data
        if block.meta["is_load"]:
            bindings["dmem_rdata"] = dmem_rdata
        if block.meta.get("reads_mepc"):
            bindings["mepc"] = mepc
        block_outputs[mnemonic] = inline(m, block, f"b_{mnemonic}_", bindings)

    seq_pc = m.wire("seq_pc", 32)
    m.assign(seq_pc, pc + const(4, 32))
    defaults: dict[str, Expr] = {
        out_name: (m.sig("seq_pc") if out_name == "next_pc"
                   else const(0, width))
        for out_name, width in _OUTPUTS
    }
    for out_name, width in _OUTPUTS:
        entries = []
        for mnemonic in subset:
            outs = block_outputs[mnemonic]
            if out_name in outs:
                entries.append((selects[mnemonic], outs[out_name]))
        m.assign(out_name, _onehot_mux(entries, defaults[out_name]))

    any_sel = _balanced_or([selects[x] for x in subset]) if subset \
        else const(0, 1)
    m.assign(illegal, any_sel.invert())
    m.meta["mnemonics"] = subset
    m.check()
    return m
