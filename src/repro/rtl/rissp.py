"""RISSP construction (Step 3, §3.3, Figure 3).

A RISSP is the single-cycle stitch of:
  * the **fetch unit** — the 32-bit PC register driving the instruction
    memory interface,
  * **ModularEX** — the pre-verified modular execution unit,
  * the **register file** — an architectural primitive (the paper
    synthesizes RISSPs *without* the RF, so it stays a primitive here and is
    excluded from gate lowering),
  * the **memory interfaces** — imem read port, dmem read/write port.

The produced module is fully self-contained: the evaluator in
:mod:`repro.rtl.sim` can execute programs on it, the emitter can print its
SystemVerilog, and :mod:`repro.synth` can lower it to gates.
"""

from __future__ import annotations

from .ir import (Expr, IrError, Module, RegFileSpec, _read_mux_tree, cat,
                 const, inline, mux)
from .library import IsaHardwareLibrary, default_library
from .modularex import build_modularex

REG_ADDR_BITS = 4


def build_rissp(mnemonics: list[str],
                library: IsaHardwareLibrary | None = None,
                name: str = "rissp",
                reset_pc: int = 0) -> Module:
    """Build a complete single-cycle RISSP for an instruction subset.

    Args:
        mnemonics: the domain-specific instruction subset (Step 1 output).
        library: pre-verified block library; defaults to the cached one.
            Every block must be pre-verified.
        name: module name (e.g. ``rissp_armpit``).
        reset_pc: PC reset value (program entry point).

    The machine-mode trap unit (mtvec/mepc/mcause CSR registers,
    ecall/ebreak trap entry) is stitched exactly when ``mret`` is in the
    subset, so the paper's trap-free RISSPs synthesize without it.  Every
    build runs the structural lint gate (``repro.analysis``): a
    combinational loop, driver conflict or undriven signal fails the build
    with the finding list instead of surfacing later in cosim.  The
    derived facts are memoized on the core, so ``core_fusable`` does not
    re-derive them.

    Returns the stitched, checked (so frozen) :class:`Module` with
    ``meta['mnemonics']`` set; derive variants with ``with_assigns``.
    """
    library = library or default_library()
    subset = sorted(dict.fromkeys(m.lower() for m in mnemonics))
    trap_unit = "mret" in subset
    core = Module(name)
    pc = core.register("pc", 32, reset_value=reset_pc)

    imem_rdata = core.input("imem_rdata", 32)
    core.assign(core.output("imem_addr", 32), pc)
    dmem_rdata = core.input("dmem_rdata", 32)

    rf_rs1_data = core.wire("rf_rs1_data", 32)
    rf_rs2_data = core.wire("rf_rs2_data", 32)

    mtvec = mepc = None
    if trap_unit:
        # CSR registers of the trap slice.  Only the trap unit itself
        # writes them in hardware; the Zicsr *instructions* are emulated
        # by the simulation harness, which pokes the register state
        # directly (see repro.rtl.core_sim).
        mtvec = core.register("mtvec", 32)
        mepc = core.register("mepc", 32)
        core.register("mcause", 32)

    ex = build_modularex(subset, library, name=f"{name}_modularex")
    bindings = {
        "pc": pc,
        "insn": imem_rdata,
        "rs1_data": rf_rs1_data,
        "rs2_data": rf_rs2_data,
        "dmem_rdata": dmem_rdata,
    }
    if any(port.name == "mepc" for port in ex.inputs()):
        bindings["mepc"] = mepc
    outs = inline(core, ex, "ex_", bindings)

    # Register file: the storage array is an architectural primitive kept
    # out of synthesis ("synthesized without the RF"), but the read-select
    # multiplexer trees and write decode are core logic and are synthesized.
    num_regs = 1 << REG_ADDR_BITS
    storage = []
    for index in range(1, num_regs):
        storage.append(core.wire(f"regs_q{index}", 32))
    core.regfile = RegFileSpec(
        name="regs", num_regs=num_regs, width=32,
        read_ports=[("rf_rs1_addr", "rf_rs1_data"),
                    ("rf_rs2_addr", "rf_rs2_data")],
        write_port=("rf_we", "rf_waddr", "rf_wdata"),
        storage_signals=[sig.name for sig in storage])
    rs1_addr = core.wire("rf_rs1_addr", REG_ADDR_BITS)
    rs2_addr = core.wire("rf_rs2_addr", REG_ADDR_BITS)
    core.assign(rs1_addr, outs["rs1_addr"])
    core.assign(rs2_addr, outs["rs2_addr"])
    entries = [const(0, 32)] + storage     # x0 reads as constant zero
    core.assign(rf_rs1_data, _read_mux_tree(entries, rs1_addr))
    core.assign(rf_rs2_data, _read_mux_tree(entries, rs2_addr))
    core.assign(core.wire("rf_we", 1), outs["rdest_we"])
    core.assign(core.wire("rf_waddr", REG_ADDR_BITS), outs["rdest_addr"])
    core.assign(core.wire("rf_wdata", 32), outs["rdest_data"])

    # Memory interface and status outputs.
    core.assign(core.output("dmem_addr", 32), outs["dmem_addr"])
    core.assign(core.output("dmem_re", 1), outs["dmem_re"])
    core.assign(core.output("dmem_wdata", 32), outs["dmem_wdata"])
    core.assign(core.output("dmem_wstrb", 4), outs["dmem_wstrb"])
    core.assign(core.output("illegal", 1), outs["illegal"])

    if trap_unit:
        # Machine-mode trap entry (PR 3): once firmware installs a
        # handler (non-zero mtvec), ecall/ebreak redirect to it instead of
        # halting — mepc latches the trapping pc, mcause records
        # breakpoint (3) vs environment call (11) via the imm12 LSB of the
        # fetched word — and mret (decoded inside ModularEX) redirects to
        # mepc.  With mtvec at its reset value of 0 the core halts exactly
        # like a trap-free RISSP.
        trap_take = core.wire("trap_take", 1)
        core.assign(trap_take, outs["halt"] & mtvec.ne(const(0, 32)))
        halt = core.wire("halt_gated", 1)
        core.assign(halt, outs["halt"] & core.sig("trap_take").invert())
        next_pc = core.wire("pc_next", 32)
        handler = cat(mtvec.slice(31, 2), const(0, 2))
        core.assign(next_pc,
                    mux(core.sig("trap_take"), handler, outs["next_pc"]))
        core.assign(core.output("trap", 1), core.sig("trap_take"))
        core.connect_register("mepc", pc, enable=core.sig("trap_take"))
        core.connect_register(
            "mcause",
            mux(imem_rdata.bit(20), const(3, 32), const(11, 32)),
            enable=core.sig("trap_take"))
        halt_sig: Expr = core.sig("halt_gated")
        next_sig: Expr = core.sig("pc_next")
    else:
        halt_sig = outs["halt"]
        next_sig = outs["next_pc"]

    core.assign(core.output("halt", 1), halt_sig)
    core.assign(core.output("next_pc", 32), next_sig)

    # Fetch unit: PC advances unless the core has halted.
    core.connect_register("pc", next_sig, enable=halt_sig.invert())
    core.meta["mnemonics"] = ex.meta["mnemonics"]
    # Structural lint gate: fail the build with the full finding list
    # instead of check()'s first error.  On success check() freezes the
    # core with the one combinational walk, and the facts reuse its order
    # and are memoized for core_fusable and any later lint.
    from ..analysis.rtl_lint import structural_facts
    try:
        core.check()
    except IrError:
        pass    # reported below, with every other finding
    errors = structural_facts(core).error_findings()
    if errors:
        details = "; ".join(
            f"{f.rule} {f.location}: {f.detail}" for f in errors)
        raise IrError(f"{name}: structural lint failed — {details}")
    core.check()
    # Every stitched RISSP must satisfy the fused-loop harness interface
    # (storage-exposed RF, imem/dmem ports, the CORE_INTERFACE outputs) —
    # assert the contract at build time, so a stitching change that breaks
    # it fails here rather than at the first fused simulator built on it.
    from .compiled import core_fusable
    if not core_fusable(core):
        raise IrError(f"{name}: stitched core lost the fused harness "
                      f"interface")
    return core
