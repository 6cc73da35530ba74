"""The block verifier (Figure 4, steps 2 and 4).

:func:`verify_block` drives an instruction hardware block's RTL with its
mnemonic's architecture-test vectors and its operand lattice
(:mod:`repro.verify.arch_tests`), and one checker compares every declared
output with the executable spec on both sets.
``IsaHardwareLibrary.verify()`` runs it over every block of the library.
The gate-level mutation campaign (:mod:`repro.verify.mutation`) drives
its probes through the same :func:`block_inputs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.encoding import Instruction
from ..isa.instructions import BY_MNEMONIC, Format
from ..rtl.compiled import WSTRB_WIDTH
from ..rtl.ir import Module
from ..rtl.sim import RtlSim
from .arch_tests import TestVector, _expected, lattice_vectors, vectors_for


@dataclass
class BlockReport:
    mnemonic: str
    vectors_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.vectors_run > 0 and not self.failures


def block_inputs(block: Module, vector: TestVector) -> dict[str, int]:
    """The value of each of ``block``'s input ports under ``vector``.

    ``mem_word`` drives a block's one data input besides its register
    operands: the loaded word, or the trap-return block's ``mepc`` CSR
    register.  An input port no vector drives raises ``KeyError``.
    """
    words = {"pc": vector.pc, "insn": vector.insn_word,
             "rs1_data": vector.rs1_val, "rs2_data": vector.rs2_val,
             "dmem_rdata": vector.mem_word, "mepc": vector.mem_word}
    return {port.name: words[port.name] for port in block.inputs()}


def _check(sim: RtlSim, block: Module, vector: TestVector,
           report: BlockReport) -> None:
    expected = vector.expected
    instr = vector.instr

    def fail(message: str) -> None:
        report.failures.append(
            f"{instr.mnemonic} pc={vector.pc:#x} "
            f"rs1={vector.rs1_val:#x} rs2={vector.rs2_val:#x} "
            f"imm={instr.imm} mem={vector.mem_word:#x}: {message}")

    got_pc = sim.get("next_pc")
    if got_pc != expected.next_pc:
        fail(f"next_pc {got_pc:#x} != {expected.next_pc:#x}")
    if got_pc & 0x3:
        fail(f"next_pc {got_pc:#x} misaligned")

    # Register-file address decode is part of the Table 2 port contract.
    if "rs1_addr" in block.ports and sim.get("rs1_addr") != instr.rs1:
        fail(f"rs1_addr {sim.get('rs1_addr')} != {instr.rs1}")
    if "rs2_addr" in block.ports and sim.get("rs2_addr") != instr.rs2:
        fail(f"rs2_addr {sim.get('rs2_addr')} != {instr.rs2}")
    if "dmem_re" in block.ports:
        if not sim.get("dmem_re"):
            fail("load block must assert dmem_re")
        want_addr = (vector.rs1_val + instr.imm) & 0xFFFF_FFFF
        if sim.get("dmem_addr") != want_addr:
            fail(f"dmem_addr {sim.get('dmem_addr'):#x} != {want_addr:#x}")

    if "rdest_we" in block.ports \
            and BY_MNEMONIC[instr.mnemonic].fmt in (Format.B, Format.S):
        fail("branch/store block exposes rdest_we")
    elif "rdest_we" in block.ports:
        # Blocks always assert we; the x0-canonicalisation happens in the
        # register file, so compare against the *raw* rd semantics.
        if not sim.get("rdest_we"):
            fail("rdest_we not asserted")
        got_addr = sim.get("rdest_addr")
        if got_addr != instr.rd:
            fail(f"rdest_addr {got_addr} != {instr.rd}")
        if expected.rd is not None or instr.rd == 0:
            want = expected.rd_data
            if want is None:
                # write to x0: value is architecturally ignored; recompute
                # what a non-x0 destination would have received.
                shadow = Instruction(instr.mnemonic, rd=5, rs1=instr.rs1,
                                     rs2=instr.rs2, imm=instr.imm)
                want = _expected(shadow, vector.pc, vector.rs1_val,
                                 vector.rs2_val, vector.mem_word).rd_data
            got_data = sim.get("rdest_data")
            if got_data != want:
                fail(f"rdest_data {got_data:#x} != {want:#x}")
    elif expected.rd is not None:
        fail("spec writes a register but block has no rdest port")

    if expected.mem_write is not None:
        mw = expected.mem_write
        if "dmem_wstrb" not in block.ports:
            fail("spec stores but block has no store port")
            return
        wstrb = sim.get("dmem_wstrb")
        width = WSTRB_WIDTH.get(wstrb)
        if width != mw.width:
            fail(f"wstrb {wstrb:#06b} width {width} != {mw.width}")
            return
        addr = sim.get("dmem_addr")
        if addr != mw.addr:
            fail(f"dmem_addr {addr:#x} != {mw.addr:#x}")
        offset = (wstrb & -wstrb).bit_length() - 1
        if (addr & 0x3) != offset:
            fail(f"wstrb offset {offset} inconsistent with addr {addr:#x}")
        wdata = sim.get("dmem_wdata")
        lane = (wdata >> (8 * offset)) & ((1 << (8 * mw.width)) - 1)
        if lane != mw.data:
            fail(f"store lane data {lane:#x} != {mw.data:#x}")
    elif "dmem_wstrb" in block.ports and sim.get("dmem_wstrb"):
        fail("unexpected store strobe")

    if "halt" in block.ports:
        if not sim.get("halt") and expected.halt:
            fail("halt not asserted")
    elif expected.halt:
        fail("spec halts but block has no halt port")


def verify_block(block: Module) -> BlockReport:
    """Check ``block`` against the spec on its mnemonic's
    architecture-test vectors and operand lattice.

    Failures are collected, not raised, so a campaign over the library
    reports every block.
    """
    mnemonic = str(block.meta.get("mnemonic", block.name))
    report = BlockReport(mnemonic)
    sim = RtlSim(block)
    for vector in vectors_for(mnemonic) + lattice_vectors(mnemonic):
        sim.set_inputs(**block_inputs(block, vector))
        sim.eval_comb()
        _check(sim, block, vector, report)
        report.vectors_run += 1
    return report
