"""Custom per-block testbenches (Figure 4, step 2).

A block testbench drives the instruction hardware block's RTL with the
architecture test vectors and compares every declared output against the
executable spec.  The function :func:`block_verifier` has the signature the
pre-verified library expects, so ``library.verify(block_verifier)`` runs the
whole Step-0 functional-verification campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.spec import Effects
from ..rtl.compiled import WSTRB_WIDTH
from ..rtl.ir import Module
from ..rtl.sim import RtlSim
from .arch_tests import TestVector, vectors_for


@dataclass
class TestbenchResult:
    mnemonic: str
    vectors_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.vectors_run > 0 and not self.failures


def _drive(sim: RtlSim, block: Module, vector: TestVector) -> None:
    inputs = {"pc": vector.pc, "insn": vector.insn_word}
    if "rs1_data" in block.ports:
        inputs["rs1_data"] = vector.rs1_val
    if "rs2_data" in block.ports:
        inputs["rs2_data"] = vector.rs2_val
    if "dmem_rdata" in block.ports:
        inputs["dmem_rdata"] = vector.mem_word
    if "mepc" in block.ports:
        # Trap-return block: the mepc CSR register value rides the
        # vector's mem_word slot (see arch_tests.vectors_for).
        inputs["mepc"] = vector.mem_word
    sim.set_inputs(**inputs)
    sim.eval_comb()


def _check(sim: RtlSim, block: Module, vector: TestVector,
           result: TestbenchResult) -> None:
    expected: Effects = vector.expected

    def fail(message: str) -> None:
        result.failures.append(
            f"{vector.instr.mnemonic} pc={vector.pc:#x} "
            f"rs1={vector.rs1_val:#x} rs2={vector.rs2_val:#x} "
            f"imm={vector.instr.imm}: {message}")

    got_pc = sim.get("next_pc")
    if got_pc != expected.next_pc:
        fail(f"next_pc {got_pc:#x} != {expected.next_pc:#x}")

    # Register-file address decode is part of the Table 2 port contract.
    if "rs1_addr" in block.ports and sim.get("rs1_addr") != vector.instr.rs1:
        fail(f"rs1_addr {sim.get('rs1_addr')} != {vector.instr.rs1}")
    if "rs2_addr" in block.ports and sim.get("rs2_addr") != vector.instr.rs2:
        fail(f"rs2_addr {sim.get('rs2_addr')} != {vector.instr.rs2}")
    if "dmem_re" in block.ports:
        if not sim.get("dmem_re"):
            fail("load block must assert dmem_re")
        want_addr = (vector.rs1_val + vector.instr.imm) & 0xFFFF_FFFF
        if sim.get("dmem_addr") != want_addr:
            fail(f"dmem_addr {sim.get('dmem_addr'):#x} != {want_addr:#x}")

    if "rdest_we" in block.ports:
        # Blocks always assert we; the x0-canonicalisation happens in the
        # register file, so compare against the *raw* rd semantics.
        raw_rd = vector.instr.rd
        got_addr = sim.get("rdest_addr")
        if got_addr != raw_rd:
            fail(f"rdest_addr {got_addr} != {raw_rd}")
        if expected.rd is not None or raw_rd == 0:
            want = expected.rd_data
            if want is None:
                # write to x0: value is architecturally ignored; recompute
                # what a non-x0 destination would have received.
                from .arch_tests import _expected
                from ..isa.encoding import Instruction
                shadow = Instruction(vector.instr.mnemonic, rd=5,
                                     rs1=vector.instr.rs1,
                                     rs2=vector.instr.rs2,
                                     imm=vector.instr.imm)
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


def run_testbench(block: Module, vectors: list[TestVector] | None = None
                  ) -> TestbenchResult:
    """Run the block testbench; returns a pass/fail report."""
    mnemonic = str(block.meta.get("mnemonic", block.name))
    if vectors is None:
        vectors = vectors_for(mnemonic)
    result = TestbenchResult(mnemonic=mnemonic)
    sim = RtlSim(block)
    for vector in vectors:
        _drive(sim, block, vector)
        _check(sim, block, vector, result)
        result.vectors_run += 1
    return result


def block_verifier(block: Module) -> tuple[bool, dict[str, object]]:
    """Library-compatible verifier: functional testbench over SIG vectors."""
    result = run_testbench(block)
    return result.passed, {
        "vectors": result.vectors_run,
        "failures": list(result.failures[:10]),
    }
