"""repro — RISC-V Instruction Subset Processors (RISSPs) for extreme edge.

Reproduction of "Flexing RISC-V Instruction Subset Processors to Extreme
Edge" (MICRO 2025).  The package builds the complete toolflow of the paper:

* :mod:`repro.isa` — RV32I/E ISA model, assembler, executable spec
* :mod:`repro.compiler` — the MicroC cross-compiler (-O0..-Oz)
* :mod:`repro.sim` — golden ISS (Spike analog) and Serv bit-serial model
* :mod:`repro.rtl` — instruction hardware blocks, ModularEX, RISSP RTL
* :mod:`repro.verify` — the block verifier over arch-test and lattice
  vectors (testbench and SBY analog), mutation (MCY), RISCOF, RVFI analogs
* :mod:`repro.synth` — gate-level synthesis + FlexIC Gen3 techlib
* :mod:`repro.physical` — floorplan/CTS/route model (Figure 10)
* :mod:`repro.retarget` — generative macro retargeting (§5)
* :mod:`repro.core` — Step 1-3 methodology + end-to-end flow
* :mod:`repro.workloads` — Embench-analog + extreme-edge kernels

Quickstart::

    from repro import RisspFlow
    flow = RisspFlow()
    result = flow.generate("armpit", run_verification=True)
    print(result.profile.mnemonics, result.synth.fmax_khz)
"""

from .core import RisspFlow, RisspResult, extract_subset, sweep_application
from .compiler import compile_to_assembly, compile_to_program
from .isa import Assembler, Program, assemble, decode, encode, step
from .retarget import MINIMAL_SUBSET, retarget_assembly
from .rtl import build_block, build_modularex, build_rissp, default_library
from .sim import run_program, run_program_serv
from .synth import FLEXIC_GEN3, synthesize, synthesize_serv
from .physical import implement

__version__ = "1.0.0"

__all__ = [
    "Assembler", "FLEXIC_GEN3", "MINIMAL_SUBSET", "Program", "RisspFlow",
    "RisspResult", "assemble", "build_block", "build_modularex",
    "build_rissp", "compile_to_assembly", "compile_to_program", "decode",
    "default_library", "encode", "extract_subset", "implement",
    "retarget_assembly", "run_program", "run_program_serv", "step",
    "sweep_application", "synthesize", "synthesize_serv",
]
