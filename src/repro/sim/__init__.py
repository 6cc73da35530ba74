"""Simulation substrate: flat memory, golden ISS (Spike analog), Serv model.

All simulators share the decoded-program cache in :mod:`repro.sim.decoded`:
static instructions are decoded and compiled to specialized executor
closures once, then dispatched by pc — the difference between the seed's
~0.19 MIPS interpreter and the current multi-MIPS fast path.
"""

from .csr import CsrError, CsrFile
from .decoded import DecodedImage, DecodedOp, SimulationError
from .golden import GoldenSim, RunResult, abi_initial_regs, run_program
from .memory import Memory, MemoryError_
from .serv import ServSim, run_program_serv
from .tracing import RvfiRecord, RvfiTrace, load_read_fields

__all__ = [
    "CsrError", "CsrFile", "DecodedImage", "DecodedOp", "GoldenSim",
    "Memory", "MemoryError_", "RunResult", "RvfiRecord", "RvfiTrace",
    "ServSim", "SimulationError", "abi_initial_regs",
    "load_read_fields", "run_program", "run_program_serv",
]
