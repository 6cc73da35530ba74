"""Compiler driver: MicroC source -> RV32E assembly/binary at an -O level.

This is the toolflow entry point Step 1 of the RISSP methodology consumes:
``compile_to_program`` produces the linked binary whose distinct-instruction
profile defines the RISSP subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.assembler import assemble
from ..isa.program import Program
from .codegen import emit_module
from .irgen import IrGen
from .opt import run_pipeline
from .parser import parse

OPT_LEVELS = ("O0", "O1", "O2", "O3", "Oz")

#: Levels that enable loop-header copying (loop rotation) in irgen — a
#: speed optimization that duplicates the loop condition, which is why -O2
#: code is slightly *larger* than -O1 in Figure 5's averages.
_ROTATE_LEVELS = ("O2", "O3")


@dataclass
class CompileResult:
    assembly: str
    program: Program
    opt_level: str

    @property
    def code_size_bytes(self) -> int:
        return self.program.code_size_bytes


def normalize_level(level: str) -> str:
    cleaned = level.lstrip("-").capitalize() if level.lower().startswith(
        ("-o", "o")) else level
    candidate = ("O" + cleaned[-1] if cleaned.endswith(tuple("0123z"))
                 else cleaned)
    if candidate == "OZ":
        candidate = "Oz"
    if candidate not in OPT_LEVELS:
        raise ValueError(f"unknown optimization level {level!r}")
    return candidate


def compile_to_assembly(source: str, opt_level: str = "O2") -> str:
    """Compile MicroC source to RV32E assembly text."""
    level = normalize_level(opt_level)
    unit = parse(source)
    gen = IrGen(unit)
    gen.rotate_loops = level in _ROTATE_LEVELS
    module = gen.run()
    run_pipeline(module, level)
    return emit_module(module, level)


def compile_to_program(source: str, opt_level: str = "O2") -> CompileResult:
    """Compile and assemble MicroC source into a linked flat binary."""
    level = normalize_level(opt_level)
    assembly = compile_to_assembly(source, level)
    program = assemble(assembly, isa="rv32e")
    return CompileResult(assembly=assembly, program=program,
                         opt_level=level)
