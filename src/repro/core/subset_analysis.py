"""Step 1: domain-specific instruction-subset extraction.

The application (or a set of applications forming a domain) is compiled for
the full RV32E ISA; the compiled *binary* is decoded and the set of distinct
mnemonics is the RISSP subset.  System instructions (fence/ecall/ebreak) are
always carried by the core and excluded from the percentage maths, matching
the paper's "applications use 24-86% of the full ISA" denominator of 37.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.encoding import DecodeError, decode
from ..isa.instructions import FULL_ISA_SIZE
from ..isa.program import Program
from ..workloads import OPT_LEVEL

#: Instructions every RISSP carries regardless of the profile (the halt
#: mechanism; fence is a NOP on a single-core in-order machine).
ALWAYS_INCLUDED = ("ecall",)

_SYSTEM = {"fence", "ecall", "ebreak"}

#: PR 3 machine-mode extension: present in event-driven firmware but
#: outside the 37-instruction compute denominator.  ``mret`` is the one
#: with a hardware block — finding *any* of these in a binary makes the
#: generated core trap-capable (mret block + trap unit); the Zicsr
#: register instructions and wfi are emulated by the simulation harness.
_SYSTEM_EXTENSION = {"csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi",
                     "csrrci", "mret", "wfi"}


@dataclass(frozen=True)
class SubsetProfile:
    """The distinct-instruction profile of one compiled application."""

    name: str
    opt_level: str
    mnemonics: tuple[str, ...]          # compute instructions, sorted
    static_instructions: int
    code_size_bytes: int
    #: Machine-mode system-extension mnemonics found in the binary
    #: (csrr*/mret/wfi); empty for pure compute kernels.
    system_mnemonics: tuple[str, ...] = ()

    @property
    def num_distinct(self) -> int:
        return len(self.mnemonics)

    @property
    def isa_fraction(self) -> float:
        """Fraction of the 37-instruction compute ISA used (paper §4.1)."""
        return self.num_distinct / FULL_ISA_SIZE

    def core_subset(self) -> list[str]:
        """Subset to instantiate in hardware (profile + halt support +
        the trap-return block when the firmware uses the trap subsystem)."""
        subset = set(self.mnemonics) | set(ALWAYS_INCLUDED)
        if self.system_mnemonics:
            subset.add("mret")
        return sorted(subset)


def extract_subset(program: Program) -> list[str]:
    """Distinct compute mnemonics actually present in a linked binary."""
    mnemonics: set[str] = set()
    for word in program.text_words:
        try:
            instr = decode(word)
        except DecodeError:
            continue    # literal pools / data islands are not code
        if instr.mnemonic not in _SYSTEM \
                and instr.mnemonic not in _SYSTEM_EXTENSION:
            mnemonics.add(instr.mnemonic)
    return sorted(mnemonics)


def extract_system_extension(program: Program) -> list[str]:
    """Distinct machine-mode system-extension mnemonics in a binary."""
    found: set[str] = set()
    for word in program.text_words:
        try:
            instr = decode(word)
        except DecodeError:
            continue
        if instr.mnemonic in _SYSTEM_EXTENSION:
            found.add(instr.mnemonic)
    return sorted(found)


def profile_program(name: str, program: Program,
                    opt_level: str) -> SubsetProfile:
    return SubsetProfile(
        name=name,
        opt_level=opt_level,
        mnemonics=tuple(extract_subset(program)),
        static_instructions=program.static_instruction_count,
        code_size_bytes=program.code_size_bytes,
        system_mnemonics=tuple(extract_system_extension(program)))


def union_profile(name: str, profiles: list[SubsetProfile]) -> SubsetProfile:
    """Domain profile: union of several applications' subsets (the paper
    generates one RISSP per *domain* when multiple apps share a chip),
    labelled with the paper's :data:`~repro.workloads.OPT_LEVEL`."""
    merged: set[str] = set()
    system: set[str] = set()
    static = 0
    size = 0
    for profile in profiles:
        merged.update(profile.mnemonics)
        system.update(profile.system_mnemonics)
        static += profile.static_instructions
        size += profile.code_size_bytes
    return SubsetProfile(name=name, opt_level=OPT_LEVEL,
                         mnemonics=tuple(sorted(merged)),
                         static_instructions=static, code_size_bytes=size,
                         system_mnemonics=tuple(sorted(system)))
