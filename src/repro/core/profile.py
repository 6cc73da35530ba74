"""Application characterization across compiler flags (Figure 5, §4.1)."""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler import OPT_LEVELS, compile_to_program
from ..workloads import ALL_NAMES, WORKLOADS
from .subset_analysis import SubsetProfile, profile_program


@dataclass
class FlagSweep:
    """Figure 5 data for one application: one profile per -O flag."""

    name: str
    profiles: dict[str, SubsetProfile]

    def codesize_kb(self, level: str) -> float:
        return self.profiles[level].code_size_bytes / 1024.0

    def distinct(self, level: str) -> int:
        return self.profiles[level].num_distinct


def sweep_application(name: str) -> FlagSweep:
    """Compile one registered application at every flag and profile each
    binary."""
    source = WORKLOADS[name].source
    return FlagSweep(name=name, profiles={
        level: profile_program(
            name, compile_to_program(source, level).program, level)
        for level in OPT_LEVELS})


def sweep_all() -> dict[str, FlagSweep]:
    """The full Figure 5 study over the workload registry."""
    return {name: sweep_application(name) for name in ALL_NAMES}


def summarize(sweeps: dict[str, FlagSweep]) -> dict[str, dict[str, float]]:
    """Per-flag averages the paper quotes in §4.1 (static counts, distinct)."""
    out: dict[str, dict[str, float]] = {}
    for level in OPT_LEVELS:
        stats = [sweeps[name].profiles[level] for name in sweeps]
        out[level] = {
            "avg_static_instructions": sum(
                p.static_instructions for p in stats) / len(stats),
            "avg_distinct": sum(p.num_distinct for p in stats) / len(stats),
            "min_distinct": min(p.num_distinct for p in stats),
            "max_distinct": max(p.num_distinct for p in stats),
            "avg_isa_fraction": sum(
                p.isa_fraction for p in stats) / len(stats),
        }
    return out
