"""Benchmark workloads: Embench analogs + extreme-edge applications +
event-driven SoC firmware (PR 3; all-C interrupt images since PR 5)."""

from .registry import (
    ALL_NAMES,
    EMBENCH_NAMES,
    EXTREME_EDGE_NAMES,
    OPT_LEVEL,
    SOC_NAMES,
    WORKLOADS,
    Workload,
    build_program,
    get,
)

__all__ = ["ALL_NAMES", "EMBENCH_NAMES", "EXTREME_EDGE_NAMES", "OPT_LEVEL",
           "SOC_NAMES", "WORKLOADS", "Workload", "build_program", "get"]
