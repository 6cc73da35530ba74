"""Evaluation metrics shared by the Figure 6-9 benchmarks."""

from __future__ import annotations

#: Single-cycle RISSPs retire one instruction per clock.
RISSP_CPI = 1.0


def saving(value: float, baseline: float) -> float:
    """Relative saving vs a baseline, as a percentage."""
    return 100.0 * (1.0 - value / baseline) if baseline else 0.0
