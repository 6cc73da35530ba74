"""Synthesis result aggregation: the numbers Figures 6-9 are built from.

``synthesize`` runs the full flow for one module: lower -> optimize (const
prop + strash + dead sweep + virtual tech mapping) -> timing -> area ->
power, then replays the paper's measurement protocol:

  * **fmax** — highest 25 kHz sweep point with positive slack (Fig 6),
  * **average area** — mean NAND2-eq gate count across all positive-slack
    target frequencies, with a constraint-pressure model (synthesis upsizes
    as the target approaches fmax) (Fig 7),
  * **average power** — mean total power across the same sweep (Fig 8),
  * **EPI** — power at fmax / fmax x CPI (Fig 9).

Area policy: the virtual-mapping combinational area is scaled by
``lib.area_scale`` (fitting commercial-synthesis compaction of random
logic); flip-flop area is structural (count x cell area) because sequential
cells do not compress.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rtl.ir import Module
from .lower import lower_module
from .netlist import GateType
from .optimize import MappedStats, mapped_stats
from .power import PowerBreakdown, power_at
from .techlib import FLEXIC_GEN3, TechLib
from .timing import TimingReport, analyze_timing

#: Constraint-pressure area model: synthesizing at target frequency f costs
#: ``area * (1 + AREA_PRESSURE * (f / fmax)^2)`` extra gates (upsizing /
#: duplication as slack tightens).
AREA_PRESSURE = 0.08


@dataclass
class AreaStats:
    """Reported (scaled) area decomposition."""

    comb_ge: float
    ff_ge: float
    dff_count: int

    @property
    def total_ge(self) -> float:
        return self.comb_ge + self.ff_ge

    @property
    def ff_fraction(self) -> float:
        return self.ff_ge / self.total_ge if self.total_ge else 0.0


def area_stats(stats: MappedStats, lib: TechLib) -> AreaStats:
    """Apply the reporting policy to virtual-mapping statistics."""
    ff_cell = lib.cell(GateType.DFF).area_ge
    return AreaStats(comb_ge=stats.comb_area_ge * lib.area_scale,
                     ff_ge=stats.dff_count * ff_cell,
                     dff_count=stats.dff_count)


@dataclass
class SynthReport:
    """Everything downstream experiments need about one synthesized core."""

    name: str
    mnemonics: tuple[str, ...]
    gate_counts: dict[GateType, int]
    mapped: MappedStats
    area: AreaStats
    timing: TimingReport
    lib: TechLib
    # The measurement protocol, derived in __post_init__ from the fields
    # above: averages across the positive-slack sweep, power at fmax.
    avg_area_ge: float = field(init=False, default=0.0)
    avg_power_mw: float = field(init=False, default=0.0)
    power_at_fmax: PowerBreakdown | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        sweep = self.timing.sweep_khz
        if sweep:
            areas = [self.area_at(khz) for khz in sweep]
            self.avg_area_ge = sum(areas) / len(areas)
            powers = [self.power_mw_at(khz).total_mw for khz in sweep]
            self.avg_power_mw = sum(powers) / len(powers)
            self.power_at_fmax = self.power_mw_at(self.timing.fmax_khz)

    @property
    def fmax_khz(self) -> int:
        return self.timing.fmax_khz

    @property
    def area_ge(self) -> float:
        return self.area.total_ge

    @property
    def dff_count(self) -> int:
        return self.area.dff_count

    @property
    def ff_area_fraction(self) -> float:
        return self.area.ff_fraction

    def area_at(self, freq_khz: float) -> float:
        """Constraint-pressure area at a target frequency."""
        if self.timing.fmax_khz_analog <= 0:
            return self.area.total_ge
        ratio = min(freq_khz / self.timing.fmax_khz_analog, 1.0)
        return self.area.total_ge * (1.0 + AREA_PRESSURE * ratio * ratio)

    def power_mw_at(self, freq_khz: float) -> PowerBreakdown:
        pressure = self.area_at(freq_khz) / self.area.total_ge \
            if self.area.total_ge else 1.0
        return power_at(self.area.comb_ge * pressure, self.area.dff_count,
                        self.area_at(freq_khz), self.lib, freq_khz)

    def energy_per_instruction_nj(self, cpi: float = 1.0) -> float:
        """EPI = P(fmax)/fmax x CPI (Fig 9 protocol); result in nanojoules."""
        if self.power_at_fmax is None or self.fmax_khz == 0:
            raise ValueError("no fmax point available")
        power_w = self.power_at_fmax.total_mw * 1e-3
        freq_hz = self.fmax_khz * 1e3
        return power_w / freq_hz * cpi * 1e9


def synthesize(module: Module, lib: TechLib = FLEXIC_GEN3,
               seed: str | None = None) -> SynthReport:
    """Run the synthesis flow over ``module`` and measure PPA."""
    netlist = lower_module(module)
    stats = mapped_stats(netlist, lib)
    return SynthReport(
        name=module.name,
        mnemonics=tuple(module.meta.get("mnemonics", ())),
        gate_counts=netlist.counts(),
        mapped=stats,
        area=area_stats(stats, lib),
        timing=analyze_timing(netlist, lib, seed=seed or module.name),
        lib=lib,
    )
