"""Physical implementation model — FlexIC layouts (Figure 10, §4.3).

The paper takes the three extreme-edge RISSPs and both baselines through
floorplanning, clock-tree insertion and place & route, implementing all five
at 300 kHz / 3 V after an iterative frequency-reduction loop.  Figure 10's
headline findings are physical-design effects, and each is modelled
explicitly:

  * **Clock-tree cost scales with flip-flops.**  Serv is 60 % FFs; after
    CTS buffering and the placement-utilization hit of a dense clock tree,
    its synthesis-area advantage over the small RISSPs *inverts*
    (RISSP-xgboost ends ~11 % smaller than Serv).  We model utilization as
    ``BASE_UTILIZATION - UTIL_FF_PENALTY * ff_area_fraction`` plus explicit
    H-tree buffers.
  * **Die overhead is partly fixed.**  IO ring, power grid and routing halo
    add a subset-independent term, which compresses area savings relative
    to synthesis (the paper's af_detect drops from double-digit synthesis
    savings to 8 % in layout).
  * **Clock-network switching dominates at 300 kHz.**  FF clock pins plus
    buffer/net capacitance charge at the clock rate; with a fixed
    grid/IO power floor this reproduces "Serv burns RISSP-RV32E-class power
    despite being 35 % smaller".
  * **Routing adds delay.**  Post-route critical paths are ~25 % slower
    than synthesis estimates, which is why none of the cores closed at
    synthesis fmax and the paper iterated downward.  Every layout is
    implemented at the paper's final 300 kHz point, and reports its
    post-route fmax beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..synth.power import FF_ENERGY_FACTOR
from ..synth.report import SynthReport
from ..synth.techlib import FLEXIC_GEN3
from ..synth.timing import SWEEP_STEP_KHZ

#: Placement utilization of a flop-free design.
BASE_UTILIZATION = 0.75
#: Utilization lost per unit of FF area fraction (clock-tree congestion).
UTIL_FF_PENALTY = 0.365
#: Fixed die overhead in GE-equivalents of placed area (IO ring, power grid).
DIE_FIXED_GE = 733.0
#: H-tree branching factor for clock buffers.
CTS_BRANCHING = 4
#: Clock-pin + clock-net switching energy per FF (NAND2 units, at f_clk).
CLOCK_TREE_ENERGY_PER_FF = 20.0
#: Fixed power floor: die-wide clock grid and IO drivers (mW).
FIXED_POWER_MW = 0.35
#: Post-route delay penalty over the synthesis timing estimate.
ROUTING_DELAY_FACTOR = 1.25
#: Die area per NAND2-equivalent of placed cells, um^2 (0.6 um IGZO).
UM2_PER_GE = 570.0
#: The operating point the paper converged on for all five layouts.
PAPER_IMPL_KHZ = 300


@dataclass(frozen=True)
class LayoutReport:
    """One Figure 10 tile: die geometry, FF share, power at the impl point."""

    name: str
    num_instructions: int
    target_khz: int
    cts_buffers: int
    placed_area_ge: float        # cells + CTS buffers
    utilization: float
    die_area_ge: float           # placed/util + fixed overhead
    die_width_um: float
    die_height_um: float
    die_area_mm2: float
    ff_count: int
    ff_fraction: float
    power_mw: float
    impl_fmax_khz: int           # post-route achievable frequency
    slack_ok: bool

    def summary_row(self) -> str:
        return (f"{self.name:<16} {self.die_width_um:7.0f} x "
                f"{self.die_height_um:<7.0f} {self.die_area_mm2:6.2f} mm2  "
                f"FF {100 * self.ff_fraction:4.1f}%  "
                f"{self.power_mw:6.3f} mW  #instr {self.num_instructions}")


def cts_buffer_count(dff_count: int) -> int:
    """Buffers in a balanced H-tree over ``dff_count`` sinks."""
    buffers = 0
    level = dff_count
    while level > 1:
        level = math.ceil(level / CTS_BRANCHING)
        buffers += level
    return buffers


def implement(report: SynthReport) -> LayoutReport:
    """Run the physical-implementation model for one synthesized core at
    the paper's :data:`PAPER_IMPL_KHZ`."""
    lib = FLEXIC_GEN3
    buffers = cts_buffer_count(report.area.dff_count)
    buffer_area = buffers * 1.33  # buffer cell ~ one AND2-equivalent
    placed = report.area.total_ge + buffer_area
    ff_fraction = report.area.ff_fraction
    utilization = BASE_UTILIZATION - UTIL_FF_PENALTY * ff_fraction
    die_ge = placed / utilization + DIE_FIXED_GE
    die_um2 = die_ge * UM2_PER_GE
    side = math.sqrt(die_um2)

    impl_period_ns = (report.timing.critical_path_ns * ROUTING_DELAY_FACTOR
                      + lib.clock_overhead_ns)
    impl_fmax_analog = 1e6 / impl_period_ns
    impl_fmax = int(impl_fmax_analog // SWEEP_STEP_KHZ) * SWEEP_STEP_KHZ

    comb_units = report.area.comb_ge * lib.comb_activity
    ff_units = report.area.dff_count * (FF_ENERGY_FACTOR * lib.ff_activity
                                        + CLOCK_TREE_ENERGY_PER_FF)
    dynamic = (lib.dyn_mw_per_eunit_mhz * (comb_units + ff_units)
               * (PAPER_IMPL_KHZ / 1e3))
    static = lib.leakage_mw_per_ge * die_ge
    power = static + dynamic + FIXED_POWER_MW

    return LayoutReport(
        name=report.name,
        num_instructions=len(report.mnemonics),
        target_khz=PAPER_IMPL_KHZ,
        cts_buffers=buffers,
        placed_area_ge=placed,
        utilization=utilization,
        die_area_ge=die_ge,
        die_width_um=side,
        die_height_um=side,
        die_area_mm2=die_um2 / 1e6,
        ff_count=report.area.dff_count,
        ff_fraction=ff_fraction,
        power_mw=power,
        impl_fmax_khz=impl_fmax,
        slack_ok=PAPER_IMPL_KHZ <= impl_fmax_analog)


def find_common_frequency(reports: list[SynthReport]) -> int:
    """The highest 25 kHz grid point at which every core closes post-route
    timing, never below :data:`PAPER_IMPL_KHZ`: the minimum of the cores'
    ``impl_fmax_khz``, or 300 kHz if that minimum is lower.

    A core's post-route fmax follows from its synthesis critical path
    alone, so no step-down search over targets is needed.  The paper
    stopped at 300 kHz for manufacturing and functional yield as well as
    timing; the model exposes the timing-only bound.
    """
    if not reports:
        raise ValueError("no designs to implement")
    lowest = min(implement(report).impl_fmax_khz for report in reports)
    return max(lowest, PAPER_IMPL_KHZ)
