"""FlexIC technology library model (Pragmatic 0.6 µm IGZO, "Gen3").

The paper synthesizes with a commercial EDA tool against Pragmatic's
FlexIC process.  We model the process as a small standard-cell library with
per-cell area (NAND2-equivalents), delay and switching energy, plus the two
process facts §4.2.3 states explicitly:

  * a flip-flop consumes ~10x the power of a NAND2 gate,
  * the process is slow (metal-oxide TFTs): cores clock in the ~1-2 MHz
    range at 3 V.

Calibration: exactly three constants (``area_scale``, ``delay_ns_per_unit``
and the two power coefficients) are fitted to the paper's published anchor
for the *full-ISA baseline only* (RISSP-RV32E ~= 1700 kHz, ~3.2 kGE,
~0.9 mW at fmax).  Every per-application result is then produced by the
model.  A bounded deterministic perturbation (``jitter_pct``) stands in for
commercial-synthesis heuristic variance, which Figure 6 shows (some RISSPs
clock below the full-ISA core).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .netlist import GateType


@dataclass(frozen=True)
class CellInfo:
    """Area in NAND2-equivalents, delay and switching energy in NAND2 units."""

    area_ge: float
    delay_units: float
    energy_units: float


@dataclass(frozen=True)
class TechLib:
    name: str
    cells: dict[GateType, CellInfo] = field(default_factory=dict)
    #: raw modeled GE -> reported NAND2-eq gate count (fits RV32E anchor).
    area_scale: float = 1.0
    #: ns of real delay per NAND2 delay unit.
    delay_ns_per_unit: float = 1.0
    #: fixed per-cycle timing overhead: clk->q + setup + skew margin (ns).
    clock_overhead_ns: float = 0.0
    #: static power per (reported) NAND2-eq of area, mW.
    leakage_mw_per_ge: float = 0.0
    #: dynamic power per energy-unit per MHz of clock, mW.
    dyn_mw_per_eunit_mhz: float = 0.0
    #: average switching activity of combinational cells.
    comb_activity: float = 0.15
    #: flip-flops are clocked every cycle.
    ff_activity: float = 1.0
    #: bounded deterministic synthesis-variance on the critical path.
    jitter_pct: float = 0.06
    #: supply voltage (V), for reporting.
    vdd: float = 3.0

    def cell(self, kind: GateType) -> CellInfo:
        return self.cells[kind]


def design_jitter(lib: TechLib, seed: str) -> float:
    """Deterministic per-design delay factor in [1-j, 1+j].

    Stands in for commercial-synthesis heuristic noise; seeded by the design
    identity so results are reproducible run to run.
    """
    digest = hashlib.sha256(seed.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return 1.0 + lib.jitter_pct * (2.0 * unit - 1.0)


def _cells() -> dict[GateType, CellInfo]:
    # Areas: classic NAND2-equivalent factors; delays relative to NAND2=1.0;
    # energies proportional to area except the DFF, which the paper pins at
    # 10x a NAND2's power.
    return {
        GateType.NOT: CellInfo(area_ge=0.67, delay_units=0.6,
                               energy_units=0.7),
        GateType.AND2: CellInfo(area_ge=1.33, delay_units=1.2,
                                energy_units=1.3),
        GateType.OR2: CellInfo(area_ge=1.33, delay_units=1.2,
                               energy_units=1.3),
        GateType.XOR2: CellInfo(area_ge=2.33, delay_units=1.8,
                                energy_units=2.2),
        GateType.MUX2: CellInfo(area_ge=2.33, delay_units=1.6,
                                energy_units=2.1),
        GateType.DFF: CellInfo(area_ge=6.0, delay_units=1.5,
                               energy_units=10.0),
    }


#: DFF setup time used when closing timing into a flop (delay units).
DFF_SETUP_UNITS = 1.0

#: Pragmatic FlexIC Gen3-like 0.6 um IGZO library, calibrated to the
#: RISSP-RV32E anchors (see module docstring).  The calibration constants
#: were fitted once and are fixed here; the anchors are checked by
#: tests/test_synth.py::test_calibration_anchors.
FLEXIC_GEN3 = TechLib(
    name="flexic-gen3-0.6um-igzo",
    cells=_cells(),
    area_scale=0.265,
    delay_ns_per_unit=4.65,
    clock_overhead_ns=30.0,
    leakage_mw_per_ge=1.39e-4,
    dyn_mw_per_eunit_mhz=3.83e-4,
    comb_activity=0.10,
    ff_activity=1.0,
    jitter_pct=0.06,
    vdd=3.0,
)
