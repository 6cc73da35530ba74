"""FlexIC technology library model (Pragmatic 0.6 µm IGZO, "Gen3").

The paper synthesizes with a commercial EDA tool against Pragmatic's
FlexIC process.  We model the process as a small standard-cell library with
per-cell area (NAND2-equivalents) and delay, plus the two process facts
§4.2.3 states explicitly:

  * a flip-flop consumes ~10x the power of a NAND2 gate
    (:data:`repro.synth.power.FF_ENERGY_FACTOR`),
  * the process is slow (metal-oxide TFTs): cores clock in the ~1-2 MHz
    range at 3 V.

:data:`FLEXIC_GEN3` is the one library: every synthesis, timing, power and
layout function reads it directly.

Calibration: five constants (``area_scale``, ``delay_ns_per_unit``,
``clock_overhead_ns`` and the two power coefficients ``leakage_mw_per_ge``
and ``dyn_mw_per_eunit_mhz``) are fitted to the paper's published anchors
for the *full-ISA baseline* (RISSP-RV32E ~= 1700 kHz, ~3.2 kGE, ~0.9 mW at
fmax); ``tests/test_synth.py::test_calibration_anchors`` checks those and
Serv's (2050 kHz, ~1.4x RISSP-RV32E's power at fmax).  Every
per-application result is then produced by the model.
A bounded deterministic perturbation (``jitter_pct``) stands in for
commercial-synthesis heuristic variance, which Figure 6 shows (some RISSPs
clock below the full-ISA core).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .netlist import GateType


@dataclass(frozen=True)
class CellInfo:
    """Area in NAND2-equivalents, delay in NAND2 delay units."""

    area_ge: float
    delay_units: float


@dataclass(frozen=True)
class TechLib:
    cells: dict[GateType, CellInfo]
    #: raw modeled GE -> reported NAND2-eq gate count (fits RV32E anchor).
    area_scale: float
    #: ns of real delay per NAND2 delay unit.
    delay_ns_per_unit: float
    #: fixed per-cycle timing overhead: clk->q + setup + skew margin (ns).
    clock_overhead_ns: float
    #: static power per (reported) NAND2-eq of area, mW.
    leakage_mw_per_ge: float
    #: dynamic power per energy-unit per MHz of clock, mW.
    dyn_mw_per_eunit_mhz: float
    #: average switching activity of combinational cells.
    comb_activity: float
    #: switching activity of flip-flops (clocked every cycle).
    ff_activity: float
    #: bounded deterministic synthesis-variance on the critical path.
    jitter_pct: float

    def cell(self, kind: GateType) -> CellInfo:
        return self.cells[kind]


#: DFF setup time used when closing timing into a flop (delay units).
DFF_SETUP_UNITS = 1.0

#: Pragmatic FlexIC Gen3-like 0.6 um IGZO library, calibrated to the
#: RISSP-RV32E anchors (see module docstring).  The calibration constants
#: were fitted once and are fixed here; the anchors are checked by
#: tests/test_synth.py::test_calibration_anchors.  Cell areas are classic
#: NAND2-equivalent factors, delays are relative to a NAND2's.
FLEXIC_GEN3 = TechLib(
    cells={
        GateType.NOT: CellInfo(area_ge=0.67, delay_units=0.6),
        GateType.AND2: CellInfo(area_ge=1.33, delay_units=1.2),
        GateType.OR2: CellInfo(area_ge=1.33, delay_units=1.2),
        GateType.XOR2: CellInfo(area_ge=2.33, delay_units=1.8),
        GateType.MUX2: CellInfo(area_ge=2.33, delay_units=1.6),
        GateType.DFF: CellInfo(area_ge=6.0, delay_units=1.5),
    },
    area_scale=0.265,
    delay_ns_per_unit=4.65,
    clock_overhead_ns=30.0,
    leakage_mw_per_ge=1.39e-4,
    dyn_mw_per_eunit_mhz=3.83e-4,
    comb_activity=0.10,
    ff_activity=1.0,
    jitter_pct=0.06,
)


def design_jitter(seed: str) -> float:
    """Deterministic per-design delay factor in [1-j, 1+j].

    Stands in for commercial-synthesis heuristic noise; seeded by the design
    identity so results are reproducible run to run.
    """
    digest = hashlib.sha256(seed.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return 1.0 + FLEXIC_GEN3.jitter_pct * (2.0 * unit - 1.0)
