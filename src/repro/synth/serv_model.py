"""Structural synthesis model of Serv, the bit-serial baseline.

Serv (olofk/serv) processes the datapath one bit per cycle: the ALU is
1 bit wide, but every architectural word lives in shift registers, so the
design is dominated by flip-flops (~60 % of area after synthesis, per the
paper's Figure 10 annotation) while the combinational cone between flops is
very short (hence the highest fmax in Figure 6).  Its register file is held
in RAM, not counted here — the same exclusion applied to the RISSPs.

We model Serv structurally (FF count, combinational area, logic depth) and
push those numbers through the *same* techlib timing/power formulas the
RISSPs use, so every cross-core comparison shares one cost model.
"""

from __future__ import annotations

from ..isa.instructions import INSTRUCTIONS
from .netlist import GateType
from .optimize import MappedStats
from .report import SynthReport, area_stats
from .techlib import FLEXIC_GEN3, TechLib
from .timing import timing_from_units

#: Serial-state flip-flops: instruction/operand shift registers, serial PC,
#: FSM state, CSR-less control.  (Serv's RF lives in RAM and is excluded.)
SERV_DFF_COUNT = 132

#: Combinational area (raw modeled NAND2-eq before area_scale): the 1-bit
#: ALU, shift-register steering muxes, state machine and decode.
SERV_COMB_RAW_GE = 1992.0

#: Register-to-register logic depth in delay units — a 1-bit datapath plus
#: control fan-in, far shorter than a 32-bit single-cycle core.
SERV_PATH_UNITS = 104.0

#: Average clock cycles per instruction (paper §4.2.4).
SERV_CPI = 32.0


def synthesize_serv(lib: TechLib = FLEXIC_GEN3) -> SynthReport:
    """Produce a :class:`SynthReport` for Serv under ``lib``."""
    stats = MappedStats(comb_area_ge=SERV_COMB_RAW_GE,
                        dff_count=SERV_DFF_COUNT,
                        cell_counts={"SERIAL_CORE": 1})
    return SynthReport(
        name="serv",
        mnemonics=tuple(d.mnemonic for d in INSTRUCTIONS),
        gate_counts={GateType.DFF: SERV_DFF_COUNT},
        mapped=stats,
        area=area_stats(stats, lib),
        timing=timing_from_units(SERV_PATH_UNITS, lib, seed="serv"),
        lib=lib)
