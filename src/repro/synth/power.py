"""Power model: static leakage + dynamic switching (§4.2.3).

``P(f) = leakage(total area) + f * dyn_coeff * switching_units`` where

  * combinational switching is proportional to mapped combinational area
    (1 energy unit per NAND2-equivalent) weighted by average activity,
  * each flip-flop contributes 10 energy units at activity 1.0 — the FlexIC
    process fact the paper uses to explain why the FF-heavy Serv draws more
    power than larger RISSPs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .techlib import FLEXIC_GEN3

#: Flip-flop switching energy relative to one NAND2-equivalent of logic.
FF_ENERGY_FACTOR = 10.0


@dataclass(frozen=True)
class PowerBreakdown:
    static_mw: float
    dynamic_mw: float

    @property
    def total_mw(self) -> float:
        return self.static_mw + self.dynamic_mw


def switching_units(comb_area_ge: float, dff_count: int) -> float:
    """Activity-weighted switching energy units for a design."""
    return (comb_area_ge * FLEXIC_GEN3.comb_activity
            + dff_count * FF_ENERGY_FACTOR * FLEXIC_GEN3.ff_activity)


def power_at(comb_area_ge: float, dff_count: int, total_area_ge: float,
             freq_khz: float) -> PowerBreakdown:
    """Power (mW) at ``freq_khz`` for the given area statistics."""
    static = FLEXIC_GEN3.leakage_mw_per_ge * total_area_ge
    dynamic = (FLEXIC_GEN3.dyn_mw_per_eunit_mhz
               * switching_units(comb_area_ge, dff_count)
               * (freq_khz / 1e3))
    return PowerBreakdown(static_mw=static, dynamic_mw=dynamic)
