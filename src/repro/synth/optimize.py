"""Post-synthesis technology-mapping statistics.

Commercial synthesis does not leave a design as 2-input primitives: AND-OR
cones (exactly what the ModularEX one-hot switch produces) map onto complex
cells (AO22/AO21), and inverted gates fold into NAND/NOR.  Simulating and
mutating the primitive netlist is simpler and equivalent, so the functional
netlist stays primitive — but *area and energy* are computed from a virtual
mapping that mirrors what the EDA tool reports.

Rules (classic standard-cell identities, applied over single-fanout fanins):

  * ``OR2(AND2, AND2)``     -> AO22  (2.5 GE replaces 3.99 GE)
  * ``OR2(AND2, x)``        -> AO21  (1.8 GE replaces 2.66 GE)
  * ``NOT(AND2)``           -> NAND2 (1.0 GE replaces 2.0 GE)
  * ``NOT(OR2)``            -> NOR2  (1.0 GE replaces 2.0 GE)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .netlist import GateType, Netlist
from .techlib import FLEXIC_GEN3

_AO22_AREA = 2.5
_AO21_AREA = 1.8
_NAND2_AREA = 1.0
_NOR2_AREA = 1.0

_SOURCES = (GateType.CONST0, GateType.CONST1, GateType.INPUT)


@dataclass
class MappedStats:
    """Virtual post-mapping cell statistics (areas in raw NAND2-eq GE)."""

    comb_area_ge: float = 0.0
    dff_count: int = 0
    cell_counts: dict[str, int] = field(default_factory=dict)

    def _bump(self, name: str) -> None:
        self.cell_counts[name] = self.cell_counts.get(name, 0) + 1


def fanout_counts(netlist: Netlist) -> dict[int, int]:
    """Fanout per node, counting primary outputs and DFF data pins."""
    fanout: dict[int, int] = {}
    for gate in netlist.gates.values():
        for dep in gate.inputs:
            fanout[dep] = fanout.get(dep, 0) + 1
    for node in netlist.outputs.values():
        fanout[node] = fanout.get(node, 0) + 1
    return fanout


def mapped_stats(netlist: Netlist) -> MappedStats:
    """Compute virtually mapped cell counts and combinational area."""
    stats = MappedStats()
    fanout = fanout_counts(netlist)
    absorbed: set[int] = set()
    gates = netlist.gates

    def is_abs_candidate(node: int, kind: GateType) -> bool:
        gate = gates.get(node)
        return (gate is not None and gate.kind is kind
                and fanout.get(node, 0) == 1 and node not in absorbed)

    # Walk ORs first so AO absorption wins over NAND/NOR folding.
    for node, gate in gates.items():
        if gate.kind is not GateType.OR2:
            continue
        a, b = gate.inputs
        a_and = is_abs_candidate(a, GateType.AND2)
        b_and = is_abs_candidate(b, GateType.AND2)
        if a_and and b_and:
            absorbed.update((node, a, b))
            stats.comb_area_ge += _AO22_AREA
            stats._bump("AO22")
        elif a_and or b_and:
            absorbed.update((node, a if a_and else b))
            stats.comb_area_ge += _AO21_AREA
            stats._bump("AO21")

    for node, gate in gates.items():
        if gate.kind is not GateType.NOT or node in absorbed:
            continue
        inner = gate.inputs[0]
        if is_abs_candidate(inner, GateType.AND2):
            absorbed.update((node, inner))
            stats.comb_area_ge += _NAND2_AREA
            stats._bump("NAND2")
        elif is_abs_candidate(inner, GateType.OR2):
            absorbed.update((node, inner))
            stats.comb_area_ge += _NOR2_AREA
            stats._bump("NOR2")

    for node, gate in gates.items():
        if node in absorbed or gate.kind in _SOURCES:
            continue
        if gate.kind is GateType.DFF:
            stats.dff_count += 1
            continue
        stats.comb_area_ge += FLEXIC_GEN3.cell(gate.kind).area_ge
        stats._bump(gate.kind.value.upper())
    return stats
