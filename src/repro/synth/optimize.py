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

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .netlist import GateType, Netlist
from .techlib import FLEXIC_GEN3

_AO22_AREA = 2.5
_AO21_AREA = 1.8
_NAND2_AREA = 1.0
_NOR2_AREA = 1.0

_inputs_of = itemgetter(1)


@dataclass
class MappedStats:
    """Virtual post-mapping cell statistics (areas in raw NAND2-eq GE)."""

    comb_area_ge: float = 0.0
    dff_count: int = 0
    cell_counts: dict[str, int] = field(default_factory=dict)


def fanout_counts(netlist: Netlist) -> dict[int, int]:
    """Fanout per node, counting primary outputs and DFF data pins."""
    fanout = Counter(chain.from_iterable(
        map(_inputs_of, netlist.gates.values())))
    fanout.update(netlist.outputs.values())
    return fanout


def mapped_stats(netlist: Netlist) -> MappedStats:
    """Compute virtually mapped cell counts and combinational area.

    The area is summed cell by cell in the order of the three walks, and
    ``cell_counts`` lists each cell at its first mapping.
    """
    gates = netlist.gates
    single = {node for node, count in fanout_counts(netlist).items()
              if count == 1}
    absorbed: set[int] = set()
    area = 0.0
    cells: dict[str, int] = {}

    def is_abs_candidate(node: int, kind: GateType) -> bool:
        return (node in single and gates[node].kind is kind
                and node not in absorbed)

    # Walk ORs first so AO absorption wins over NAND/NOR folding.
    for node, gate in gates.items():
        if gate.kind is not GateType.OR2:
            continue
        a, b = gate.inputs
        a_and = is_abs_candidate(a, GateType.AND2)
        b_and = is_abs_candidate(b, GateType.AND2)
        if a_and and b_and:
            absorbed.update((node, a, b))
            area += _AO22_AREA
            cells["AO22"] = cells.get("AO22", 0) + 1
        elif a_and or b_and:
            absorbed.update((node, a if a_and else b))
            area += _AO21_AREA
            cells["AO21"] = cells.get("AO21", 0) + 1

    for node, gate in gates.items():
        if gate.kind is not GateType.NOT or node in absorbed:
            continue
        inner = gate.inputs[0]
        if is_abs_candidate(inner, GateType.AND2):
            absorbed.update((node, inner))
            area += _NAND2_AREA
            cells["NAND2"] = cells.get("NAND2", 0) + 1
        elif is_abs_candidate(inner, GateType.OR2):
            absorbed.update((node, inner))
            area += _NOR2_AREA
            cells["NOR2"] = cells.get("NOR2", 0) + 1

    # Every other gate maps to its own cell; sources and DFFs have no
    # combinational area.
    cell_area = {kind: cell.area_ge
                 for kind, cell in FLEXIC_GEN3.cells.items()}
    del cell_area[GateType.DFF]
    own_cells: list[GateType] = []
    dff_count = 0
    for node, gate in gates.items():
        if node in absorbed:
            continue
        kind = gate.kind
        cost = cell_area.get(kind)
        if cost is None:
            if kind is GateType.DFF:
                dff_count += 1
            continue
        area += cost
        own_cells.append(kind)
    for kind, count in Counter(own_cells).items():
        cells[kind.value.upper()] = count
    return MappedStats(comb_area_ge=area, dff_count=dff_count,
                       cell_counts=cells)
