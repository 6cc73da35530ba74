"""Static timing analysis over the gate netlist.

Computes the longest register-to-register / input-to-output combinational
path, converts it to a clock period against the technology library, and
replays the paper's frequency search: sweep the target clock from 100 kHz in
25 kHz steps up to 3 MHz and report the highest frequency with positive
slack (§4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import GateType, Netlist
from .techlib import DFF_SETUP_UNITS, FLEXIC_GEN3, design_jitter

SWEEP_START_KHZ = 100
SWEEP_STEP_KHZ = 25
SWEEP_STOP_KHZ = 3000


@dataclass(frozen=True)
class TimingReport:
    critical_path_units: float   # technology-independent depth
    critical_path_ns: float      # with library delays + jitter
    period_ns: float             # + clock overhead + setup
    fmax_khz_analog: float       # 1/period
    fmax_khz: int                # snapped to the 25 kHz sweep grid
    sweep_khz: tuple[int, ...]   # all positive-slack sweep points


def critical_path_units(netlist: Netlist) -> float:
    """Longest arrival time in delay units (DFF clk->q counted at source),
    in one pass over the gates in creation (so topological) order."""
    delay = {kind: cell.delay_units
             for kind, cell in FLEXIC_GEN3.cells.items()}
    clk_to_q = delay.pop(GateType.DFF)
    arrival: dict[int, float] = {}
    worst = 0.0
    flop_inputs: list[int] = []
    for node, gate in netlist.gates.items():
        step = delay.get(gate.kind)
        inputs = gate.inputs
        if step is None:   # a source
            if gate.kind is GateType.DFF:
                arrival[node] = clk_to_q
                flop_inputs.append(inputs[0])
            else:
                arrival[node] = 0.0
            continue
        here = arrival[inputs[0]]
        for dep in inputs[1:]:
            if arrival[dep] > here:
                here = arrival[dep]
        here += step
        arrival[node] = here
        if here > worst:
            worst = here
    # Paths ending in a DFF pay setup.
    for d in flop_inputs:
        end = arrival[d] + DFF_SETUP_UNITS
        if end > worst:
            worst = end
    return worst


def timing_from_units(units: float, seed: str) -> TimingReport:
    """Clock a path of ``units`` delay units (jittered by ``seed``) and
    replay the 25 kHz sweep; the RISSPs and the Serv model share it."""
    jitter = design_jitter(seed) if seed else 1.0
    path_ns = units * FLEXIC_GEN3.delay_ns_per_unit * jitter
    period_ns = path_ns + FLEXIC_GEN3.clock_overhead_ns
    fmax_khz_analog = 1e6 / period_ns  # 1/ns = GHz; x1e6 = kHz
    sweep = tuple(
        khz for khz in range(SWEEP_START_KHZ, SWEEP_STOP_KHZ + 1,
                             SWEEP_STEP_KHZ)
        if khz <= fmax_khz_analog)
    fmax = sweep[-1] if sweep else 0
    return TimingReport(critical_path_units=units,
                        critical_path_ns=path_ns,
                        period_ns=period_ns,
                        fmax_khz_analog=fmax_khz_analog,
                        fmax_khz=fmax,
                        sweep_khz=sweep)


def analyze_timing(netlist: Netlist, seed: str = "") -> TimingReport:
    """Full timing report with the paper's 25 kHz frequency sweep."""
    return timing_from_units(critical_path_units(netlist), seed)
