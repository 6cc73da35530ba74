"""Pinned modelled numbers: the synthesis and layout figures of the two
baselines and the three extreme-edge RISSPs (the Figure 10 set, built
from the paper's Table 3 subsets), compared by ``repr``.

A change that moves any of them fails here and has to restate the value,
so modelled drift shows in review instead of hiding inside the figure
benches' loose bands.  For the four generated cores the netlist itself is
pinned too, gate for gate, by a digest that must not depend on the
interpreter's hash seed (CI runs this file under three seeds).
"""

import hashlib

import pytest

from repro.core import RisspFlow
from repro.data import paper
from repro.physical import implement
from repro.synth import lower_module, synthesize_serv

#: (area_ge, avg_area_ge, avg_power_mw, fmax_khz, power_at_fmax.total_mw)
SYNTH = {
    "rv32e": ("3195.9790499999312", "3286.9201618460465",
              "0.6749381438965937", "1700", "0.8992657837374003"),
    "serv": ("1319.88", "1356.827003046502", "0.7546855786215197", "2050",
             "1.2791774591677239"),
    "armpit": ("1877.6676499999576", "1930.4107539437687",
               "0.4461844701008762", "1775", "0.6228224667965201"),
    "xgboost": ("1665.558999999962", "1711.9470148600628",
                "0.4078780065182481", "1775", "0.5752271356918215"),
    "af_detect": ("2351.0901499999495", "2417.44952918714",
                  "0.5289701160685683", "1750", "0.723407917589372"),
}

#: (die_area_mm2, power_mw) of each core's layout at 300 kHz.
LAYOUT = {
    "rv32e": ("2.9313609055947403", "1.2096603611751462"),
    "serv": ("1.900359376447926", "1.2744903119478272"),
    "armpit": ("1.931271929590498", "0.9506316164091648"),
    "xgboost": ("1.7706496845879445", "0.9090252037130245"),
    "af_detect": ("2.2901710565455726", "1.0435922561039108"),
}


#: The rest of each generated core's report, by ``repr``: gate counts,
#: mapped cells (their insertion order included) and the critical path.
NETLIST_STATS = {
    "rv32e": (
        "{<GateType.DFF: 'dff'>: 32, <GateType.NOT: 'not'>: 87, "
        "<GateType.OR2: 'or2'>: 3012, <GateType.AND2: 'and2'>: 3310, "
        "<GateType.MUX2: 'mux2'>: 1776, <GateType.XOR2: 'xor2'>: 421}",
        "MappedStats(comb_area_ge=11335.76999999974, dff_count=32, "
        "cell_counts={'AO22': 1297, 'AO21': 341, 'NOR2': 24, 'NOT': 63, "
        "'OR2': 1350, 'AND2': 375, 'MUX2': 1776, 'XOR2': 421})",
        "113.60000000000014"),
    "armpit": (
        "{<GateType.DFF: 'dff'>: 32, <GateType.NOT: 'not'>: 78, "
        "<GateType.OR2: 'or2'>: 1220, <GateType.AND2: 'and2'>: 1561, "
        "<GateType.MUX2: 'mux2'>: 1206, <GateType.XOR2: 'xor2'>: 360}",
        "MappedStats(comb_area_ge=6361.009999999839, dff_count=32, "
        "cell_counts={'AO22': 558, 'AO21': 219, 'NOR2': 19, 'NOT': 59, "
        "'OR2': 424, 'AND2': 226, 'MUX2': 1206, 'XOR2': 360})",
        "110.00000000000013"),
    "xgboost": (
        "{<GateType.DFF: 'dff'>: 32, <GateType.NOT: 'not'>: 67, "
        "<GateType.OR2: 'or2'>: 991, <GateType.AND2: 'and2'>: 1306, "
        "<GateType.MUX2: 'mux2'>: 1120, <GateType.XOR2: 'xor2'>: 297}",
        "MappedStats(comb_area_ge=5560.599999999857, dff_count=32, "
        "cell_counts={'AO22': 471, 'AO21': 142, 'NOR2': 17, 'NOT': 50, "
        "'OR2': 361, 'AND2': 222, 'MUX2': 1120, 'XOR2': 297})",
        "108.80000000000013"),
    "af_detect": (
        "{<GateType.DFF: 'dff'>: 32, <GateType.NOT: 'not'>: 84, "
        "<GateType.OR2: 'or2'>: 1813, <GateType.AND2: 'and2'>: 2157, "
        "<GateType.MUX2: 'mux2'>: 1449, <GateType.XOR2: 'xor2'>: 390}",
        "MappedStats(comb_area_ge=8147.509999999808, dff_count=32, "
        "cell_counts={'AO22': 818, 'AO21': 272, 'NOR2': 21, 'NOT': 63, "
        "'OR2': 702, 'AND2': 249, 'MUX2': 1449, 'XOR2': 390})",
        "111.20000000000013"),
}

#: SHA-256 of each generated core's ``lower_module`` netlist (see
#: :func:`netlist_digest`).
NETLIST_DIGESTS = {
    "rv32e":
        "de36baa752bc31526f4f5461247219238297bb5cc61b7764ede1eac510f7b8e7",
    "armpit":
        "f66720f7c096ce21c66d30fa6d92fad592f0c382b25c767e400451fc302034a2",
    "xgboost":
        "21996439ee6a45c9d1f67e0f43cc570c3de57a622e7325040ae4216f9ce623f7",
    "af_detect":
        "b40b39e16b265bec309ed1b781cce8049bcaaa933694887fc3431b0b2546303a",
}


def netlist_digest(netlist) -> str:
    """Each gate's ``(id, kind, inputs, name)`` in dict order, then the
    sorted outputs and DFF initial values."""
    digest = hashlib.sha256()
    for node, gate in netlist.gates.items():
        digest.update(repr((node, gate.kind.value, gate.inputs,
                            gate.name)).encode())
    digest.update(repr(sorted(netlist.outputs.items())).encode())
    digest.update(repr(sorted(netlist.dff_init.items())).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def results():
    flow = RisspFlow()
    out = {"rv32e": flow.full_isa_baseline()}
    for name in ("armpit", "xgboost", "af_detect"):
        out[name] = flow.generate_for_subset(
            name, list(paper.TABLE3_SUBSETS[name]))
    return out


@pytest.fixture(scope="module")
def reports(results):
    out = {name: result.synth for name, result in results.items()}
    out["serv"] = synthesize_serv()
    return out


@pytest.mark.parametrize("name", sorted(SYNTH))
def test_synthesis_numbers_are_pinned(reports, name):
    report = reports[name]
    got = tuple(repr(value) for value in (
        report.area_ge, report.avg_area_ge, report.avg_power_mw,
        report.fmax_khz, report.power_at_fmax.total_mw))
    assert got == SYNTH[name]


@pytest.mark.parametrize("name", sorted(LAYOUT))
def test_layout_numbers_are_pinned(reports, name):
    layout = implement(reports[name])
    assert (repr(layout.die_area_mm2), repr(layout.power_mw)) == LAYOUT[name]


@pytest.mark.parametrize("name", sorted(NETLIST_STATS))
def test_netlist_statistics_are_pinned(reports, name):
    report = reports[name]
    got = (repr(report.gate_counts), repr(report.mapped),
           repr(report.timing.critical_path_units))
    assert got == NETLIST_STATS[name]


@pytest.mark.parametrize("name", sorted(NETLIST_DIGESTS))
def test_netlists_are_pinned_gate_for_gate(results, name):
    netlist = lower_module(results[name].core)
    assert netlist_digest(netlist) == NETLIST_DIGESTS[name]
