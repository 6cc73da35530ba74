"""Pinned modelled numbers: the synthesis and layout figures of the two
baselines and the three extreme-edge RISSPs (the Figure 10 set, built
from the paper's Table 3 subsets), compared by ``repr``.

A change that moves any of them fails here and has to restate the value,
so modelled drift shows in review instead of hiding inside the figure
benches' loose bands.
"""

import pytest

from repro.core import RisspFlow
from repro.data import paper
from repro.physical import implement
from repro.synth import synthesize_serv

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


@pytest.fixture(scope="module")
def reports():
    flow = RisspFlow()
    out = {"rv32e": flow.full_isa_baseline().synth,
           "serv": synthesize_serv()}
    for name in ("armpit", "xgboost", "af_detect"):
        out[name] = flow.generate_for_subset(
            name, list(paper.TABLE3_SUBSETS[name])).synth
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
