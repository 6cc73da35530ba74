"""End-to-end methodology tests: Steps 1-3 + verification + evaluation."""

import pytest

from repro.core import RisspFlow, extract_subset, sweep_application, union_profile
from repro.compiler import compile_to_program
from repro.data import paper
from repro.isa import FULL_ISA_SIZE
from repro.workloads import WORKLOADS


@pytest.fixture(scope="module")
def flow():
    return RisspFlow()


def test_subset_extraction_from_binary():
    res = compile_to_program(WORKLOADS["xgboost"].source, "O2")
    subset = extract_subset(res.program)
    assert 10 <= len(subset) <= 20
    assert "lw" in subset and "blt" in subset


def test_isa_fraction_in_paper_band(flow):
    result = flow.generate("armpit")
    lo, hi = paper.ISA_USAGE_RANGE
    assert lo - 0.05 <= result.profile.isa_fraction <= hi + 0.05


def test_generated_core_matches_profile(flow):
    result = flow.generate("xgboost")
    core_subset = set(result.core.meta["mnemonics"])
    assert set(result.profile.mnemonics) <= core_subset
    assert "ecall" in core_subset    # halt support always included


def test_farm_targets_are_the_flow_cores(flow):
    """The farm's cosim targets and the flow share one first half, so an
    assembly image and a C app each become the same core both ways."""
    from repro.farm.campaigns import workload_target
    from repro.farm.tasks import CoreSpec
    for name in ("label_refresh", "xgboost"):
        core, program, soc = workload_target(name)
        result = flow.generate(name)
        assert CoreSpec.of(core) == CoreSpec.of(result.core)
        assert program.text_words == result.program.text_words
        assert soc is result.soc_spec


def test_flow_with_verification(flow):
    result = flow.generate("armpit", run_verification=True)
    assert result.verified["cosim"]
    assert result.verified["riscof"]


def test_flow_with_physical(flow):
    result = flow.generate("xgboost", run_physical=True)
    assert result.layout is not None
    assert result.layout.die_area_mm2 > 0


def test_subset_core_beats_baseline(flow):
    baseline = flow.full_isa_baseline()
    result = flow.generate("xgboost")
    assert result.synth.area_ge < baseline.synth.area_ge
    assert result.synth.avg_power_mw < baseline.synth.avg_power_mw


def test_domain_union_profile():
    sweeps = [sweep_application(n).profiles["O2"]
              for n in ("armpit", "xgboost")]
    domain = union_profile("wearables", sweeps)
    assert set(domain.mnemonics) == set(sweeps[0].mnemonics) \
        | set(sweeps[1].mnemonics)


def test_flag_sweep_shape():
    sweep = sweep_application("crc32")
    assert sweep.profiles["O0"].code_size_bytes > \
        sweep.profiles["O2"].code_size_bytes
    for level in ("O0", "O1", "O2", "O3", "Oz"):
        assert 5 <= sweep.profiles[level].num_distinct <= FULL_ISA_SIZE


def test_paper_table3_subsets_synthesize(flow):
    """The paper's own Table 3 subsets drive the generator directly."""
    result = flow.generate_for_subset(
        "xgboost_paper", list(paper.TABLE3_SUBSETS["xgboost"]))
    assert result.synth.fmax_khz > 1000
