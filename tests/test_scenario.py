"""Coverage-guided scenario engine (PR 9): generation, replay,
coverage extraction, campaign determinism, CLI stage contract."""

from __future__ import annotations

import json
import pickle

import pytest

from repro import cli
from repro.scenario import (BINS, CoverageMap, FleetScenario, SocScenario,
                            build_report, mutate_toward, outcome_coverage,
                            probe_gate_missing, probe_scenarios,
                            random_scenario, replay_scenario, run_scenario,
                            run_soc_scenario, scenario_campaign,
                            scenario_core_spec, validate_report)
from repro.scenario.coverage import coverage_from_trace
from repro.scenario.run import _compare_soc_backends
from repro.verify.fuzz import FUZZ_BASE_SEED, derive_seed


@pytest.fixture(scope="module")
def core():
    return scenario_core_spec().build()


def _seeds(n, stream=0):
    return [derive_seed(FUZZ_BASE_SEED, stream + index)
            for index in range(n)]


# ------------------------------------------------- scenarios are values


def test_scenarios_pickle_round_trip_and_compare_equal():
    for index, seed in enumerate(_seeds(24)):
        scenario = random_scenario(seed, scenario_id=f"t[{index}]")
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        if isinstance(scenario, SocScenario):
            assert clone.source() == scenario.source()
        else:
            assert [clone.lane_source(lane)
                    for lane in range(len(clone.lanes))] == \
                [scenario.lane_source(lane)
                 for lane in range(len(scenario.lanes))]


def test_generation_is_a_pure_function_of_the_seed():
    for seed in _seeds(16):
        assert random_scenario(seed) == random_scenario(seed)
    for bin_name in ("trap.ecall", "arb.race.sensor_first",
                     "fleet.diverge.rv32e_bound"):
        seed = derive_seed(FUZZ_BASE_SEED, 7)
        assert mutate_toward(bin_name, seed) == \
            mutate_toward(bin_name, seed)


def test_every_reported_id_replays_to_the_same_scenario():
    # The exact contract printed in failure reports: the (scenario-id,
    # seed) pair alone rebuilds the scenario object.
    rows = [random_scenario(
        seed, scenario_id=f"scn[{index:03d}]:seed={seed:#018x}")
        for index, seed in enumerate(_seeds(12))]
    rows += [mutate_toward(
        "wfi.wake.masked", seed,
        scenario_id=f"mut[{index:03d}]:wfi.wake.masked:seed={seed:#018x}")
        for index, seed in enumerate(_seeds(4, stream=500))]
    rows += probe_scenarios()
    for scenario in rows:
        assert replay_scenario(scenario.scenario_id,
                               scenario.seed) == scenario


def test_replay_runs_bit_identically(core):
    # Same scenario, run twice: outcome rows (result, bins, everything)
    # must be byte-equal — the replay half of the replay-pair promise.
    for seed in _seeds(6):
        scenario = random_scenario(seed, scenario_id="replay")
        assert run_scenario(core, scenario) == run_scenario(core, scenario)


def test_mutate_toward_rejects_unknown_bin():
    with pytest.raises(ValueError, match="unknown coverage bin"):
        mutate_toward("bogus.bin", FUZZ_BASE_SEED)


# --------------------------------------------- cross-backend equivalence


def test_soc_scenarios_match_golden_column_for_column(core):
    # Full RVFI-column compare on a sample, fault injection included:
    # the segmented fused run and the segmented golden run concatenate
    # into identical master traces.
    checked = 0
    for seed in _seeds(10):
        scenario = random_scenario(seed, scenario_id="xback")
        if not isinstance(scenario, SocScenario):
            continue
        info, trace = run_soc_scenario(core, scenario, "fused")
        assert _compare_soc_backends(core, scenario, info, trace) is None
        checked += 1
    assert checked >= 5


def test_coverage_is_backend_independent(core):
    scenario = mutate_toward("arb.race.timer_first",
                             derive_seed(FUZZ_BASE_SEED, 3))
    fused_info, fused_trace = run_soc_scenario(core, scenario, "fused")
    golden_info, golden_trace = run_soc_scenario(core, scenario, "golden")
    samples = len(scenario.waveform.samples())
    assert coverage_from_trace(fused_trace, fused_info["halted_by"],
                               samples) == \
        coverage_from_trace(golden_trace, golden_info["halted_by"],
                            samples)


def test_fault_injection_perturbs_the_run(core):
    # A register fault on the checksum register must change the observed
    # exit code (otherwise "fault injection" is a no-op) while both
    # backends still agree on the perturbed run.
    import dataclasses

    from repro.scenario.gen import FaultEvent
    base = mutate_toward("halt.poweroff", derive_seed(FUZZ_BASE_SEED, 5))
    faulted = dataclasses.replace(
        base, faults=(FaultEvent(10, "reg", 9, 0x1234_5678),))
    clean_info, _ = run_soc_scenario(core, base, "fused")
    fault_info, fault_trace = run_soc_scenario(core, faulted, "fused")
    assert clean_info["halted_by"] == fault_info["halted_by"] \
        == "poweroff"
    assert clean_info["exit_code"] != fault_info["exit_code"]
    assert _compare_soc_backends(core, faulted, fault_info,
                                 fault_trace) is None


# ------------------------------------------------------ directed recipes


@pytest.mark.parametrize("bin_name", [
    "trap.ecall", "trap.illegal", "arb.race.timer_first",
    "arb.storm.sensor", "wfi.wake.masked", "sensor.drained",
    "halt.wfi", "fleet.diverge.rv32e_bound"])
def test_mutate_toward_reaches_its_bin(core, bin_name):
    hit = False
    for seed in _seeds(3, stream=900):
        outcome = run_scenario(core, mutate_toward(bin_name, seed))
        if outcome_coverage(outcome).counts[bin_name]:
            hit = True
            break
    assert hit, f"directed recipe never reached {bin_name}"


def test_probe_set_reaches_every_gate_bin(core):
    merged = CoverageMap()
    for scenario in probe_scenarios():
        merged.merge(outcome_coverage(run_scenario(core, scenario)))
    assert probe_gate_missing(merged) == ()


# ----------------------------------------------------- campaign + report


@pytest.fixture(scope="module")
def small_campaign():
    return scenario_campaign(count=8, workers=1, mutation_budget=4,
                             golden_stride=6)


def test_campaign_is_bit_identical_across_worker_counts(small_campaign):
    other = scenario_campaign(count=8, workers=4, mutation_budget=4,
                              golden_stride=6)
    assert other["coverage"] == small_campaign["coverage"]
    assert list(other["coverage"].counts) == \
        list(small_campaign["coverage"].counts)  # bin ordering too
    assert [row["scenario_id"] for row in other["scenarios"]] == \
        [row["scenario_id"] for row in small_campaign["scenarios"]]
    assert [row["bins"] for row in other["scenarios"]] == \
        [row["bins"] for row in small_campaign["scenarios"]]
    assert [row["checked_backends"] for row in other["scenarios"]] == \
        [row["checked_backends"] for row in small_campaign["scenarios"]]
    assert other["failures"] == small_campaign["failures"]


def test_campaign_rows_carry_the_replay_pair(small_campaign):
    for row in small_campaign["scenarios"]:
        replayed = replay_scenario(row["scenario_id"], row["seed"],
                                   row["budget"])
        assert replayed.seed == row["seed"]
        assert replayed.kind == row["kind"]
        assert replayed.budget == row["budget"]


def test_campaign_rows_replay_exactly_below_the_default_budget():
    """A row carries its scenario's budget, so a campaign run below the
    default budget (as the benchmark's farm campaign is) replays to the
    scenarios it ran, not to their default-budget twins."""
    campaign = scenario_campaign(count=4, budget=5_000, probes=False,
                                 mutation_budget=0, golden_stride=0)
    rows = campaign["scenarios"]
    assert len(rows) == 4
    for row in rows:
        ran = random_scenario(row["seed"], budget=5_000,
                              scenario_id=row["scenario_id"])
        assert row["budget"] == ran.budget
        assert replay_scenario(row["scenario_id"], row["seed"],
                               row["budget"]) == ran


def test_campaign_merged_map_equals_row_sum(small_campaign):
    total = CoverageMap()
    for row in small_campaign["scenarios"]:
        total.merge(outcome_coverage(row))
    assert total == small_campaign["coverage"]


def test_report_schema_round_trip(small_campaign, tmp_path):
    document = build_report(small_campaign, {"count": 8})
    assert validate_report(document) == []
    assert list(document["bins"]) == list(BINS)
    # The writer refuses a tampered document.
    broken = json.loads(json.dumps(document))
    broken["covered"] = []
    assert validate_report(broken)
    del broken["covered"]
    assert validate_report(broken)


def test_coverage_map_rejects_structure_drift():
    with pytest.raises(ValueError, match="unknown coverage bin"):
        CoverageMap().hit("nope")
    doc = CoverageMap().to_doc()
    reordered = dict(reversed(list(doc.items())))
    with pytest.raises(ValueError, match="registry"):
        CoverageMap.from_doc(reordered)


# -------------------------------------------------------- the CLI stage


def test_cli_scenarios_stage_writes_validated_report(tmp_path, capsys):
    report_path = tmp_path / "cov.json"
    code = cli.main(["scenarios", "--scenario-count", "6",
                     "--scenario-mutation", "4", "--workers", "2",
                     "--scenario-golden-stride", "0",
                     "--coverage-out", str(report_path)])
    assert code == 0
    assert capsys.readouterr().out == ""   # stdout stays machine-clean
    document = json.loads(report_path.read_text())
    assert validate_report(document) == []
    assert document["probe_bins"] is not None
    assert len(document["covered"]) > 0


def test_cli_failure_line_carries_the_replay_triple(monkeypatch, capsys):
    # Seed a verdict on every checked scenario; at one worker the
    # campaign runs in-process, so the patch reaches it.
    from repro.scenario import run as run_module
    monkeypatch.setattr(run_module, "_compare_soc_backends",
                        lambda *args: "mismatch:seeded")
    monkeypatch.setattr(run_module, "_compare_fleet_lanes",
                        lambda *args: "mismatch:seeded")
    code = cli.main(["scenarios", "--scenario-count", "2",
                     "--scenario-probes", "0", "--scenario-mutation", "0",
                     "--scenario-golden-stride", "1",
                     "--scenario-budget", "5000", "--workers", "1"])
    assert code == 1
    lines = [line for line in capsys.readouterr().err.splitlines()
             if "FAILURE" in line]
    assert len(lines) == 2
    for line in lines:
        assert " budget=" in line and line.endswith(": mismatch:seeded")


def test_cli_scenarios_zero_count_fails_cleanly(tmp_path):
    # No scenarios means nothing verified — never a vacuous pass.
    out = tmp_path / "results.json"
    code = cli.main(["scenarios", "--scenario-count", "0",
                     "--json-out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())["scenarios"]
    assert payload["ok"] is False and payload["covered"] == 0


def test_scenario_counters_registered():
    from repro import obs
    for name in ("scenario.runs", "scenario.replays",
                 "scenario.mutants", "scenario.failures"):
        assert name in obs.COUNTERS
    with obs.session() as telemetry:
        obs.bump("scenario.runs")
    assert telemetry.counters["scenario.runs"] == 1


def test_fleet_scenario_covers_divergence_bins(core):
    scenario = FleetScenario(scenario_id="fleet-direct", seed=1,
                             lanes=(("mret", "ecall"), ("none", "ecall")))
    outcome = run_scenario(core, scenario)
    cov = outcome_coverage(outcome)
    assert cov.counts["fleet.diverge.mret"] >= 1
    assert outcome["kind"] == "fleet"
