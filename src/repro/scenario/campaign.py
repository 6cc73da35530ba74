"""Coverage-guided scenario campaigns: probe, randomize, mutate, merge.

A campaign is three deterministic phases over one splitmix64 seed
stream, each sharded through the simulation farm (contiguous scenario
ranges, outcomes concatenated in shard order — bit-identical at any
worker count, ``workers=1`` the exact serial path):

1. **probes** — a fixed directed set built by
   :func:`repro.scenario.gen.mutate_toward` for every trap-cause and
   arbitration-ordering bin (the set the CI gate asserts reaches all of
   them);
2. **random** — ``count`` scenarios, scenario ``i`` drawn from
   ``derive_seed(base_seed, i)``;
3. **mutation** — while budget remains and bins are uncovered: one
   directed scenario per uncovered bin (registry order), seeded from a
   disjoint stream, the merged map re-scored after each round.  The loop
   stops at budget, saturation (nothing uncovered) or a dry round (no
   new bin covered — mutating the same targets again with fresh seeds
   explores different interrupt alignments, so one dry round means the
   remaining bins are out of this campaign's reach).

Every phase decision is a pure function of seeds plus the merged
coverage map, so the whole campaign replays from its config; every
outcome row carries its ``(scenario-id, seed)`` replay pair.
"""

from __future__ import annotations

from ..obs import telemetry as _obs
from ..verify.fuzz import FUZZ_BASE_SEED, derive_seed
from .coverage import CoverageMap, coverage_from_trace, family_bins
from .gen import DEFAULT_BUDGET, mutate_toward, random_scenario
from .run import outcome_coverage, scenario_core_spec

#: Disjoint seed-stream offsets per phase (random scenarios use indices
#: ``0..count``; these keep directed phases off that stream).
MUTATION_STREAM = 1 << 20
PROBE_STREAM = 1 << 21

#: The three fixed SoC firmware images the repository verified against
#: before the scenario engine existed — the coverage baseline the
#: acceptance gate compares campaigns to.
FIXED_WORKLOADS = ("af_detect_irq", "sensor_streaming", "label_refresh")

#: Bins the probe set must reach (the CI gate): every trap cause and
#: every arbitration ordering.
PROBE_GATE_BINS = family_bins("trap.") + family_bins("arb.")


def probe_scenarios(base_seed: int = FUZZ_BASE_SEED,
                    budget: int = DEFAULT_BUDGET) -> list:
    """The deterministic directed probe set.

    Two seeds per race/storm bin (their fine interrupt alignment is the
    seed-dependent part of the recipe), one per plain bin.
    """
    probes = []
    index = 0
    for bin_name in PROBE_GATE_BINS:
        tries = 2 if ".race." in bin_name or ".storm." in bin_name else 1
        for _ in range(tries):
            seed = derive_seed(base_seed, PROBE_STREAM + index)
            probes.append(mutate_toward(
                bin_name, seed, budget=budget,
                scenario_id=f"probe[{index:02d}]:{bin_name}:"
                            f"seed={seed:#018x}"))
            index += 1
    return probes


def _run_scenarios(scenarios, checks, spec, workers: int,
                   shards: int) -> list[dict]:
    """Shard one phase's scenarios as contiguous ranges; outcomes merge
    in scenario order."""
    from ..farm.runner import run_tasks, shard_ranges
    from ..farm.tasks import ScenarioShardTask

    if not scenarios:
        return []
    tasks = [ScenarioShardTask(
        task_id=f"scenario[{index:02d}]", core=spec,
        scenarios=tuple(scenarios[lo:hi]), checks=tuple(checks[lo:hi]))
        for index, (lo, hi) in enumerate(
            shard_ranges(len(scenarios), shards or workers))]
    outcomes: list[dict] = []
    for shard in run_tasks(tasks, workers=workers):
        outcomes.extend(shard)
    return outcomes


def _merge_outcomes(merged: CoverageMap, outcomes) -> int:
    """Fold outcome rows into the map (row order), annotating each row
    with the bins it covered first; returns how many bins were new."""
    new_total = 0
    for row in outcomes:
        cov = outcome_coverage(row)
        new_bins = [name for name in cov.covered()
                    if not merged.counts[name]]
        merged.merge(cov)
        row["new_bins"] = new_bins
        new_total += len(new_bins)
    return new_total


def scenario_campaign(count: int = 64, base_seed: int = FUZZ_BASE_SEED,
                      budget: int = DEFAULT_BUDGET, workers: int = 1,
                      shards: int = 0, golden_stride: int = 8,
                      probes: bool = True,
                      mutation_budget: int = 16) -> dict:
    """Run one coverage-guided campaign; returns the merged result.

    ``golden_stride`` samples every n-th scenario (globally numbered
    across phases) for a full golden-ISS replay compare; 0 disables.
    ``mutation_budget`` caps the directed scenarios the mutation loop
    may spend on uncovered bins (0 = random-only).
    """
    spec = scenario_core_spec()
    merged = CoverageMap()
    all_outcomes: list[dict] = []
    position = 0

    def check_flags(batch) -> tuple[bool, ...]:
        nonlocal position
        flags = tuple(golden_stride > 0
                      and (position + offset) % golden_stride == 0
                      for offset in range(len(batch)))
        position += len(batch)
        return flags

    probe_list = probe_scenarios(base_seed, budget) if probes else []
    probe_outcomes = _run_scenarios(probe_list, check_flags(probe_list),
                                    spec, workers, shards)
    probe_coverage = CoverageMap()
    _merge_outcomes(probe_coverage, probe_outcomes)
    for row in probe_outcomes:    # probes count toward the merged map too
        merged.merge(outcome_coverage(row))
    all_outcomes.extend(probe_outcomes)

    randoms = [random_scenario(
        derive_seed(base_seed, index), budget=budget,
        scenario_id=f"scn[{index:03d}]:"
                    f"seed={derive_seed(base_seed, index):#018x}")
        for index in range(count)]
    random_outcomes = _run_scenarios(randoms, check_flags(randoms), spec,
                                     workers, shards)
    _merge_outcomes(merged, random_outcomes)
    all_outcomes.extend(random_outcomes)

    spawned = 0
    rounds = 0
    while spawned < mutation_budget:
        uncovered = merged.uncovered()
        if not uncovered:
            break   # saturated
        targets = uncovered[:mutation_budget - spawned]
        batch = []
        for offset, bin_name in enumerate(targets):
            seed = derive_seed(base_seed,
                               MUTATION_STREAM + spawned + offset)
            batch.append(mutate_toward(
                bin_name, seed, budget=budget,
                scenario_id=f"mut[{spawned + offset:03d}]:{bin_name}:"
                            f"seed={seed:#018x}"))
        _obs.bump("scenario.mutants", len(batch))
        batch_outcomes = _run_scenarios(batch, check_flags(batch), spec,
                                        workers, shards)
        newly = _merge_outcomes(merged, batch_outcomes)
        all_outcomes.extend(batch_outcomes)
        spawned += len(batch)
        rounds += 1
        if not newly:
            break   # dry round: remaining bins out of reach
    # probe rows were merged before annotation; annotate consistently.
    for row in probe_outcomes:
        if "new_bins" not in row:
            row["new_bins"] = []

    failures = [{"scenario_id": row["scenario_id"], "seed": row["seed"],
                 "verdict": row["failure"]}
                for row in all_outcomes if row["failure"] is not None]
    return {
        "coverage": merged,
        "probe_coverage": probe_coverage if probes else None,
        "scenarios": all_outcomes,
        "failures": failures,
        "phases": {"probes": len(probe_outcomes),
                   "random": len(random_outcomes),
                   "mutated": spawned, "mutation_rounds": rounds,
                   "saturated": not merged.uncovered()},
    }


def probe_gate_missing(probe_coverage: CoverageMap) -> tuple[str, ...]:
    """Gate bins the probe set failed to reach (must be empty in CI)."""
    covered = set(probe_coverage.covered())
    return tuple(name for name in PROBE_GATE_BINS if name not in covered)


def fixed_workload_coverage(max_instructions: int = 2_000_000
                            ) -> CoverageMap:
    """Merged behavioral coverage of the three fixed SoC workloads —
    the pre-scenario-engine baseline the acceptance gate compares
    campaign coverage against (same extractor, same bins)."""
    from ..farm.campaigns import workload_target
    from ..rtl.core_sim import RisspSim

    merged = CoverageMap()
    for name in FIXED_WORKLOADS:
        core, program, spec = workload_target(name)
        sim = RisspSim(core, program, trace=True, backend="fused",
                       soc=spec)
        result = sim.run(max_instructions=max_instructions)
        merged.merge(coverage_from_trace(
            result.trace, result.halted_by,
            len(spec.sensor_samples) if spec is not None else 0))
    return merged
