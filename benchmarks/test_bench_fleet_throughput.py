"""Batched fleet throughput, split into construction and run.

:class:`~repro.rtl.fleet.FleetSim` batches the loop-carried state of
>= 1k core+firmware lanes into per-instance arrays and advances the
whole fleet inside one generated pass, sharing one per-word decode cache
across all lanes.  Its baseline is the single-core fused backend
constructed and run in a Python loop over the same lanes.

That baseline used to be dominated by construction: every
:class:`~repro.rtl.core_sim.RisspSim` re-walked and re-hashed the core,
76% of single-core end-to-end time on this workload, which is where the
old >= 3x fleet speedup came from.  Checked cores are now frozen with
their derived facts memoized, so construction is near-free and the
batched loop measures ~1.0-1.2x end to end.  The speedup and the
construct/run split are reported; whether the fleet loop earns its code
is an open decision fed by these numbers.

Gate: single-core construction stays <= 25% of single-core end-to-end
time, so per-instance construction keeps deriving nothing per use.
Before any timing, :func:`repro.farm.fleet_throughput_metrics` asserts
sampled-lane bit-identity (full RVFI columns) against single-core fused:
a throughput over wrong results is not a throughput.
"""

from repro.farm import fleet_throughput_metrics

INSTANCES = 1024
CONSTRUCT_SHARE_GATE = 0.25


def test_bench_fleet_throughput(benchmark, bench_artifact):
    metrics = benchmark.pedantic(
        lambda: fleet_throughput_metrics(instances=INSTANCES),
        rounds=1, iterations=1)
    construct = metrics["construct_s"]
    run = metrics["run_s"]
    print(f"\n=== batched fleet throughput ({metrics['instances']} "
          f"instances, {metrics['retirements']} retirements, "
          f"{metrics['equivalence_sampled_lanes']} lanes "
          f"equivalence-sampled) ===")
    print(f"fleet  : {metrics['fleet_cycles_per_sec']:12,.0f} cycles/sec "
          f"(construct {construct['fleet_batched']:.3f}s + run "
          f"{run['fleet_batched']:.3f}s)")
    print(f"single : {metrics['single_cycles_per_sec']:12,.0f} cycles/sec "
          f"(construct {construct['single_core_sampled']:.3f}s + run "
          f"{run['single_core_sampled']:.3f}s, "
          f"{metrics['single_sampled_instances']} sampled instances)")
    print(f"speedup: {metrics['speedup_vs_single']:.2f}x; single-core "
          f"construction {metrics['single_construct_share']:.0%} of end "
          f"to end")
    bench_artifact("fleet_throughput", metrics)
    assert metrics["instances"] >= 1000
    assert metrics["retirements"] > 0
    assert metrics["equivalence_sampled_lanes"] > 0
    assert metrics["single_construct_share"] <= CONSTRUCT_SHARE_GATE, (
        f"single-core construction is "
        f"{metrics['single_construct_share']:.0%} of end-to-end time "
        f"> {CONSTRUCT_SHARE_GATE:.0%}: constructing a sim on a frozen "
        f"core re-derives something")
