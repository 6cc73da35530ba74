"""The repository benchmark: three workloads from firmware source to verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/repro``.  Each workload
is a closed loop of calls into one public entry point of the package:

``edge_flow``
    ``RisspFlow().generate(app, run_verification=True, run_physical=True)``
    over the paper's extreme-edge apps and the SoC firmware images.
    Cold: every pass is a fresh interpreter with an empty
    ``$REPRO_CACHE_DIR``, because in-process memos make a second pass
    cheaper than a new app ever sees.
``farm_campaign``
    ``cli.run(FarmConfig(stages=(cosim, mutation, scenarios), workers=2))``
    with fuzz and scenario seeds derived from ``--seed`` and new for each
    campaign of a run.  Warm: one checked campaign on fixed seeds runs
    in set-up, because cold campaigns on two workers spread too widely
    to compare; every timed campaign still spawns its own pools, whose
    workers compile every mutant afresh.
``fleet_lanes``
    ``FleetSim`` construct, poke each lane's ``a2`` from
    ``fleet_lane_value`` (lane offset derived from ``--seed``), then
    ``run`` on ``FLEET_EXERCISE_PROGRAM``.  Warm: ``compile_fleet`` runs
    in set-up.

Every output is checked before a time is reported; any failed check
makes the run incorrect and the exit code 1.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics below; ``--trace 1`` adds
span wrappers and a telemetry session around some of the calls and
reports the per-layer metrics instead.  A full record of the run (every
sample, the spans, the seed, host provenance and the git commit) is
written under ``.perfbench/results/``.

End-to-end metrics are defined on every workload, for one *call* (of the
public entry point above) and one *round* (the workload's whole input
set: all apps, one campaign, one fleet batch).  Every time and rate is
at the reference host speed of ``hostclock.py``: each timed interval is
scaled by a calibration loop run just before and just after it, because
the small shared hosts this runs on drift in speed by tens of percent
within a minute.  Raw times are kept in the record.

``setup_s``       median time from interpreter start to the first timed
                  call (imports, target build, cache warm-up), over
                  at least three set-ups
``app_p50_s``     median call latency; on edge_flow, per app, over at
                  least five cold passes
``app_p90_s``     90th percentile call latency (sample count printed)
``campaign_s``    median round time
``cosim_rps``     lock-step verified retirements per second of
                  untraced ``cosimulate(core, program, soc=...)`` calls
                  (fused backend, verdicts checked, simulator construction
                  included) on the workload's own cores and programs: the
                  seven generated apps (edge_flow), the cosim stage's
                  named workloads (farm_campaign), the lane loop with each
                  lane parameter (fleet_lanes); median over rounds
``fleet_rps``     retirements per second of the whole round,
                  counting construction, pokes and run (on fleet_lanes,
                  the lanes of one ``FleetSim`` batch); median over rounds
``peak_rss_mb``   peak resident memory of this process and its children
``area_ge``       modelled: NAND2-equivalent area summed over the cores
                  the workload targets
``power_mw``      modelled: average power summed over the same cores
``sim_cycles``    modelled: simulated cycles, on their RISSPs, of the
                  programs every round repeats (the apps, the farm's
                  named cosim workloads, the fleet lanes)

Modelled numbers are deterministic: every round of a run, traced or
not, must reproduce them exactly, or the run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Hard limit for one benchmark run; children get what is left of it.
RUN_LIMIT_S = 170.0

#: Set-ups sampled per run for ``setup_s``, at least.
SETUP_SAMPLES = 3

#: Untraced cold rounds per run, at least: an edge_flow pass takes about
#: 8 s on a 2-CPU host whose speed wanders by tens of percent within a
#: minute, so medians need five of them.
COLD_ROUNDS = 5


class ChildFailed(RuntimeError):
    pass


class Run:
    """Spawns benchmark children and keeps what they report."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.started = time.monotonic()
        self.dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.children = 0
        self.docs: list[dict] = []
        self.setups: list[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, role: str, **fields) -> None:
        """Run one child in a fresh interpreter with an empty cache dir."""
        self.children += 1
        cache = self.dir / f"cache-{self.children}"
        cache.mkdir()
        out = self.dir / f"child-{self.children}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   REPRO_CACHE_DIR=str(cache))
        env.pop("REPRO_RTL_BACKEND", None)
        spec = {"role": role, "seed": self.args.seed,
                "seconds": self.args.seconds, "trace": self.args.trace,
                "traced": False, "cache": str(cache), "out": str(out),
                **fields}
        spec["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{role}: timed out") from None
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-2000:]
            raise ChildFailed(f"{role}: exit {proc.returncode}\n{tail}")
        doc = json.loads(out.read_text())
        self.setups.append(doc["setup_s"])
        if "units" in doc:   # set-up-only children time no rounds
            self.docs.append(doc)


def _fresh_rounds(run: Run, role: str) -> None:
    """Cold workloads: one round per fresh interpreter until ``--seconds``
    have passed and at least ``COLD_ROUNDS`` rounds ran; with tracing,
    untraced and traced rounds alternate."""
    minimum = max(SETUP_SAMPLES, 4 if run.args.trace else COLD_ROUNDS)
    rounds = 0
    while rounds < minimum or run.elapsed() < run.args.seconds:
        traced = bool(run.args.trace) and rounds % 2 == 1
        run.spawn(role, traced=traced)
        rounds += 1


def _warm(run: Run, role: str) -> None:
    """Warm workloads: set-up-only children, then one measuring child."""
    for _ in range(SETUP_SAMPLES - 1):
        run.spawn(f"{role}_setup")
    run.spawn(role)


DRIVERS = {
    "edge_flow": lambda run: _fresh_rounds(run, "edge_pass"),
    "farm_campaign": lambda run: _warm(run, "farm_campaign"),
    "fleet_lanes": lambda run: _warm(run, "fleet_lanes"),
}


# ----------------------------------------------------------- aggregation

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def aggregate(run: Run) -> dict:
    """Metrics of the run's rounds, or the failures that withhold them."""
    failures: list[str] = []
    attempted = 0
    modelled: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []
    for doc in run.docs:
        attempted += doc["attempted"]
        failures += doc["failures"]
        modelled.append(doc["modelled"])
        for unit in doc["units"]:
            (traced if unit["traced"] else plain).append(unit)
    if not modelled:
        failures.append("no round reported modelled statistics")
    elif any(m != modelled[0] for m in modelled):
        failures.append(f"modelled statistics differ between rounds: "
                        f"{modelled}")
    if not plain:
        failures.append("no untraced round")
    if run.args.trace and not traced:
        failures.append("no traced round")
    outcome = {"failures": failures, "attempted": attempted,
               "end_to_end": {}, "per_layer": {}, "samples": {}}
    if failures:
        return outcome

    latencies = [value for unit in plain for value in unit["latencies"]]
    walls = [unit["round_s"] for unit in plain]
    rusage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    outcome["end_to_end"] = {
        "setup_s": statistics.median(run.setups),
        "app_p50_s": percentile(latencies, 0.5),
        "app_p90_s": percentile(latencies, 0.9),
        "campaign_s": statistics.median(walls),
        "cosim_rps": statistics.median(
            unit["cosim_retired"] / unit["cosim_s"] for unit in plain),
        "fleet_rps": statistics.median(
            unit["retired"] / unit["round_s"] for unit in plain),
        "peak_rss_mb": rusage / 1024,
        **modelled[0],
    }
    outcome["samples"] = {"calls": len(latencies), "rounds": len(walls),
                          "traced_rounds": len(traced),
                          "setups": len(run.setups)}
    if traced:
        per_layer = {name: statistics.median(unit["layers"][name]
                                             for unit in traced)
                     for name in traced[0]["layers"]}
        per_layer["trace.overhead_s"] = \
            statistics.median(unit["round_s"] for unit in traced) - \
            statistics.median(walls)
        # edge_flow and fleet_lanes repeat the same inputs every round,
        # so every traced round must retire exactly as many instructions
        # through the fused loop.  (Each farm campaign draws new inputs;
        # a traced campaign is checked against its untraced partner's
        # results document instead.)
        if run.args.workload != "farm_campaign":
            counts = {unit["layers"]["core_sim.fused_retired"]
                      for unit in traced}
            if len(counts) != 1:
                failures.append(f"fused.retired differs between traced "
                                f"rounds: {sorted(counts)}")
        outcome["per_layer"] = per_layer
    return outcome


# ----------------------------------------------------------------- main

def _git_commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DRIVERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        DRIVERS[args.workload](run)
        outcome = aggregate(run)
    except ChildFailed as exc:
        outcome = {"failures": [str(exc)], "attempted": 0,
                   "end_to_end": {}, "per_layer": {}, "samples": {}}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    failures = outcome["failures"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    if not failures:
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]:
            # A layer the workload never enters reports 0.
            value = outcome[kind].get(entry["name"], 0.0)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": _git_commit(),
              "host": run.docs[0]["provenance"] if run.docs else None,
              **outcome, "setups": run.setups,
              "rounds": [{key: value for key, value in doc.items()
                          if key != "spans"} for doc in run.docs],
              "spans": [doc["spans"] for doc in run.docs if "spans" in doc]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} "
          f"commit {record['commit']} host {record['host']}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if len(failures) > 20:
        print(f"FAILED ... and {len(failures) - 20} more")
    for name, value in sorted(outcome["samples"].items()):
        print(f"  samples.{name:<24} {value:>16}")
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:>16.6g} {entry['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures,
                      "attempted": max(1, outcome["attempted"]),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
