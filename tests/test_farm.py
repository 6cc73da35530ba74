"""Simulation-farm contract tests (PR 6).

The farm's whole promise is *determinism under parallelism*: every
campaign merged from a process pool must be bit-identical to the serial
walk, failures must surface with a replayable task description instead of
hanging the pool, and workers must rebuild their cores from the task's
subset + fingerprint — never trust a stale structure.  These tests pin
each clause, plus the process-safe compliance signature cache.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import pytest

from repro.farm import (
    CoreMaterializeError,
    CoreSpec,
    FarmTaskError,
    cosim_campaign,
    fleet_campaign,
    fleet_lane_value,
    mutation_exercise_target,
    run_tasks,
)
from repro.rtl.compiled import stable_fingerprint
from repro.rtl.rissp import build_rissp
from repro.verify.fuzz import FUZZ_BASE_SEED, derive_seed, fuzz_chunk_seeds
from repro.verify.mutation import rtl_mutant_kill_matrix
from repro.verify.riscof import run_compliance
import repro.verify.riscof as riscof

#: Subset with full compliance-test scaffolding and a handful of targets.
COMPLIANCE_SUBSET = ["lw", "sw", "jal", "jalr", "addi", "lui",
                     "add", "sub", "and", "or", "slt", "ecall"]


# ------------------------------------------ bit-identical merged results

def test_kill_matrix_identical_at_any_worker_count():
    """The acceptance diff: workers=1 and workers=4 must produce the same
    kill matrix — same rows, same verdicts, same *order*."""
    core, program = mutation_exercise_target()
    serial = rtl_mutant_kill_matrix(core, program, backends=("fused",),
                                    limit=8, max_instructions=400,
                                    workers=1)
    farmed = rtl_mutant_kill_matrix(core, program, backends=("fused",),
                                    limit=8, max_instructions=400,
                                    workers=4)
    assert list(serial.items()) == list(farmed.items())
    # The campaign must have actually judged something.
    assert len(serial) == 8


def test_cosim_campaign_identical_at_any_worker_count():
    serial = cosim_campaign(workloads=("uart_selftest",), fuzz_chunks=3,
                            workers=1)
    farmed = cosim_campaign(workloads=("uart_selftest",), fuzz_chunks=3,
                            workers=4)
    assert list(serial.items()) == list(farmed.items())
    assert len(serial) == 4
    assert all(verdict is None for verdict in serial.values())


def test_fleet_campaign_identical_at_any_worker_count():
    """Sharding a fleet across the pool never changes any lane's row:
    lane workloads are a pure function of the global lane index, and
    contiguous shards merge back in lane order."""
    serial = fleet_campaign(12, workers=1, max_instructions=400)
    assert [row[0] for row in serial] == list(range(12))
    assert all(row[3] == "ecall" for row in serial)
    # Lanes with equal id values compute equal results; different ids
    # (mod the spread) differ — the campaign is actually differentiated.
    by_value: dict[int, set] = {}
    for lane, exit_code, instructions, _ in serial:
        by_value.setdefault(fleet_lane_value(lane), set()).add(
            (exit_code, instructions))
    assert all(len(group) == 1 for group in by_value.values())
    assert len({next(iter(g)) for g in by_value.values()}) == len(by_value)
    assert fleet_campaign(12, workers=2, max_instructions=400) == serial
    assert fleet_campaign(12, workers=2, shards=5,
                          max_instructions=400) == serial


def test_compliance_identical_at_any_worker_count():
    core = build_rissp(COMPLIANCE_SUBSET)
    serial = run_compliance(core, workers=1)
    farmed = run_compliance(core, workers=4, shards=4)
    assert serial.tests_run == farmed.tests_run > 0
    assert serial.mismatches == farmed.mismatches == []
    assert serial.compliant and farmed.compliant


def test_compliance_shard_merge_restores_target_order(monkeypatch):
    """Mismatches from different shards must come back in serial target
    order, not shard-completion order."""
    core = build_rissp(COMPLIANCE_SUBSET)
    real = riscof.check_compliance_mnemonic

    def flaky(core, mnemonic):
        if mnemonic in ("add", "slt"):
            return [f"{mnemonic}: signature[0] dut=0x0 ref=0x1"]
        return real(core, mnemonic)

    monkeypatch.setattr(riscof, "check_compliance_mnemonic", flaky)
    serial = run_compliance(core, workers=1)
    # Farm path with workers=1 still exercises sharding + merge in-process
    # (run_tasks takes the serial branch, so the monkeypatch applies).
    from repro.farm import sharded_compliance_mismatches
    from repro.verify.riscof import compliance_targets

    targets = compliance_targets(COMPLIANCE_SUBSET)
    merged = sharded_compliance_mismatches(core, targets, workers=1,
                                           shards=5)
    assert merged == serial.mismatches
    assert [m.split(":")[0] for m in merged] == ["add", "slt"]


# --------------------------------------------------- failure propagation

@dataclass(frozen=True)
class ExplodingTask:
    """Module-level (picklable) task that always fails."""

    task_id: str
    payload: str = "kaboom"

    def describe(self) -> str:
        return f"exploding {self.task_id}: payload={self.payload}"

    def run(self):
        raise ValueError(self.payload)


def test_worker_exception_carries_task_description():
    """A failing task must surface as FarmTaskError naming the task —
    through the real process pool (>= 2 tasks so the pool engages), not
    hang or lose the description in pickling."""
    tasks = [ExplodingTask(task_id="boom[000]"),
             ExplodingTask(task_id="boom[001]")]
    with pytest.raises(FarmTaskError) as excinfo:
        run_tasks(tasks, workers=2)
    assert excinfo.value.task_id == "boom[000]"
    assert "kaboom" in str(excinfo.value)
    assert "exploding boom[000]" in excinfo.value.description


def test_serial_path_raises_the_same_error():
    with pytest.raises(FarmTaskError) as excinfo:
        run_tasks([ExplodingTask(task_id="solo")], workers=1)
    assert excinfo.value.task_id == "solo"


class UnpicklableTask:
    """Deliberately refuses to cross a process boundary — but runs fine
    in-process, which is exactly how the old single-task serial
    short-circuit hid it."""

    task_id = "unpicklable[000]"

    def describe(self) -> str:
        return "unpicklable task"

    def run(self):
        return 42

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


def test_single_task_with_workers_goes_through_the_pool():
    """Regression: run_tasks used to short-circuit serial whenever
    ``len(tasks) <= 1`` even with ``workers > 1``, so a one-task campaign
    never exercised pickling and an unpicklable task succeeded silently —
    then failed only once the campaign grew.  A single task with
    ``workers > 1`` must take the pool path (and surface the pickling
    failure immediately)."""
    with pytest.raises(Exception, match="unpicklable"):
        run_tasks([UnpicklableTask()], workers=2)
    # The explicit serial path is still serial: no pickling involved.
    assert run_tasks([UnpicklableTask()], workers=1) == [42]
    # And zero tasks never spin up a pool.
    assert run_tasks([], workers=4) == []


def test_farm_task_error_survives_pickling():
    err = FarmTaskError("msg", "tid", "desc")
    clone = pickle.loads(pickle.dumps(err))
    assert (str(clone), clone.task_id, clone.description) == \
        ("msg", "tid", "desc")


# ------------------------------------------- worker core-rebuild contract

def test_core_spec_roundtrip_matches_fingerprint():
    core = build_rissp(COMPLIANCE_SUBSET)
    spec = CoreSpec.of(core)
    assert spec.fingerprint == stable_fingerprint(core)
    rebuilt = spec.build()
    assert stable_fingerprint(rebuilt) == spec.fingerprint
    assert spec.build() is rebuilt  # per-process memo

    blob = pickle.dumps(spec)
    assert pickle.loads(blob) == spec  # frozen dataclass round-trips


def test_tampered_fingerprint_refuses_to_materialize():
    core = build_rissp(["addi", "add", "lui", "ecall"])
    spec = CoreSpec.of(core)
    tampered = CoreSpec(mnemonics=spec.mnemonics, name=spec.name,
                        reset_pc=spec.reset_pc, trap_unit=spec.trap_unit,
                        fingerprint="0" * 64)
    with pytest.raises(CoreMaterializeError, match="fingerprint"):
        tampered.build()


def test_core_spec_rejects_unrebuildable_modules():
    from types import SimpleNamespace

    fake = SimpleNamespace(name="adhoc", meta={}, registers={})
    with pytest.raises(CoreMaterializeError, match="rebuildable"):
        CoreSpec.of(fake)


# -------------------------------------------------- seeded fuzz replay

def test_derived_seed_stream_is_deterministic():
    seeds = list(fuzz_chunk_seeds(FUZZ_BASE_SEED, 8))
    assert seeds == [derive_seed(FUZZ_BASE_SEED, i) for i in range(8)]
    assert len(set(seeds)) == 8  # splitmix64 never collides here
    assert all(0 <= seed < 2 ** 64 for seed in seeds)
    # Chunk seeds depend only on (base, index) — never process state.
    assert list(fuzz_chunk_seeds(FUZZ_BASE_SEED, 8)) == seeds


def test_fuzz_task_ids_embed_replayable_seeds():
    """The (task-id, seed) failure-report contract: every fuzz chunk's id
    carries the exact derived seed that regenerates its program."""
    results = cosim_campaign(workloads=(), fuzz_chunks=2, workers=1)
    expected = [f"fuzz[{i:03d}]:seed={derive_seed(FUZZ_BASE_SEED, i):#018x}"
                for i in range(2)]
    assert list(results) == expected


# ------------------------------------------------- signature memo

def test_compliance_leaves_the_cache_dir_empty(tmp_path, monkeypatch):
    """Reference signatures live in the per-process memo only: the package
    reads no cache-dir variable and writes no signature file."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    core = build_rissp(COMPLIANCE_SUBSET)
    assert riscof.check_compliance_mnemonic(core, "add") == []
    assert list(tmp_path.iterdir()) == []
