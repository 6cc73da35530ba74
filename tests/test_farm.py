"""Simulation-farm contract tests (PR 6).

The farm's whole promise is *determinism under parallelism*: every
campaign merged from a process pool must be bit-identical to the serial
walk, failures must surface with a replayable task description instead of
hanging the pool, and workers must rebuild their cores from the task's
subset + fingerprint — never trust a stale structure.  These tests pin
each clause (the kill matrix and the cosim campaign are diffed across
worker counts here, scenarios in ``tests/test_scenario.py`` and lint in
``tests/test_analysis.py``), plus the in-memory compliance signature memo.
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
    mutation_exercise_target,
    run_tasks,
)
from repro.rtl.compiled import stable_fingerprint
from repro.rtl.rissp import build_rissp
from repro.verify.fuzz import FUZZ_BASE_SEED, derive_seed, fuzz_chunk_seeds
from repro.verify.mutation import rtl_mutant_kill_matrix
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


def test_failing_mutant_names_its_task_at_one_worker(monkeypatch):
    """The serial kill matrix runs the same tasks as the pool, so a
    mutant that raises surfaces as a FarmTaskError naming its task id,
    not as a bare exception."""
    import repro.verify.mutation as mutation

    core, program = mutation_exercise_target()
    doomed = mutation.enumerate_rtl_mutations(core, limit=8)[3].description
    real = mutation.apply_rtl_mutation

    def apply(module, candidate):
        if candidate.description == doomed:
            raise RuntimeError("injected mutant failure")
        return real(module, candidate)

    monkeypatch.setattr(mutation, "apply_rtl_mutation", apply)
    with pytest.raises(FarmTaskError, match=r"mutant\[003\]") as info:
        rtl_mutant_kill_matrix(core, program, backends=("fused",),
                               limit=8, max_instructions=400, workers=1)
    assert info.value.task_id == "mutant[003]"
    assert "injected mutant failure" in str(info.value)


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
    """A worker rebuilds the described core exactly, the trap unit
    included: the subset alone decides it (present iff ``mret``)."""
    for subset in (COMPLIANCE_SUBSET, COMPLIANCE_SUBSET + ["mret"]):
        core = build_rissp(subset)
        spec = CoreSpec.of(core)
        assert spec.fingerprint == stable_fingerprint(core)
        rebuilt = spec.build()
        assert stable_fingerprint(rebuilt) == spec.fingerprint
        assert ("mtvec" in rebuilt.registers) == ("mret" in subset)
        assert spec.build() is rebuilt  # per-process memo

        blob = pickle.dumps(spec)
        assert pickle.loads(blob) == spec  # frozen dataclass round-trips


def test_tampered_fingerprint_refuses_to_materialize():
    core = build_rissp(["addi", "add", "lui", "ecall"])
    spec = CoreSpec.of(core)
    tampered = CoreSpec(mnemonics=spec.mnemonics, name=spec.name,
                        reset_pc=spec.reset_pc,
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
