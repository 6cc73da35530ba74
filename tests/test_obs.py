"""Telemetry subsystem tests (PR 8): counters, spans, manifests, traces.

Four contracts pinned here:

* **off means off** — with no session open, every instrumented path is
  behaviorally inert, and a fused-backend run is *bit-identical* (result
  fields, architectural state, full RVFI columns) with telemetry on or
  off, because nothing is ever injected into the exec-compiled loops;
* **fixed structure** — a session always carries exactly the
  :data:`repro.obs.COUNTERS` registry, and farm task snapshots exactly
  :data:`repro.obs.TASK_SNAPSHOT_KEYS`, so merged telemetry is
  structure-identical across worker counts;
* **the counters mean what they say** — fused exit causes, the
  decode-cache lookup bound, compile-cache tiers and riscof signature
  tiers are each driven and checked against known workloads (fleet
  divergence causes: ``tests/test_fleet.py``);
* **manifest/trace round-trip** — the written documents validate, and
  validation actually rejects corruption.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.isa import INSTRUCTIONS, assemble
from repro.rtl.core_sim import RisspSim
from repro.rtl.rissp import build_rissp

FULL_SUBSET = [d.mnemonic for d in INSTRUCTIONS]

HALT_SOURCE = """
    .text
    li a0, 0
    li t0, 0
loop:
    add a0, a0, t0
    addi t0, t0, 1
    sw a0, 128(zero)
    lw a1, 128(zero)
    blt t0, a2, loop
    ecall
"""


@pytest.fixture(scope="module")
def full_core():
    return build_rissp(FULL_SUBSET)


@pytest.fixture(scope="module")
def halt_program():
    return assemble(HALT_SOURCE)


# ----------------------------------------------------- session basics

def test_session_initializes_every_registered_counter():
    with obs.session() as telemetry:
        assert set(telemetry.counters) == set(obs.COUNTERS)
        assert all(value == 0 for value in telemetry.counters.values())
        assert obs.get() is telemetry
    assert obs.get() is None


def test_sessions_nest_and_restore():
    with obs.session() as outer:
        obs.bump("farm.tasks")
        with obs.session() as inner:
            assert obs.get() is inner
            obs.bump("farm.tasks")
            obs.bump("farm.tasks")
        assert obs.get() is outer
        assert outer.counters["farm.tasks"] == 1
        assert inner.counters["farm.tasks"] == 2


def test_bump_and_span_are_noops_when_off():
    assert obs.get() is None
    obs.bump("farm.tasks")  # must not raise, must not create a session
    with obs.span("nothing") as record:
        assert record is None
    assert obs.get() is None


def test_spans_record_name_labels_and_duration():
    with obs.session() as telemetry:
        with obs.span("stage_a", workers=4):
            pass
    (record,) = telemetry.spans
    assert record["name"] == "stage_a"
    assert record["labels"] == {"workers": 4}
    assert record["dur_sec"] >= 0.0
    assert record["start_sec"] >= 0.0


def test_merged_counters_fold_task_snapshots():
    with obs.session() as telemetry:
        telemetry.bump("fused.runs", 2)
        telemetry.add_task({"task_id": "t0", "pid": 1, "start_wall": 0.0,
                            "queue_wait_sec": 0.0, "run_sec": 0.0,
                            "counters": {"fused.runs": 3,
                                         "farm.core_rebuild.build": 1}})
    merged = telemetry.merged_counters()
    assert merged["fused.runs"] == 5
    assert merged["farm.core_rebuild.build"] == 1
    # Untouched registry names are still present (fixed structure).
    assert merged["fleet.diverge.trap"] == 0


# ------------------------------------------------- instrumented sites

def test_fused_loop_counters(full_core, halt_program):
    sim = RisspSim(full_core, halt_program)
    sim.rtl.regfile_data[12] = 5
    with obs.session() as telemetry:
        result = sim.run(max_instructions=10_000)
    counters = telemetry.counters
    assert result.halted_by == "ecall"
    assert counters["fused.exit.halt"] == 1
    assert counters["fused.runs"] >= 1
    assert counters["fused.retired"] == result.instructions
    # Every retirement probes the shared per-word decode cache once.
    assert counters["decode_cache.lookups"] == result.instructions
    assert counters["decode_cache.misses"] <= result.instructions


def test_compile_cache_counters(halt_program):
    from repro.rtl.compiled import compile_core

    core = build_rissp(["addi", "add", "ecall"])
    with obs.session() as telemetry:
        compile_core(core)
        compile_core(core)
    hits = telemetry.counters["compile_cache.core.hit"]
    misses = telemetry.counters["compile_cache.core.miss"]
    # First call may hit (structure compiled by an earlier test) or miss;
    # the second call must hit either way.
    assert hits >= 1
    assert hits + misses == 2


def test_signature_lookup_counters():
    """A double golden-signature lookup is answered by the memo or by a
    golden recompute, never both: memo hits + recomputes == lookups, and
    the second lookup is always a memo hit."""
    from repro.verify.riscof import _reference_signature

    with obs.session() as telemetry:
        _reference_signature("addi")
        _reference_signature("addi")
    counters = telemetry.counters
    assert counters["riscof.sig_lookup"] == 2
    # The first lookup may also hit the memo if another test already
    # warmed it.
    assert 1 <= counters["riscof.sig_memo_hit"] <= 2
    assert counters["riscof.sig_memo_hit"] \
        + counters["riscof.sig_recompute"] == counters["riscof.sig_lookup"]


#: 40 iterations of two emulated CSR words plus two datapath words.
CSR_LOOP_SOURCE = """
    .text
    li t0, 40
loop:
    csrrw zero, mscratch, t0
    csrrs t1, mscratch, zero
    addi t0, t0, -1
    bnez t0, loop
    ecall
"""


class _CountingCache(dict):
    """Decode-cache stand-in that counts the fused loop's probes."""

    def __init__(self):
        super().__init__()
        self.probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def test_decode_cache_lookups_bound_probes():
    """``decode_cache.lookups`` counts fused retirements, an upper bound
    on the real cache probes: emulated Zicsr retirements never probe, so
    the derived hit rate is an upper bound too."""
    from repro.rtl.compiled import compile_core

    # A private core owns its compiled namespace and decode cache.
    core = build_rissp(FULL_SUBSET + ["mret"])
    namespace = compile_core(core).namespace
    original = namespace["_DCACHE"]
    counting = namespace["_DCACHE"] = _CountingCache()
    try:
        sim = RisspSim(core, assemble(CSR_LOOP_SOURCE), backend="fused")
        with obs.session() as telemetry:
            result = sim.run(max_instructions=10_000)
    finally:
        namespace["_DCACHE"] = original
    counters = telemetry.counters
    assert result.halted_by == "ecall"
    assert result.instructions == 162
    lookups = counters["decode_cache.lookups"]
    assert lookups == result.instructions
    assert counters["fused.exit.emulated"] == 80
    assert lookups >= counting.probes
    assert lookups - counters["fused.exit.emulated"] == counting.probes
    assert counters["decode_cache.misses"] == len(counting) == 4


# ------------------------------------------- farm snapshot structure

def _campaign_session(workers: int):
    from repro.farm import cosim_campaign

    with obs.session() as telemetry:
        verdicts = cosim_campaign(workloads=(), fuzz_chunks=3,
                                  fuzz_max_instructions=500,
                                  workers=workers)
    return verdicts, telemetry


def test_farm_snapshots_structure_identical_across_worker_counts():
    """The acceptance contract: campaign telemetry at workers=4 is
    bit-identical *in structure* to workers=1 — same counter registry,
    same task ids in the same (submission) order, same snapshot keys —
    even though timings and per-process cache hits legitimately differ."""
    verdicts_serial, serial = _campaign_session(1)
    verdicts_pool, pool = _campaign_session(4)
    assert verdicts_serial == verdicts_pool  # results first
    assert list(serial.counters) == list(pool.counters)
    assert [t["task_id"] for t in serial.tasks] \
        == [t["task_id"] for t in pool.tasks]
    for snapshot in serial.tasks + pool.tasks:
        assert tuple(sorted(snapshot)) \
            == tuple(sorted(obs.TASK_SNAPSHOT_KEYS))
        assert set(snapshot["counters"]) == set(obs.COUNTERS)
        assert snapshot["queue_wait_sec"] >= 0.0
        assert snapshot["run_sec"] >= 0.0
    assert serial.counters["farm.tasks"] == 3
    assert pool.counters["farm.tasks"] == 3
    # Serial path runs in-process: every snapshot carries the parent pid.
    assert all(t["pid"] == serial.pid for t in serial.tasks)


def test_farm_without_session_records_nothing():
    from repro.farm import cosim_campaign

    verdicts = cosim_campaign(workloads=(), fuzz_chunks=1,
                              fuzz_max_instructions=500, workers=1)
    assert obs.get() is None
    assert all(v is None for v in verdicts.values())


# ------------------------------------------------- manifest and trace

def test_manifest_round_trip(tmp_path, full_core, halt_program):
    sim = RisspSim(full_core, halt_program)
    sim.rtl.regfile_data[12] = 3
    with obs.session() as telemetry:
        with obs.span("cosim", workers=1):
            sim.run(max_instructions=10_000)
    path = obs.write_manifest(tmp_path / "run.json", telemetry,
                              {"stages": ["cosim"]})
    document = json.loads(path.read_text())
    assert obs.validate_manifest(document) == []
    assert document["kind"] == "repro-telemetry-manifest"
    assert document["config"] == {"stages": ["cosim"]}
    assert document["counters"]["fused.exit.halt"] == 1
    assert document["host"]["cpu_count"] >= 1
    rates = document["cache_rates"]
    assert 0.0 <= rates["decode_cache.hit_rate"] <= 1.0


def test_manifest_validation_rejects_corruption():
    with obs.session() as telemetry:
        pass
    document = obs.build_manifest(telemetry)
    assert obs.validate_manifest(document) == []
    # Counter outside the registry.
    bad = json.loads(json.dumps(document))
    bad["counters"]["made.up"] = 1
    assert any("unregistered" in e for e in obs.validate_manifest(bad))
    # Missing registry counter.
    bad = json.loads(json.dumps(document))
    del bad["counters"]["fused.runs"]
    assert any("missing registry" in e for e in obs.validate_manifest(bad))
    # Task snapshot with a wrong key set.
    bad = json.loads(json.dumps(document))
    bad["tasks"] = [{"task_id": "x"}]
    assert any("exactly keys" in e for e in obs.validate_manifest(bad))
    # write_manifest refuses what validate_manifest rejects.
    telemetry.counters["bogus.name"] = 1
    with pytest.raises(ValueError):
        obs.write_manifest("/dev/null", telemetry)


def test_trace_event_export(tmp_path):
    with obs.session() as telemetry:
        with obs.span("cosim", workers=2):
            pass
        telemetry.add_task({"task_id": "fuzz[000]", "pid": 4242,
                            "start_wall": telemetry.start_wall + 0.5,
                            "queue_wait_sec": 0.25, "run_sec": 0.125,
                            "counters": {}})
    path = obs.write_trace(tmp_path / "trace.json", telemetry)
    trace = json.loads(path.read_text())
    events = trace["traceEvents"]
    # Perfetto essentials: complete events with µs timestamps, metadata
    # naming the parent and each worker process.
    complete = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert complete and metadata
    for event in complete:
        assert isinstance(event["ts"], (int, float))
        assert event["dur"] >= 0
        assert event["name"]
    cats = {e["cat"] for e in complete}
    assert cats == {"stage", "queue", "task"}
    task = next(e for e in complete if e["cat"] == "task")
    assert task["pid"] == 4242
    queue = next(e for e in complete if e["cat"] == "queue")
    assert queue["ts"] <= task["ts"]
    assert 4242 in {e.get("pid") for e in metadata}


# ------------------------------------------------- off-path identity

def test_telemetry_off_path_is_bit_identical(full_core, halt_program):
    """Result fields, final architectural state and all 17 RVFI columns
    of a traced fused run must be bit-identical with a session open and
    without one — telemetry observes the loops, it never touches them."""
    from repro.sim.tracing import RvfiTrace

    def traced_run():
        sim = RisspSim(full_core, halt_program, trace=True)
        sim.rtl.regfile_data[12] = 6
        result = sim.run(max_instructions=10_000)
        return sim, result

    sim_off, result_off = traced_run()
    with obs.session():
        sim_on, result_on = traced_run()
    assert (result_on.exit_code, result_on.instructions,
            result_on.cycles, result_on.halted_by) \
        == (result_off.exit_code, result_off.instructions,
            result_off.cycles, result_off.halted_by)
    assert sim_on.rtl.regfile_data == sim_off.rtl.regfile_data
    for field in RvfiTrace.FIELDS:
        assert result_on.trace.column(field) \
            == result_off.trace.column(field), field
