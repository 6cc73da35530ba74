"""Static-analysis subsystem tests (PR 10).

The seeded-defect suite mirrors the mutation kill matrix: one instance of
every defect class is injected — a comb loop, a double driver, a dirty
generated source (several flavours), an unregistered counter, an
unpicklable task field — and the analyzers must flag *every* seed while
the clean tree reports zero findings after waivers.  Both gates run in CI.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    Finding,
    WAIVERS,
    Waiver,
    apply_waivers,
    audit_compiled,
    audit_source,
    build_lint_report,
    dedup_findings,
    lint_contracts,
    lint_module,
    structural_facts,
    validate_lint_report,
    write_lint_report,
)
from repro.rtl.ir import IrError, Module, RegFileSpec, const, mux


def _rules(findings):
    return {f.rule for f in findings}


# ------------------------------------------------ seeded RTL defects


def test_seeded_comb_loop_reports_cycle_path():
    m = Module("loopy")
    a = m.wire("a", 1)
    b = m.wire("b", 1)
    m.assign(a, b & const(1, 1))
    m.assign(b, a | const(0, 1))
    facts = structural_facts(m)
    assert facts.cycle and not facts.order
    findings = lint_module(m)
    loops = [f for f in findings if f.rule == "RTL001"]
    assert len(loops) == 1
    # The finding carries the full path, closed back onto its start.
    assert "a -> b -> a" in loops[0].detail


def test_seeded_double_driver_flagged():
    m = Module("dd")
    r = m.register("r", 8)
    m.connect_register("r", r)
    out = m.output("q", 8)
    m.assign(out, r)
    # The builder API refuses this; a hand-mutated module must still be
    # caught by the lint, not only by construction.
    m.assigns["r"] = const(1, 8)
    findings = lint_module(m)
    conflict = [f for f in findings if f.rule == "RTL002"]
    assert len(conflict) == 1
    assert conflict[0].location == "dd:r"
    assert "assign and register" in conflict[0].detail


def test_seeded_undriven_and_dead_signals():
    m = Module("deadish")
    m.wire("floating", 4)            # consumed but never driven -> RTL007
    m.wire("unread", 4)              # driven but never consumed -> RTL004
    m.assign("unread", const(5, 4))
    out = m.output("q", 4)
    m.assign(out, m.sig("floating"))
    rules = _rules(lint_module(m))
    assert "RTL007" in rules and "RTL004" in rules

    # A register-file read port's data wire is core logic like any other:
    # left unassigned, it is undriven.
    rf = Module("rfport")
    rf.assign(rf.wire("raddr", 4), rf.input("addr", 4))
    rf.wire("rdata", 8)
    rf.assign(rf.output("q", 8), rf.sig("rdata"))
    rf.regfile = RegFileSpec(name="regs", num_regs=16, width=8,
                             read_ports=[("raddr", "rdata")])
    with pytest.raises(IrError, match="wire rdata of rfport undriven"):
        rf.check()
    undriven = [f.location for f in lint_module(rf) if f.rule == "RTL007"]
    assert undriven == ["rfport:rdata"]


def test_seeded_wide_shift_amount_truncates():
    m = Module("shifty")
    val = m.input("val", 8)
    amt = m.input("amt", 8)          # 3 bits suffice for an 8-bit operand
    out = m.output("q", 8)
    m.assign(out, val.shl(amt))
    findings = [f for f in lint_module(m) if f.rule == "RTL003"]
    assert len(findings) == 1
    assert "3 suffice" in findings[0].detail


def test_seeded_constant_mux_and_zero_and():
    m = Module("constsel")
    a = m.input("a", 8)
    b = m.input("b", 8)
    q1 = m.output("q1", 8)
    q2 = m.output("q2", 8)
    m.assign(q1, mux(const(1, 1), a, b))
    m.assign(q2, a & const(0, 8))
    findings = [f for f in lint_module(m) if f.rule == "RTL005"]
    assert {f.location for f in findings} == {"constsel:q1", "constsel:q2"}


def test_seeded_unused_input_port():
    m = Module("ports")
    m.input("used", 1)
    m.input("ignored", 1)
    out = m.output("q", 1)
    m.assign(out, m.sig("used"))
    findings = [f for f in lint_module(m) if f.rule == "RTL006"]
    assert [f.location for f in findings] == ["ports:ignored"]


def test_register_self_hold_is_still_dead():
    m = Module("hold")
    r = m.register("r", 8)
    m.connect_register("r", r + const(1, 8), enable=r.bit(0))
    out = m.output("q", 8)
    m.assign(out, const(0, 8))
    findings = [f for f in lint_module(m) if f.rule == "RTL004"]
    assert [f.location for f in findings] == ["hold:r"]


# ------------------------------------------------------------ waivers


def test_waivers_split_and_carry_reasons():
    waived_one = Finding("rtl", "RTL006", "instr_fence:pc", "unused")
    kept_one = Finding("rtl", "RTL006", "instr_fence:rs1_data", "unused")
    kept, waived = apply_waivers([kept_one, waived_one])
    assert kept == [kept_one]
    assert [(f, w.rule) for f, w in waived] == [(waived_one, "RTL006")]
    assert all(w.reason for w in WAIVERS)


def test_waiver_glob_matches_location_only_for_its_rule():
    w = Waiver("RTL004", "*:mepc", "csr state")
    assert w.matches(Finding("rtl", "RTL004", "rissp_x:mepc", "d"))
    assert not w.matches(Finding("rtl", "RTL006", "rissp_x:mepc", "d"))
    assert not w.matches(Finding("rtl", "RTL004", "rissp_x:mtvec", "d"))


# ------------------------------------- clean tree: shipped RTL lints zero


def test_shipped_library_blocks_lint_clean():
    from repro.rtl.library import default_library

    lib = default_library()
    findings = []
    for mnemonic in sorted(lib.mnemonics):
        findings.extend(lint_module(lib.entry(mnemonic).module))
    kept, _ = apply_waivers(dedup_findings(findings))
    assert kept == []


def test_stitched_cores_lint_clean():
    from repro.retarget import MINIMAL_SUBSET
    from repro.rtl.rissp import build_rissp

    for subset in (list(MINIMAL_SUBSET), ["addi", "add", "ecall", "mret"]):
        core = build_rissp(subset)
        kept, _ = apply_waivers(lint_module(core))
        assert kept == [], f"{subset}: {kept}"


def test_build_rissp_lint_gate_reuses_facts():
    from repro.rtl.compiled import core_fusable
    from repro.rtl.rissp import build_rissp

    core = build_rissp(["addi", "add", "ecall"])
    facts = structural_facts(core)
    assert not facts.cycle
    # The frozen core memoizes the lint gate's facts and reuses check()'s
    # order instead of walking again.
    assert structural_facts(core) is facts
    assert facts.order == core.order
    assert core_fusable(core)


# -------------------------------------------- generated-source auditor


def _compiled_targets():
    from repro.farm import mutation_exercise_target
    from repro.rtl.compiled import compile_core, compile_fleet, compile_module

    core, _ = mutation_exercise_target()
    return (("module", compile_module(core)),
            ("core", compile_core(core)),
            ("fleet", compile_fleet(core)))


def test_gen_audit_passes_all_three_codegen_paths():
    for kind, compiled in _compiled_targets():
        assert audit_compiled(compiled, kind) == [], kind


@pytest.fixture(scope="module")
def loop_sources():
    """``(kind, source, allowed globals)`` of both cycle loops; each test
    dirties both, since they share one retirement body and its tail."""
    from repro.farm import mutation_exercise_target
    from repro.rtl.compiled import compile_core, compile_fleet

    core, _ = mutation_exercise_target()
    return [(kind, compiled.source,
             tuple(n for n in compiled.namespace if n != "__builtins__"))
            for kind, compiled in (("core", compile_core(core)),
                                   ("fleet", compile_fleet(core)))]


# Column-pinned anchor (the leading newline rejects deeper-indented
# matches) at the hot loop's tail: retire, then the classified exit.
_TAIL = ("\n            count += 1"
         "\n            if halted:"
         "\n                break")


def _dirty(source, anchor, replacement):
    assert anchor in source
    return source.replace(anchor, replacement, 1)


def test_dirtied_template_print_flagged(loop_sources):
    for kind, source, allowed in loop_sources:
        dirty = _dirty(source, _TAIL, "\n            print(count)" + _TAIL)
        assert "GEN002" in _rules(audit_source(dirty, kind, allowed)), kind


def test_dirtied_template_foreign_global_flagged(loop_sources):
    for kind, source, allowed in loop_sources:
        dirty = _dirty(source, _TAIL,
                       "\n            v_bad = MAGIC_TABLE[0]" + _TAIL)
        findings = audit_source(dirty, kind, allowed)
        assert any(f.rule == "GEN001" and "MAGIC_TABLE" in f.detail
                   for f in findings), kind


def test_dirtied_template_import_flagged(loop_sources):
    for kind, source, allowed in loop_sources:
        assert "GEN006" in _rules(
            audit_source("import json\n" + source, kind, allowed)), kind


def test_dirtied_template_env_store_flagged(loop_sources):
    for kind, source, allowed in loop_sources:
        dirty = _dirty(source, _TAIL,
                       "\n            count += 1"
                       "\n            if halted:"
                       "\n                env['dirty'] = 1"
                       "\n                break")
        assert "GEN003" in _rules(audit_source(dirty, kind, allowed)), kind


def test_dirtied_template_bare_break_flagged(loop_sources):
    for kind, source, allowed in loop_sources:
        dirty = _dirty(source, _TAIL,
                       "\n            if count == 99:"
                       "\n                break" + _TAIL)
        assert "GEN004" in _rules(audit_source(dirty, kind, allowed)), kind


def test_classified_break_not_flagged():
    source = textwrap.dedent("""\
        def decode_comb(w):
            return w

        def run_cycles(ctx, count, limit, sink):
            fetch = ctx['fetch']
            halted = False
            while count < limit:
                w = fetch(count)
                count += 1
                if halted:
                    break
            return halted, '', count
    """)
    assert audit_source(source, "core") == []


def test_missing_required_function_flagged():
    findings = audit_source("x = 1\n", "core")
    assert {f.rule for f in findings} == {"GEN005"}
    assert {f.location.split(":")[1] for f in findings} == \
        {"decode_comb", "run_cycles"}


def test_unparsable_source_is_gen005():
    findings = audit_source("def broken(:\n", "core")
    assert [f.rule for f in findings] == ["GEN005"]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        audit_source("x = 1\n", "netlist")


# ------------------------------------------------- repo-contract linter


def _write_tree(root, files):
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))


def test_seeded_contract_defects_all_flagged(tmp_path):
    _write_tree(tmp_path, {
        "counting.py": """\
            def record(obs):
                obs.bump("phantom.counter")
                obs.counters["also.unknown"] += 1
        """,
        "farm/tasks.py": """\
            from dataclasses import dataclass, field
            from typing import Callable

            @dataclass(frozen=True)
            class BadTask:
                hook: Callable = None
                fallback: int = field(default_factory=lambda: 3)
        """,
        "farm/runner.py": """\
            import random
            import time

            def merge_results(rows):
                out = []
                for row in set(rows):
                    out.append((row, time.time(), random.random()))
                return out
        """,
    })
    findings = lint_contracts(tmp_path, counters=["registered.idle"],
                              bins=["bin.known"])
    rules = _rules(findings)
    # Every seeded defect class is flagged.
    assert {"CON001", "CON002", "CON003", "CON004", "CON005"} <= rules
    con4 = [f for f in findings if f.rule == "CON004"]
    assert any("Callable" in f.detail for f in con4)
    assert any("lambda" in f.detail for f in con4)
    con5 = [f for f in findings if f.rule == "CON005"]
    assert any("time.time" in f.detail for f in con5)
    assert any("random.random" in f.detail for f in con5)
    assert any("bare set" in f.detail for f in con5)


def test_conditional_hit_literals_credit_bins(tmp_path):
    _write_tree(tmp_path, {
        "scenario/map.py": """\
            def score(cov, fast):
                cov.hit("path.fast" if fast else "path.slow")
        """,
    })
    findings = lint_contracts(tmp_path, counters=[],
                              bins=["path.fast", "path.slow"])
    assert findings == []


def test_fstring_prefix_credits_counter_family(tmp_path):
    _write_tree(tmp_path, {
        "obs/use.py": """\
            def record(obs, cause):
                obs.bump(f"halt.{cause}")
        """,
    })
    assert lint_contracts(tmp_path, counters=["halt.ebreak"], bins=[]) == []


def test_clean_tree_contracts_zero():
    assert lint_contracts() == []


# ------------------------------------------- farm sharding + campaign


SAMPLE_SUBSETS = ["crc32", "rv32e"]


def test_lint_campaign_clean_and_bit_identical():
    from repro.farm import lint_campaign

    serial = lint_campaign(subsets=SAMPLE_SUBSETS, workers=1)
    sharded = lint_campaign(subsets=SAMPLE_SUBSETS, workers=4)
    assert serial["findings"] == sharded["findings"] == []
    assert serial["waived"] == sharded["waived"]
    assert serial["targets"] == sharded["targets"]
    assert serial["targets"]["cores"] == len(SAMPLE_SUBSETS)
    assert serial["targets"]["blocks"] > 0
    # Every waiver that ships is exercised by an actual finding class.
    assert {w.rule for _, w in serial["waived"]} <= \
        {w.rule for w in WAIVERS}


def test_lint_task_is_picklable_and_deterministic():
    import pickle

    from repro.farm import LintTask, lint_targets

    tasks = lint_targets(subsets=SAMPLE_SUBSETS)
    assert all(isinstance(t, LintTask) for t in tasks)
    assert [t.task_id for t in tasks] == \
        [t.task_id for t in lint_targets(subsets=SAMPLE_SUBSETS)]
    clone = pickle.loads(pickle.dumps(tasks[0]))
    assert clone == tasks[0]
    assert clone.run() == tasks[0].run()


# ------------------------------------------------- lint report artifact


def _report_inputs():
    finding = Finding("rtl", "RTL004", "m:w", "dead wire")
    waived = Finding("rtl", "RTL006", "instr_fence:pc", "unused")
    result = {"findings": [finding],
              "waived": [(waived, WAIVERS[0])],
              "targets": {"blocks": 1, "cores": 0}}
    return result, {"workers": 2}


def test_lint_report_roundtrip(tmp_path):
    result, config = _report_inputs()
    path = write_lint_report(tmp_path / "lint.json", result, config)
    document = json.loads(path.read_text())
    assert validate_lint_report(document) == []
    assert document["counts"] == {"rtl": 1, "gen": 0, "contract": 0}
    assert document["findings"][0]["rule"] == "RTL004"
    assert document["waived"][0]["reason"] == WAIVERS[0].reason
    assert document["config"] == config


def test_lint_report_validation_rejects_malformed():
    result, config = _report_inputs()
    document = build_lint_report(result, config)
    assert validate_lint_report(document) == []
    assert validate_lint_report([]) == ["report must be an object"]

    bad_kind = dict(document, kind="something-else")
    assert any("kind" in e for e in validate_lint_report(bad_kind))

    unsorted = dict(document, findings=list(reversed(
        build_lint_report({"findings": [
            Finding("rtl", "RTL004", "m:a", "d"),
            Finding("rtl", "RTL007", "m:b", "d"),
        ]}, {})["findings"])), counts={"rtl": 2, "gen": 0, "contract": 0})
    assert any("sorted" in e for e in validate_lint_report(unsorted))

    bad_counts = dict(document, counts={"rtl": 7, "gen": 0, "contract": 0})
    assert any("agree" in e for e in validate_lint_report(bad_counts))

    bare_waiver = dict(document, waived=[{"analyzer": "rtl"}])
    assert any("reason" in e for e in validate_lint_report(bare_waiver))


def test_write_refuses_invalid_report(tmp_path):
    bogus = {"findings": [Finding("netlist", "NET001", "m:a", "d")],
             "waived": [], "targets": {}}
    with pytest.raises(ValueError, match="refusing to write"):
        write_lint_report(tmp_path / "bad.json", bogus, {})
    assert not (tmp_path / "bad.json").exists()


# ------------------------------------------------------------ CLI stage


def test_cli_lint_stage(tmp_path, capsys):
    from repro.cli import parse_config, run

    out = tmp_path / "lint.json"
    config = parse_config(["lint", "--workers", "2",
                           "--lint-subsets", *SAMPLE_SUBSETS,
                           "--lint-out", str(out)])
    assert config.stages == ("lint",)
    assert config.lint_subsets == tuple(SAMPLE_SUBSETS)
    assert run(config) == 0
    captured = capsys.readouterr()
    assert captured.out == ""          # stdout stays machine-clean
    assert "lint report written" in captured.err
    document = json.loads(out.read_text())
    assert validate_lint_report(document) == []
    assert document["findings"] == []
    assert document["config"]["subsets"] == SAMPLE_SUBSETS
