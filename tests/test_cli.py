"""``python -m repro`` CLI tests: dataclass-driven parsing + stage runs.

The parser is *generated* from :class:`repro.cli.FarmConfig` — these
tests pin the mapping (field -> option name, tuple -> multi-value, int ->
hex-capable) and smoke every stage at small limits through ``main``,
asserting exit codes rather than output details.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import STAGES, FarmConfig, build_parser, main, parse_config, run
from repro.verify.fuzz import FUZZ_BASE_SEED


# ----------------------------------------------------------- parsing

def test_defaults_round_trip_through_the_parser():
    config = parse_config([])
    assert config == FarmConfig()
    assert config.stages == ("cosim",)
    assert config.workers == 1
    assert config.fuzz_seed == FUZZ_BASE_SEED


def test_every_config_field_is_a_cli_option():
    """The declarative contract: adding a FarmConfig field IS adding a
    CLI option — nothing is wired twice, nothing can be forgotten."""
    import dataclasses

    parser = build_parser()
    option_strings = {s for action in parser._actions
                      for s in action.option_strings}
    destinations = {action.dest for action in parser._actions}
    for spec in dataclasses.fields(FarmConfig):
        assert spec.name in destinations
        if not spec.metadata.get("positional"):
            assert "--" + spec.name.replace("_", "-") in option_strings


def test_tuple_fields_take_multiple_values():
    config = parse_config(["cosim", "mutation",
                           "--backends", "fused", "interpreter",
                           "--workloads", "crc32"])
    assert config.stages == ("cosim", "mutation")
    assert config.backends == ("fused", "interpreter")
    assert config.workloads == ("crc32",)


def test_tuple_options_with_zero_values_yield_empty_tuples():
    """Regression (docstring promise): ``--workloads`` with no values
    means "fuzz chunks only" — the parsed config must carry an *empty*
    tuple, never silently fall back to the default pair.  Same for every
    tuple option."""
    config = parse_config(["cosim", "--workloads"])
    assert config.workloads == ()
    assert config.backends == ("fused",)  # untouched options keep defaults
    config = parse_config(["cosim", "--backends"])
    assert config.backends == ()
    assert config.workloads == ("uart_selftest", "crc32")
    # Empty *positional* stages still mean the default stage list.
    assert parse_config(["--workloads"]).stages == ("cosim",)


def test_empty_workloads_run_fuzz_chunks_only(capsys):
    code = main(["cosim", "--workloads", "--fuzz-chunks", "1"])
    err = capsys.readouterr().err
    assert code == 0
    assert "cosim: 1/1 clean" in err
    assert "cosim:uart_selftest" not in err


def test_zero_task_stages_fail_instead_of_crashing_or_passing(capsys):
    """Regression sweep for options that leave a stage nothing to verify:
    cosim with nothing to verify used to exit 0 claiming "0/0 clean" (a
    vacuous pass), mutation with zero backends crashed on its empty
    verdict rows, a zero mutant limit crashed picking mutants, a zero
    mutant budget "killed" every mutant before it retired anything, and
    a zero scenario budget passed with no scenario retiring an
    instruction.  Each must fail cleanly with exit code 1, naming the
    option, before it runs anything."""
    assert main(["cosim", "--backends"]) == 1
    assert "nothing verified" in capsys.readouterr().err
    assert main(["cosim", "--workloads"]) == 1  # no fuzz chunks either
    assert "nothing verified" in capsys.readouterr().err
    assert main(["mutation", "--backends"]) == 1
    assert "nothing verified" in capsys.readouterr().err
    for argv, option in (
            (["cosim", "--workloads", "--fuzz-chunks", "-2"],
             "--fuzz-chunks"),
            (["mutation", "--mutation-limit", "-3"], "--mutation-limit"),
            (["mutation", "--mutation-limit", "0"], "--mutation-limit"),
            (["mutation", "--mutation-budget", "0"], "--mutation-budget"),
            (["scenarios", "--scenario-count", "2", "--scenario-budget",
              "0", "--scenario-probes", "0", "--scenario-mutation", "0"],
             "--scenario-budget")):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert f": {option} must" in err, err
        assert "Traceback" not in err and "Error" not in err, err


def test_int_options_accept_hex():
    config = parse_config(["cosim", "--fuzz-seed", "0xDEADBEEF",
                           "--workers", "4"])
    assert config.fuzz_seed == 0xDEADBEEF
    assert config.workers == 4


def test_unknown_stage_is_rejected():
    with pytest.raises(SystemExit):
        parse_config(["synthesize"])


@pytest.mark.parametrize("name", ["bogus", "compiled"])
def test_unknown_backend_is_a_usage_error(name, capsys, monkeypatch):
    """``--backends`` takes its choices from ``repro.rtl.sim.BACKENDS``:
    an unknown name (the retired ``compiled`` one included) exits 2 at
    parse time, before any stage builds a core."""
    import repro.cli as cli

    def never(config):
        raise AssertionError("a stage ran")

    monkeypatch.setitem(cli._STAGE_RUNNERS, "cosim", never)
    with pytest.raises(SystemExit) as exit_info:
        main(["cosim", "--backends", "fused", name])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_stage_order_is_preserved():
    config = parse_config(list(reversed(STAGES)))
    assert config.stages == tuple(reversed(STAGES))


def test_every_stage_has_a_runner_and_every_option_a_reader():
    """A stage is one ``STAGES`` name and one runner, in the same order,
    and every ``FarmConfig`` field is read as ``config.<field>`` somewhere
    in ``repro/cli.py`` — so deleting a stage without its options, or
    leaving an option nothing reads, fails here."""
    import ast
    import dataclasses
    import pathlib

    import repro.cli as cli

    assert tuple(cli._STAGE_RUNNERS) == STAGES
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "config"
            and isinstance(node.ctx, ast.Load)}
    fields = [spec.name for spec in dataclasses.fields(FarmConfig)]
    assert [name for name in fields if name not in read] == []


# -------------------------------------------------------- stage smoke

def test_cosim_stage_exit_zero(capsys):
    code = main(["cosim", "--workloads", "uart_selftest",
                 "--fuzz-chunks", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "cosim: 2/2 clean" in captured.err
    assert "all stages passed" in captured.err
    # Banner discipline (PR 8): progress goes to stderr, stdout stays
    # machine-clean so `python -m repro ... > pipeline.json` style
    # plumbing never has to strip human chatter.
    assert captured.out == ""


def test_mutation_stage_exit_zero(capsys):
    code = main(["mutation", "--mutation-limit", "6",
                 "--mutation-budget", "400"])
    err = capsys.readouterr().err
    assert code == 0
    assert "mutation: " in err and "0 backend disagreements" in err


def test_compliance_stage_exit_zero(capsys):
    code = main(["compliance"])
    err = capsys.readouterr().err
    assert code == 0
    assert "-> PASS" in err


def test_json_out_records_stage_results(tmp_path, capsys):
    out_path = tmp_path / "results.json"
    code = main(["cosim", "--workloads", "uart_selftest",
                 "--json-out", str(out_path)])
    assert code == 0
    results = json.loads(out_path.read_text())
    assert results["cosim"]["ok"] is True
    assert results["cosim"]["verdicts"] == {"cosim:uart_selftest": None}
    capsys.readouterr()


def test_failing_stage_exits_nonzero(capsys, monkeypatch):
    import repro.cli as cli

    monkeypatch.setitem(cli._STAGE_RUNNERS, "cosim",
                        lambda config: (False, {"verdicts": {}}))
    code = run(parse_config(["cosim"]))
    err = capsys.readouterr().err
    assert code == 1
    assert "FAILED stages: cosim" in err


def test_raising_stage_still_writes_json_out(tmp_path, capsys,
                                             monkeypatch):
    """Regression (PR 8): a stage that *raised* used to unwind straight
    out of ``run()``, so ``--json-out`` was never written and a CI
    pipeline tallying results saw a missing file instead of a recorded
    failure.  Now every stage runs under its own catch: the exception is
    recorded (with the replayable task id for farm failures), later
    stages still run, and the JSON report is always written."""
    import repro.cli as cli
    from repro.farm import FarmTaskError

    def explode(config):
        raise FarmTaskError("farm task 'fuzz[007]' failed: boom",
                            task_id="fuzz[007]",
                            description="fuzz seed=0x1234")

    monkeypatch.setitem(cli._STAGE_RUNNERS, "cosim", explode)
    out_path = tmp_path / "results.json"
    code = run(parse_config(["cosim", "compliance",
                             "--json-out", str(out_path)]))
    err = capsys.readouterr().err
    assert code == 1
    assert "FAILED stages: cosim" in err
    results = json.loads(out_path.read_text())
    assert results["cosim"]["ok"] is False
    assert results["cosim"]["task_id"] == "fuzz[007]"
    assert "boom" in results["cosim"]["error"]
    # The stage after the explosion still ran and was recorded.
    assert results["compliance"]["ok"] is True
    assert results["compliance"]["tests_run"] == 38


def test_telemetry_flags_write_manifest_and_trace(tmp_path, capsys):
    """The acceptance surface: ``--telemetry``/``--trace-out`` produce a
    schema-valid manifest that reports only the work of the stages run,
    and a Chrome trace_event document."""
    from repro import obs

    manifest_path = tmp_path / "run.json"
    trace_path = tmp_path / "trace.json"
    code = main(["cosim", "--workloads", "uart_selftest",
                 "--telemetry", str(manifest_path),
                 "--trace-out", str(trace_path)])
    capsys.readouterr()
    assert code == 0
    document = json.loads(manifest_path.read_text())
    assert obs.validate_manifest(document) == []
    counters = document["counters"]
    assert set(counters) == set(obs.COUNTERS)
    assert counters["fused.runs"] > 0
    # Every counter is present, but families the cosim stage never
    # touches stay zero: the manifest reports this run's work only.
    untouched = {name: value for name, value in counters.items()
                 if name.startswith(("fleet.", "scenario.", "riscof.",
                                     "compile_cache.fleet."))}
    assert untouched and not any(untouched.values()), untouched
    assert [s["name"] for s in document["stages"]] == ["cosim"]
    trace = json.loads(trace_path.read_text())
    names = {event["ph"] for event in trace["traceEvents"]}
    assert names == {"M", "X"}


def test_module_entrypoint_help(tmp_path):
    """``python -m repro --help`` must work (wires __main__ -> cli)."""
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        cwd=root)
    assert proc.returncode == 0
    assert "--workers" in proc.stdout and "--fuzz-seed" in proc.stdout
