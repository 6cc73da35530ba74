"""Behavioral coverage map over RVFI traces and fleet telemetry.

The map answers "which machine behaviors has this campaign actually
exercised?" with a **fixed bin registry** (:data:`BINS`), mirroring
``obs.COUNTERS``: every :class:`CoverageMap` carries every bin (count
zero when unreached), so merged maps are structure-identical — same key
set, same order — for any worker count or scenario mix.  Merging is a
per-bin count sum in registry order.

Bins are extracted from surfaces the stack already exposes:

``trap.*``
    RVFI rows with ``trap=1``, classified by decoding the faulting word
    (ecall / ebreak / anything else = illegal).
``intr.*`` and ``arb.*``
    Interrupt-entry rows (``intr`` = arbitrated cause 7/16).  An entry
    whose previous row retires ``mret`` is *back-to-back*: same cause as
    the previous entry = a storm, different cause = a same-window race
    named for whichever source entered first.  Otherwise the entry is an
    isolated ``arb.{timer,sensor}_only``.
``wfi.wake.*``
    A retired ``wfi`` followed by an interrupt-entry row woke into the
    handler (``timer``/``sensor``); followed by a plain row it woke with
    ``mstatus.MIE`` off (``masked`` — the privileged-spec wake rule the
    polled firmware template leans on).
``bus.*``
    Loads/stores whose ``mem_addr`` falls in a device window.
``sensor.*``
    ACK-register stores: a write ``>= COUNT`` drains the waveform; a
    jump of more than one past the previous ACK skips samples.
``halt.*``
    The run's ``halted_by``.
``fleet.diverge.*``
    Batched-fleet lane divergences, read as ``obs`` counter deltas from
    the nested telemetry session every fleet scenario runs under (only
    the causes a SoC-less fleet can survive — memory faults raise).

Everything trace-derived uses only cosim-compared columns, so a
scenario's coverage is **backend-independent**: golden and fused runs of
the same scenario yield the same map (a property the tests assert).
"""

from __future__ import annotations

import json
import pathlib

from ..soc import POWER_BASE, SENSOR_BASE, TIMER_BASE, UART_BASE

_WINDOW = 0x10
_ACK_ADDR = SENSOR_BASE + 0xC

#: The fixed coverage-bin registry, grouped by family.  Order is part of
#: the contract: reports, merges and mutation targeting all walk it.
BINS: tuple[str, ...] = (
    # -- trap causes reached (synchronous, handler installed)
    "trap.ecall",
    "trap.ebreak",
    "trap.illegal",
    # -- interrupt causes entered
    "intr.timer",
    "intr.sensor",
    # -- arbitration orderings
    "arb.timer_only",
    "arb.sensor_only",
    "arb.race.timer_first",
    "arb.race.sensor_first",
    "arb.storm.timer",
    "arb.storm.sensor",
    # -- wfi wake paths
    "wfi.wake.timer",
    "wfi.wake.sensor",
    "wfi.wake.masked",
    # -- SocBus device windows touched
    "bus.power.store",
    "bus.timer.load",
    "bus.timer.store",
    "bus.uart.load",
    "bus.uart.store",
    "bus.sensor.load",
    "bus.sensor.store",
    # -- SensorPort edge behavior
    "sensor.drained",
    "sensor.ack_skip",
    # -- how runs ended
    "halt.poweroff",
    "halt.wfi",
    "halt.limit",
    "halt.ecall",
    "halt.ebreak",
    # -- batched-fleet divergence causes (the survivable ones)
    "fleet.diverge.emulated",
    "fleet.diverge.mret",
    "fleet.diverge.trap",
    "fleet.diverge.rv32e_bound",
    "fleet.diverge.illegal",
)

#: Bin-name prefixes of the families the acceptance/CI gates reason
#: about (trap causes, arbitration orderings, wfi wake paths).
GATE_FAMILIES = ("trap.", "arb.", "wfi.")


def family_bins(prefix: str) -> tuple[str, ...]:
    return tuple(name for name in BINS if name.startswith(prefix))


class CoverageMap:
    """Counts per registry bin; structure-identical across merges."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[str, int] | None = None):
        self.counts = {name: 0 for name in BINS}
        if counts:
            for name, value in counts.items():
                self.hit(name, value)

    def hit(self, name: str, amount: int = 1) -> None:
        if name not in self.counts:
            raise ValueError(f"unknown coverage bin {name!r}")
        self.counts[name] += amount

    def merge(self, other: "CoverageMap") -> "CoverageMap":
        for name in BINS:
            self.counts[name] += other.counts[name]
        return self

    def covered(self) -> tuple[str, ...]:
        """Reached bins, in registry order."""
        return tuple(name for name in BINS if self.counts[name])

    def uncovered(self) -> tuple[str, ...]:
        return tuple(name for name in BINS if not self.counts[name])

    def to_doc(self) -> dict[str, int]:
        return {name: self.counts[name] for name in BINS}

    @classmethod
    def from_doc(cls, doc: dict) -> "CoverageMap":
        if list(doc) != list(BINS):
            raise ValueError("coverage document bins do not match the "
                             "registry (keys or order differ)")
        return cls(dict(doc))

    def __eq__(self, other) -> bool:
        return isinstance(other, CoverageMap) and \
            list(self.counts.items()) == list(other.counts.items())

    def __repr__(self) -> str:
        return f"CoverageMap({len(self.covered())}/{len(BINS)} covered)"


# ------------------------------------------------------ trace extraction

_MNEMONIC_CACHE: dict[int, str] = {}


def _mnemonic(word: int) -> str:
    """Decoded mnemonic of an instruction word, '' when not decodable."""
    cached = _MNEMONIC_CACHE.get(word)
    if cached is None:
        from ..isa.encoding import decode

        try:
            cached = decode(word).mnemonic
        except Exception:
            cached = ""
        _MNEMONIC_CACHE[word] = cached
    return cached


def _bus_bin(addr: int, is_store: bool) -> str | None:
    for base, device in ((POWER_BASE, "power"), (TIMER_BASE, "timer"),
                         (UART_BASE, "uart"), (SENSOR_BASE, "sensor")):
        if base <= addr < base + _WINDOW:
            name = f"bus.{device}.{'store' if is_store else 'load'}"
            return name if name in BINS else None
    return None


def coverage_from_trace(trace, halted_by: str,
                        sensor_count: int) -> CoverageMap:
    """Extract one SoC run's coverage from its RVFI trace.

    Uses only cosim-compared columns (insn/trap/intr/mem_*) plus the
    run's ``halted_by`` and the platform's sample count, so the result is
    identical on every backend that cosimulates clean.
    """
    cov = CoverageMap()
    insn = trace.column("insn")
    trap = trace.column("trap")
    intr = trace.column("intr")
    mem_addr = trace.column("mem_addr")
    mem_rmask = trace.column("mem_rmask")
    mem_wmask = trace.column("mem_wmask")
    mem_wdata = trace.column("mem_wdata")
    rows = len(insn)
    prev_intr_cause = 0
    prev_ack = 0
    for index in range(rows):
        if trap[index]:
            mnemonic = _mnemonic(insn[index])
            cov.hit("trap.ecall" if mnemonic == "ecall" else
                    "trap.ebreak" if mnemonic == "ebreak" else
                    "trap.illegal")
        cause = intr[index]
        if cause:
            cov.hit("intr.timer" if cause == 7 else "intr.sensor")
            back_to_back = index > 0 and not trap[index - 1] \
                and _mnemonic(insn[index - 1]) == "mret"
            if back_to_back and prev_intr_cause:
                if cause == prev_intr_cause:
                    cov.hit("arb.storm.timer" if cause == 7
                            else "arb.storm.sensor")
                elif prev_intr_cause == 7:
                    cov.hit("arb.race.timer_first")
                else:
                    cov.hit("arb.race.sensor_first")
            else:
                cov.hit("arb.timer_only" if cause == 7
                        else "arb.sensor_only")
            prev_intr_cause = cause
        if not trap[index] and _mnemonic(insn[index]) == "wfi" \
                and index + 1 < rows:
            nxt = intr[index + 1]
            cov.hit("wfi.wake.timer" if nxt == 7 else
                    "wfi.wake.sensor" if nxt == 16 else
                    "wfi.wake.masked")
        if mem_rmask[index]:
            name = _bus_bin(mem_addr[index], is_store=False)
            if name:
                cov.hit(name)
        if mem_wmask[index]:
            name = _bus_bin(mem_addr[index], is_store=True)
            if name:
                cov.hit(name)
            if mem_addr[index] == _ACK_ADDR:
                ack = mem_wdata[index]
                if ack >= sensor_count:
                    cov.hit("sensor.drained")
                if ack > prev_ack + 1:
                    cov.hit("sensor.ack_skip")
                prev_ack = ack
    halt_bin = f"halt.{halted_by}"
    if halt_bin in BINS:
        cov.hit(halt_bin)
    return cov


def coverage_from_fleet(lane_halts, counter_delta: dict) -> CoverageMap:
    """Fleet-scenario coverage: per-lane halt causes plus the scenario's
    ``fleet.diverge.*`` telemetry-counter deltas."""
    cov = CoverageMap()
    for halted_by in lane_halts:
        halt_bin = f"halt.{halted_by}"
        if halt_bin in BINS:
            cov.hit(halt_bin)
    for name in family_bins("fleet.diverge."):
        delta = counter_delta.get(name, 0)
        if delta:
            cov.hit(name, delta)
    return cov


# ------------------------------------------------------- coverage report

REPORT_SCHEMA = 1
REPORT_KIND = "repro-scenario-coverage"


def build_report(result: dict, config: dict | None = None) -> dict:
    """The schema-validated campaign report document (see
    :func:`validate_report` for the contract)."""
    from ..obs.manifest import host_provenance

    coverage: CoverageMap = result["coverage"]
    probe: CoverageMap | None = result.get("probe_coverage")
    return {
        "schema": REPORT_SCHEMA,
        "kind": REPORT_KIND,
        "host": host_provenance(),
        "config": dict(config or {}),
        "bins": coverage.to_doc(),
        "covered": list(coverage.covered()),
        "uncovered": list(coverage.uncovered()),
        "probe_bins": probe.to_doc() if probe is not None else None,
        "scenarios": [dict(row) for row in result["scenarios"]],
        "failures": [dict(row) for row in result["failures"]],
    }


def validate_report(document: object) -> list[str]:
    """Structural validation; returns human-readable problems (empty =
    valid).  Like the telemetry manifest, the writer refuses to emit a
    document that fails its own schema."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["report must be an object"]
    if document.get("schema") != REPORT_SCHEMA:
        errors.append(f"schema must be {REPORT_SCHEMA}")
    if document.get("kind") != REPORT_KIND:
        errors.append(f"kind must be {REPORT_KIND!r}")
    bins = document.get("bins")
    if not isinstance(bins, dict) or list(bins) != list(BINS):
        errors.append("bins must carry exactly the registry bins, in "
                      "registry order")
    else:
        for name, value in bins.items():
            if not isinstance(value, int) or value < 0:
                errors.append(f"bins[{name!r}] must be a non-negative int")
        covered = [name for name in BINS if bins[name]]
        if document.get("covered") != covered:
            errors.append("covered must list the non-zero bins in "
                          "registry order")
        if document.get("uncovered") != \
                [name for name in BINS if not bins[name]]:
            errors.append("uncovered must list the zero bins in "
                          "registry order")
    probe = document.get("probe_bins")
    if probe is not None and (not isinstance(probe, dict)
                              or list(probe) != list(BINS)):
        errors.append("probe_bins must be null or a full registry map")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list):
        errors.append("scenarios must be a list")
    else:
        for index, row in enumerate(scenarios):
            if not isinstance(row, dict):
                errors.append(f"scenarios[{index}] must be an object")
                continue
            for key in ("scenario_id", "seed", "budget", "kind",
                        "halted_by", "instructions", "new_bins"):
                if key not in row:
                    errors.append(f"scenarios[{index}] missing {key!r}")
    failures = document.get("failures")
    if not isinstance(failures, list):
        errors.append("failures must be a list")
    else:
        for index, row in enumerate(failures):
            if not isinstance(row, dict) or any(
                    key not in row for key in ("scenario_id", "seed",
                                               "budget", "verdict")):
                errors.append(f"failures[{index}] must carry scenario_id/"
                              f"seed/budget (the replay triple) and verdict")
    return errors


def write_report(path, result: dict, config: dict | None = None):
    """Validate-then-write the campaign coverage report (refuses to emit
    a malformed document, mirroring ``obs.write_manifest``)."""
    document = build_report(result, config)
    errors = validate_report(document)
    if errors:
        raise ValueError("refusing to write invalid coverage report: "
                         + "; ".join(errors))
    out = pathlib.Path(path)
    if out.parent != pathlib.Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n")
    return out
