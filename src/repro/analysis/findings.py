"""Finding records, the waiver allowlist, and the ``--lint-out`` report.

Every analyzer in :mod:`repro.analysis` reports through one currency: the
:class:`Finding` — a frozen ``(analyzer, rule, location, detail)`` record.
Findings are *stable*: :func:`dedup_findings` sorts and deduplicates them,
so a sharded lattice sweep merged in task order is bit-identical at any
worker count, and two runs over the same tree produce the same artifact
byte-for-byte (modulo host provenance).

Deliberate structural choices in the shipped RTL are not silently special-
cased inside the analyzers; they are *waived* here, in one inline allowlist
(:data:`WAIVERS`) where every entry carries a reason string.  The clean-tree
gate asserts zero findings *after* waivers, so a new finding class anywhere
in the tree either gets fixed or gets an auditable entry in this table.

The ``--lint-out`` artifact follows the repo's validate-then-write idiom
(``obs.write_manifest`` / ``scenario.write_report``): :func:`write_lint_report`
refuses to emit a document that fails :func:`validate_lint_report`.
"""

from __future__ import annotations

import fnmatch
import json
import pathlib
from dataclasses import dataclass
from typing import Iterable

#: Analyzer names, in report order.
ANALYZERS: tuple[str, ...] = ("rtl", "gen", "contract")

#: Rule-id prefix per analyzer (every rule id is ``<prefix><3 digits>``).
_RULE_PREFIX = {"rtl": "RTL", "gen": "GEN", "contract": "CON"}


@dataclass(frozen=True, order=True)
class Finding:
    """One deduplicated static-analysis finding.

    ``location`` is analyzer-specific but always ``<container>:<signal>``
    shaped — ``module:signal`` for RTL, ``source:function[:line]`` for the
    generated-source auditor, ``file:line`` for the contract linter — so
    waiver globs have a uniform surface to match against.
    """

    analyzer: str
    rule: str
    location: str
    detail: str

    def to_doc(self) -> dict[str, str]:
        return {"analyzer": self.analyzer, "rule": self.rule,
                "location": self.location, "detail": self.detail}


def dedup_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Sorted, exact-duplicate-free finding list (the merge operation for
    sharded sweeps — associative, commutative, idempotent)."""
    return sorted(set(findings))


# ---------------------------------------------------------------- waivers


@dataclass(frozen=True)
class Waiver:
    """One allowlist entry: ``rule`` + globs over the finding location.

    ``location_glob`` matches the full ``Finding.location`` with
    :func:`fnmatch.fnmatchcase`; the mandatory ``reason`` is carried into
    the report so a waiver is never silent.
    """

    rule: str
    location_glob: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        return finding.rule == self.rule and \
            fnmatch.fnmatchcase(finding.location, self.location_glob)


#: The shipped tree's deliberate structural choices (satellite: "fix or
#: waive with a reason").  Kept small on purpose — anything that *can* be
#: fixed without perturbing an externally checked contract is fixed in the
#: RTL instead (see PR 10 in CHANGES.md).
WAIVERS: tuple[Waiver, ...] = (
    Waiver("RTL006", "*:pc",
           "block port contract: every instruction block takes pc/insn "
           "even when its datapath ignores them (uniform stitching)"),
    Waiver("RTL006", "*:insn",
           "block port contract: every instruction block takes pc/insn "
           "even when its datapath ignores them (uniform stitching)"),
    Waiver("RTL004", "*:mcause",
           "architectural CSR state: written by the trap unit, read by the "
           "harness/firmware via the emulated csrr path, not by core logic"),
    Waiver("RTL004", "*:mepc",
           "architectural CSR state: consumed by mret's next_pc when the "
           "subset includes mret; otherwise harness-visible trap context"),
    Waiver("RTL006", "rissp*:dmem_rdata",
           "fused harness interface: every stitched RISSP exposes the full "
           "dmem port set (core_fusable contract) even when the subset has "
           "no loads to read it"),
)


def apply_waivers(
    findings: Iterable[Finding],
) -> tuple[list[Finding], list[tuple[Finding, Waiver]]]:
    """Split findings into (kept, waived-with-reason) by :data:`WAIVERS`,
    both stably sorted."""
    kept: list[Finding] = []
    waived: list[tuple[Finding, Waiver]] = []
    for finding in dedup_findings(findings):
        for waiver in WAIVERS:
            if waiver.matches(finding):
                waived.append((finding, waiver))
                break
        else:
            kept.append(finding)
    return kept, waived


# ---------------------------------------------------------- lint report

LINT_SCHEMA = 1
LINT_KIND = "repro-lint-report"


def build_lint_report(result: dict, config: dict | None = None) -> dict:
    """The schema-validated ``--lint-out`` document (see
    :func:`validate_lint_report` for the contract)."""
    from ..obs.manifest import host_provenance

    kept: list[Finding] = dedup_findings(result["findings"])
    waived: list[tuple[Finding, Waiver]] = sorted(
        result.get("waived", ()), key=lambda pair: pair[0])
    counts = {name: 0 for name in ANALYZERS}
    for finding in kept:
        # Unknown analyzers still land in counts — the validator then
        # rejects the document, which is the refusal contract.
        counts[finding.analyzer] = counts.get(finding.analyzer, 0) + 1
    return {
        "schema": LINT_SCHEMA,
        "kind": LINT_KIND,
        "host": host_provenance(),
        "config": dict(config or {}),
        "targets": dict(result.get("targets", {})),
        "counts": counts,
        "findings": [finding.to_doc() for finding in kept],
        "waived": [dict(finding.to_doc(), reason=waiver.reason)
                   for finding, waiver in waived],
    }


def validate_lint_report(document: object) -> list[str]:
    """Structural validation; returns human-readable problems (empty =
    valid).  The writer refuses to emit a document that fails this."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["report must be an object"]
    if document.get("schema") != LINT_SCHEMA:
        errors.append(f"schema must be {LINT_SCHEMA}")
    if document.get("kind") != LINT_KIND:
        errors.append(f"kind must be {LINT_KIND!r}")
    targets = document.get("targets")
    if not isinstance(targets, dict) or \
            not all(isinstance(v, int) and v >= 0 for v in targets.values()):
        errors.append("targets must map target kinds to non-negative counts")
    rows = document.get("findings")
    if not isinstance(rows, list):
        errors.append("findings must be a list")
        rows = []
    keys = ("analyzer", "rule", "location", "detail")
    seen: list[tuple[str, ...]] = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict) or sorted(row) != sorted(keys):
            errors.append(f"findings[{index}] must carry exactly "
                          f"analyzer/rule/location/detail")
            continue
        if row["analyzer"] not in ANALYZERS:
            errors.append(f"findings[{index}]: unknown analyzer "
                          f"{row['analyzer']!r}")
        elif not row["rule"].startswith(_RULE_PREFIX[row["analyzer"]]):
            errors.append(f"findings[{index}]: rule {row['rule']!r} does "
                          f"not belong to analyzer {row['analyzer']!r}")
        seen.append(tuple(row[k] for k in keys))
    if seen != sorted(set(seen)):
        errors.append("findings must be sorted and deduplicated")
    counts = document.get("counts")
    if not isinstance(counts, dict) or list(counts) != list(ANALYZERS):
        errors.append("counts must carry exactly the analyzer registry, "
                      "in order")
    elif not errors:
        actual = {name: 0 for name in ANALYZERS}
        for row in rows:
            actual[row["analyzer"]] += 1
        if counts != actual:
            errors.append("counts must agree with the finding list")
    waived = document.get("waived")
    if not isinstance(waived, list):
        errors.append("waived must be a list")
    else:
        for index, row in enumerate(waived):
            if not isinstance(row, dict) or "reason" not in row \
                    or not row.get("reason"):
                errors.append(f"waived[{index}] must carry a non-empty "
                              f"reason string")
    return errors


def write_lint_report(path: str | pathlib.Path, result: dict,
                      config: dict | None = None) -> pathlib.Path:
    """Validate-then-write the lint artifact (refuses to emit a malformed
    document, mirroring ``obs.write_manifest``)."""
    document = build_lint_report(result, config)
    errors = validate_lint_report(document)
    if errors:
        raise ValueError("refusing to write invalid lint report: "
                         + "; ".join(errors))
    out = pathlib.Path(path)
    if out.parent != pathlib.Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n")
    return out
