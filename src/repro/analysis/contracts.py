"""Repo-contract linter: AST cross-checks over ``src/repro`` itself.

The farm/telemetry/scenario layers rest on three conventions that nothing
enforced until now:

* the telemetry counter registry (``obs.COUNTERS``) and the coverage bin
  registry (``scenario.coverage.BINS``) are *closed*: every ``bump()`` /
  ``counters[...]`` / ``hit()`` literal must name a registered entry, and
  every registered entry must have a reachable usage site;
* farm task dataclasses are picklable **by construction** — no callable,
  lambda or module-typed fields that would die (or worse, silently
  rebind) on the way to a worker process;
* merge paths that fold worker results back together are deterministic —
  no wall-clock, no unseeded randomness, no iteration over bare ``set``s
  feeding merged output.

=======  ==================================================================
CON001   counter literal not in ``obs.COUNTERS``
CON002   ``obs.COUNTERS`` entry with no usage site (literal or f-string
         family prefix)
CON003   coverage-bin mismatch: ``hit()`` literal not in ``BINS``, or a
         ``BINS`` entry no literal / prefix ever reaches
CON004   farm task dataclass field unpicklable by construction
CON005   nondeterminism source inside a merge path
=======  ==================================================================

Findings carry ``location = "<file-relative-to-root>:<line>"``.  The
registries and the scan root are injectable so the seeded-defect suite can
point the linter at a synthetic tree.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Sequence

from .findings import Finding

#: Type names that make a dataclass field unpicklable by construction.
_UNPICKLABLE_TYPES = frozenset({
    "Callable", "FunctionType", "LambdaType", "ModuleType",
})

#: ``time`` attributes that read the wall clock.
_CLOCK_ATTRS = frozenset({"time", "time_ns", "perf_counter",
                          "perf_counter_ns", "monotonic", "monotonic_ns"})

#: Module-level ``random.<fn>`` calls draw from the shared unseeded RNG.
_GLOBAL_RANDOM_ATTRS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "getrandbits", "uniform",
})


def default_root() -> pathlib.Path:
    """The shipped package tree (``src/repro``)."""
    return pathlib.Path(__file__).resolve().parents[1]


def lint_contracts(root: str | pathlib.Path | None = None,
                   counters: Sequence[str] | None = None,
                   bins: Sequence[str] | None = None) -> list[Finding]:
    """All contract findings for the package tree under ``root``."""
    base = pathlib.Path(root) if root is not None else default_root()
    if counters is None:
        from ..obs import COUNTERS as counters  # type: ignore[no-redef]
    if bins is None:
        from ..scenario.coverage import BINS as bins  # type: ignore[no-redef]

    findings: list[Finding] = []
    counter_literals: set[str] = set()
    bin_literals: set[str] = set()
    prefixes: set[str] = set()

    files = sorted(base.rglob("*.py"))
    for path in files:
        rel = path.relative_to(base).as_posix()
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError as error:
            findings.append(Finding(
                "contract", "CON005", f"{rel}:{error.lineno}",
                f"file does not parse: {error.msg}"))
            continue
        findings.extend(_scan_registry_usage(
            tree, rel, counters, bins,
            counter_literals, bin_literals, prefixes))
        if rel.startswith("farm/"):
            findings.extend(_scan_task_dataclasses(tree, rel))
        if rel.startswith(("farm/", "scenario/")):
            findings.extend(_scan_merge_paths(tree, rel))

    registry_loc = f"{base.name}:COUNTERS"
    for name in counters:
        if name not in counter_literals and \
                not any(name.startswith(p) for p in prefixes):
            findings.append(Finding(
                "contract", "CON002", registry_loc,
                f"counter {name!r} is registered but never bumped "
                f"(no literal usage site, no f-string family prefix)"))
    bins_loc = f"{base.name}:BINS"
    for name in bins:
        if name not in bin_literals and \
                not any(name.startswith(p) for p in prefixes):
            findings.append(Finding(
                "contract", "CON003", bins_loc,
                f"coverage bin {name!r} is registered but no hit() "
                f"literal or family prefix ever reaches it"))
    return sorted(set(findings))


# --------------------------------------------------- registry usage sites


def _const_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _arg_str_literals(node: ast.expr) -> list[str]:
    """Every full string literal an argument expression can evaluate to.

    Covers the conditional idiom ``cov.hit("a" if x else "b")`` by
    descending only into positions the expression can *return* — IfExp
    branches (never the test, whose comparison constants are not bin
    names) and ``or``-chain operands.  F-strings are skipped; those earn
    family-*prefix* credit, not literal credit.
    """
    out: list[str] = []
    stack: list[ast.expr] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Constant) and isinstance(cur.value, str):
            out.append(cur.value)
        elif isinstance(cur, ast.IfExp):
            stack.extend((cur.body, cur.orelse))
        elif isinstance(cur, ast.BoolOp) and isinstance(cur.op, ast.Or):
            stack.extend(cur.values)
    return sorted(out)


def _joined_prefix(node: ast.expr) -> str | None:
    """Leading constant prefix of an f-string (family usage credit)."""
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str) \
                and head.value:
            return head.value
    return None


def _scan_registry_usage(tree: ast.Module, rel: str,
                         counters: Sequence[str], bins: Sequence[str],
                         counter_literals: set[str], bin_literals: set[str],
                         prefixes: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    counter_set = set(counters)
    bin_set = set(bins)
    for node in ast.walk(tree):
        prefix = _joined_prefix(node) if isinstance(node, ast.JoinedStr) \
            else None
        if prefix:
            prefixes.add(prefix)
        if isinstance(node, ast.Subscript):
            value = node.value
            is_counters = (isinstance(value, ast.Attribute)
                           and value.attr == "counters") or \
                          (isinstance(value, ast.Name)
                           and value.id == "counters")
            if not is_counters:
                continue
            literal = _const_str(node.slice)
            if literal is None:
                continue
            counter_literals.add(literal)
            if literal not in counter_set:
                findings.append(Finding(
                    "contract", "CON001", f"{rel}:{node.lineno}",
                    f"counter literal {literal!r} not in obs.COUNTERS"))
        elif isinstance(node, ast.Call):
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if attr == "bump" and node.args:
                for literal in _arg_str_literals(node.args[0]):
                    counter_literals.add(literal)
                    if literal not in counter_set:
                        findings.append(Finding(
                            "contract", "CON001", f"{rel}:{node.lineno}",
                            f"bump() literal {literal!r} not in "
                            f"obs.COUNTERS"))
            elif attr == "hit" and node.args:
                for literal in _arg_str_literals(node.args[0]):
                    bin_literals.add(literal)
                    if literal not in bin_set:
                        findings.append(Finding(
                            "contract", "CON003", f"{rel}:{node.lineno}",
                            f"hit() literal {literal!r} not in "
                            f"coverage BINS"))
            elif attr == "family_bins" and node.args:
                literal = _const_str(node.args[0])
                if literal is not None:
                    prefixes.add(literal)
    return findings


# ----------------------------------------------- farm task picklability


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _scan_task_dataclasses(tree: ast.Module, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or \
                not _is_dataclass_decorated(node):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            bad = sorted(
                leaf.id if isinstance(leaf, ast.Name) else leaf.attr
                for leaf in ast.walk(stmt.annotation)
                if (isinstance(leaf, ast.Name)
                    and leaf.id in _UNPICKLABLE_TYPES)
                or (isinstance(leaf, ast.Attribute)
                    and leaf.attr in _UNPICKLABLE_TYPES))
            if bad:
                findings.append(Finding(
                    "contract", "CON004", f"{rel}:{stmt.lineno}",
                    f"farm task dataclass {node.name} field annotated "
                    f"{'/'.join(bad)}: not picklable by construction"))
            if stmt.value is not None and any(
                    isinstance(leaf, ast.Lambda)
                    for leaf in ast.walk(stmt.value)):
                findings.append(Finding(
                    "contract", "CON004", f"{rel}:{stmt.lineno}",
                    f"farm task dataclass {node.name} field has a lambda "
                    f"default: not picklable by construction"))
    return findings


# ----------------------------------------------------- merge determinism


def _scan_merge_paths(tree: ast.Module, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        # Hard nondeterminism sources are banned anywhere in farm/scenario.
        if isinstance(node, ast.Attribute) and node.attr == "urandom":
            findings.append(Finding(
                "contract", "CON005", f"{rel}:{node.lineno}",
                "os.urandom in a farm/scenario module"))
        elif isinstance(node, ast.Attribute) and node.attr == "SystemRandom":
            findings.append(Finding(
                "contract", "CON005", f"{rel}:{node.lineno}",
                "random.SystemRandom in a farm/scenario module"))
        if not isinstance(node, ast.FunctionDef) or "merge" not in node.name:
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Attribute) and \
                    isinstance(inner.value, ast.Name):
                if inner.value.id == "time" and inner.attr in _CLOCK_ATTRS:
                    findings.append(Finding(
                        "contract", "CON005", f"{rel}:{inner.lineno}",
                        f"wall clock (time.{inner.attr}) inside merge "
                        f"path {node.name}()"))
                elif inner.value.id == "random" and \
                        inner.attr in _GLOBAL_RANDOM_ATTRS:
                    findings.append(Finding(
                        "contract", "CON005", f"{rel}:{inner.lineno}",
                        f"unseeded random.{inner.attr} inside merge "
                        f"path {node.name}()"))
            elif isinstance(inner, ast.Call) and \
                    isinstance(inner.func, ast.Name) and \
                    inner.func.id == "Random" and not inner.args:
                findings.append(Finding(
                    "contract", "CON005", f"{rel}:{inner.lineno}",
                    f"unseeded Random() inside merge path {node.name}()"))
            elif isinstance(inner, ast.For) and (
                    isinstance(inner.iter, ast.Set) or
                    (isinstance(inner.iter, ast.Call)
                     and isinstance(inner.iter.func, ast.Name)
                     and inner.iter.func.id == "set")):
                findings.append(Finding(
                    "contract", "CON005", f"{rel}:{inner.lineno}",
                    f"iteration over a bare set inside merge path "
                    f"{node.name}(): order feeds merged results"))
    return findings
