"""The run manifest: one schema-validated JSON document per run.

A manifest is the machine-readable record of *what a run actually did*:
the configuration it ran under, per-stage spans, the whole-run counter
totals (session + every farm task), derived cache-hit rates, the
per-task timing snapshots, and enough host provenance to compare runs
across machines.  ``python -m repro --telemetry PATH`` writes one per
invocation — including failed ones, so a crashed campaign still leaves
its telemetry behind.

Like :mod:`repro.core.bench_schema`, validation is the writer's problem:
:func:`write_manifest` refuses to write a document
:func:`validate_manifest` rejects, so CI can never upload a malformed
manifest.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform

from .telemetry import COUNTERS, TASK_SNAPSHOT_KEYS, Telemetry

#: Manifest schema revision (independent of the BENCH_* artifact schema).
MANIFEST_SCHEMA_VERSION = 1

_TOP_KEYS = ("schema", "kind", "host", "config", "counters",
             "cache_rates", "stages", "tasks")

_KIND = "repro-telemetry-manifest"


def host_provenance() -> dict:
    """Host fingerprint shared by manifests and (schema v3+) BENCH_*
    artifacts: interpreter, architecture, OS, full platform string, and
    CPU count."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def _rate(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def cache_rates(counters: dict) -> dict:
    """Derived hit rates from the raw counters — fixed key set, so the
    manifest structure never depends on which caches a run touched.

    ``decode_cache.hit_rate`` is a documented upper bound: lookups are
    counted as fused-loop retirements, but emulated Zicsr/``wfi`` and
    RV32E-bound retirements never probe the per-word cache, so lookups
    over-count probes and the derived rate is at least the true one.
    """
    lookups = counters.get("decode_cache.lookups", 0)
    sig_lookups = counters.get("riscof.sig_lookup", 0)
    rebuilds = (counters.get("farm.core_rebuild.memo_hit", 0)
                + counters.get("farm.core_rebuild.build", 0))
    rates = {
        "decode_cache.hit_rate": _rate(
            lookups - counters.get("decode_cache.misses", 0), lookups),
        "riscof.sig_memo_hit_rate": _rate(
            counters.get("riscof.sig_memo_hit", 0), sig_lookups),
        "farm.core_rebuild.memo_hit_rate": _rate(
            counters.get("farm.core_rebuild.memo_hit", 0), rebuilds),
    }
    for tier in ("module", "core", "fleet"):
        hits = counters.get(f"compile_cache.{tier}.hit", 0)
        misses = counters.get(f"compile_cache.{tier}.miss", 0)
        rates[f"compile_cache.{tier}.hit_rate"] = _rate(hits, hits + misses)
    return rates


def build_manifest(telemetry: Telemetry, config: dict | None = None) -> dict:
    """Assemble the manifest document from one finished session."""
    counters = telemetry.merged_counters()
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": _KIND,
        "host": host_provenance(),
        "config": dict(config or {}),
        "counters": counters,
        "cache_rates": cache_rates(counters),
        "stages": [dict(span) for span in telemetry.spans],
        "tasks": [dict(snapshot) for snapshot in telemetry.tasks],
    }


def _finite(value: object) -> bool:
    return (isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value))


def validate_manifest(document: object) -> list[str]:
    """Validate one manifest document; returns error strings (empty when
    the document conforms)."""
    if not isinstance(document, dict):
        return [f"manifest must be a JSON object, got "
                f"{type(document).__name__}"]
    errors: list[str] = []
    for key in _TOP_KEYS:
        if key not in document:
            errors.append(f"missing required field {key!r}")
    unknown = set(document) - set(_TOP_KEYS)
    if unknown:
        errors.append(f"unknown top-level fields {sorted(unknown)}")
    if document.get("kind") != _KIND:
        errors.append(f"kind must be {_KIND!r}, got "
                      f"{document.get('kind')!r}")
    schema = document.get("schema")
    if not isinstance(schema, int) or isinstance(schema, bool) \
            or not 1 <= schema <= MANIFEST_SCHEMA_VERSION:
        errors.append(f"schema must be an int in "
                      f"[1, {MANIFEST_SCHEMA_VERSION}], got {schema!r}")
    host = document.get("host")
    if isinstance(host, dict):
        for key in ("python", "machine", "system", "platform"):
            if not isinstance(host.get(key), str) or not host.get(key):
                errors.append(f"host.{key} must be a non-empty string")
        cpus = host.get("cpu_count")
        if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
            errors.append(f"host.cpu_count must be a positive int, "
                          f"got {cpus!r}")
    elif host is not None:
        errors.append("host must be an object")
    config = document.get("config")
    if config is not None and not isinstance(config, dict):
        errors.append("config must be an object")
    counters = document.get("counters")
    if isinstance(counters, dict):
        missing = [name for name in COUNTERS if name not in counters]
        if missing:
            errors.append(f"counters missing registry names {missing}")
        extra = sorted(set(counters) - set(COUNTERS))
        if extra:
            errors.append(f"counters carry unregistered names {extra}")
        for name, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                errors.append(f"counters[{name!r}] must be a "
                              f"non-negative int, got {value!r}")
    elif counters is not None:
        errors.append("counters must be an object")
    rates = document.get("cache_rates")
    if isinstance(rates, dict):
        for name, value in rates.items():
            if not _finite(value):
                errors.append(f"cache_rates[{name!r}] must be a finite "
                              f"number, got {value!r}")
    elif rates is not None:
        errors.append("cache_rates must be an object")
    stages = document.get("stages")
    if isinstance(stages, list):
        for index, span in enumerate(stages):
            if not isinstance(span, dict) \
                    or not isinstance(span.get("name"), str) \
                    or not _finite(span.get("start_sec")) \
                    or not _finite(span.get("dur_sec")) \
                    or not isinstance(span.get("labels"), dict):
                errors.append(f"stages[{index}] is not a valid span "
                              f"record")
    elif stages is not None:
        errors.append("stages must be a list")
    tasks = document.get("tasks")
    if isinstance(tasks, list):
        for index, snapshot in enumerate(tasks):
            if not isinstance(snapshot, dict) \
                    or tuple(sorted(snapshot)) \
                    != tuple(sorted(TASK_SNAPSHOT_KEYS)):
                errors.append(f"tasks[{index}] must carry exactly keys "
                              f"{sorted(TASK_SNAPSHOT_KEYS)}")
                continue
            if not isinstance(snapshot["task_id"], str) \
                    or not snapshot["task_id"]:
                errors.append(f"tasks[{index}].task_id must be a "
                              f"non-empty string")
            if not isinstance(snapshot["counters"], dict):
                errors.append(f"tasks[{index}].counters must be an object")
    elif tasks is not None:
        errors.append("tasks must be a list")
    return errors


def write_manifest(path: "pathlib.Path | str", telemetry: Telemetry,
                   config: dict | None = None) -> pathlib.Path:
    """Build, validate and write the manifest; refuses malformed output
    exactly like :func:`repro.core.bench_schema.write_bench_artifact`."""
    document = build_manifest(telemetry, config)
    errors = validate_manifest(document)
    if errors:
        raise ValueError(f"refusing to write malformed telemetry "
                         f"manifest: {errors}")
    path = pathlib.Path(path)
    if path.parent != pathlib.Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
