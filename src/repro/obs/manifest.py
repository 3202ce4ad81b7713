"""Run manifests: one JSON record per experiment-engine invocation.

The observability layer's third pillar.  A manifest is the durable,
machine-readable answer to "what produced these artifacts?": it pins the
package version and the result-cache code digest, fingerprints the run configuration,
records per-phase wall times, and embeds the final metric snapshot plus
cache and replay-engine statistics — enough to compare two runs, audit a
regression, or invalidate stale artifacts, without re-reading logs.

The CLI (``repro-experiments ... --obs``) writes one next to its
artifacts; :func:`validate_manifest` is the schema check the test suite
and the CI obs-smoke job apply to the emitted file.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..cache import code_digest, fingerprint

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "write_manifest",
    "validate_manifest",
]

MANIFEST_SCHEMA = 1

#: Environment variables that change engine behaviour, captured verbatim.
_ENV_KEYS = ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_OBS")


def _host_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "hostname": platform.node(),
        "cpus_available": os.cpu_count(),
        "pid": os.getpid(),
    }


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Stable content hash of a run's configuration mapping."""
    parts = [f"{k}={config[k]!r}" for k in sorted(config)]
    return fingerprint("run-config", *parts)


def build_manifest(
    command: str,
    config: Mapping[str, Any] | None = None,
    phases: Sequence[Mapping[str, Any]] | None = None,
    cache_stats: Mapping[str, Any] | None = None,
    engine_stats: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    """Assemble a manifest dict (pure — writes nothing).

    ``phases`` entries are ``{"name": ..., "wall_s": ...}`` (+ free-form
    fields); ``cache_stats``/``engine_stats``/``metrics`` are embedded
    as-is so callers control exactly which counters a run exposes.
    """
    from .. import __version__

    config = dict(config or {})
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": "repro-run-manifest",
        "created_unix": time.time(),
        "command": command,
        "argv": list(sys.argv),
        "package": {
            "name": "repro",
            "version": __version__,
            "code_digest": code_digest(),
        },
        "host": _host_info(),
        "env": {k: os.environ[k] for k in _ENV_KEYS if k in os.environ},
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "phases": [dict(p) for p in phases or ()],
        "cache": dict(cache_stats or {}),
        "engine": dict(engine_stats or {}),
        "metrics": dict(metrics or {}),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str | Path, manifest: Mapping[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return path


# ---------------------------------------------------------------------- #
_REQUIRED_TOP = (
    "schema",
    "kind",
    "created_unix",
    "command",
    "package",
    "host",
    "config",
    "config_fingerprint",
    "phases",
    "cache",
    "engine",
    "metrics",
)


def validate_manifest(obj: Any) -> list[str]:
    """Check a parsed manifest; returns human-readable problems (empty == ok)."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return ["manifest must be a JSON object"]
    for key in _REQUIRED_TOP:
        if key not in obj:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if obj["kind"] != "repro-run-manifest":
        problems.append(f"kind must be 'repro-run-manifest', got {obj['kind']!r}")
    if obj["schema"] != MANIFEST_SCHEMA:
        problems.append(f"unknown schema {obj['schema']!r}")
    pkg = obj["package"]
    for key in ("version", "code_digest"):
        if key not in pkg:
            problems.append(f"package record missing {key!r}")
    if not isinstance(obj["phases"], list):
        problems.append("'phases' must be a list")
    else:
        for i, phase in enumerate(obj["phases"]):
            if not isinstance(phase, dict) or "name" not in phase:
                problems.append(f"phases[{i}] must be an object with 'name'")
            elif not isinstance(phase.get("wall_s"), (int, float)):
                problems.append(f"phases[{i}] missing numeric 'wall_s'")
    if not isinstance(obj["config_fingerprint"], str) or len(
        obj["config_fingerprint"]
    ) != 64:
        problems.append("config_fingerprint must be a sha-256 hex digest")
    for section in ("cache", "engine", "metrics"):
        if not isinstance(obj[section], dict):
            problems.append(f"'{section}' must be an object")
    return problems


def assert_valid_manifest(obj: Any) -> None:
    problems = validate_manifest(obj)
    if problems:
        raise ValueError("invalid run manifest:\n  " + "\n  ".join(problems))


def load_and_validate(path: str | Path) -> dict:
    obj = json.loads(Path(path).read_text())
    assert_valid_manifest(obj)
    return obj
