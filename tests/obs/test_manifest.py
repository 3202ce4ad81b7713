"""Run manifests: build, fingerprint, write/load round-trip, validation."""

from __future__ import annotations

import json

import pytest

from repro import __version__, obs
from repro.cache import code_digest
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    assert_valid_manifest,
    build_manifest,
    config_fingerprint,
    load_and_validate,
    validate_manifest,
    write_manifest,
)


def _sample_manifest() -> dict:
    return build_manifest(
        "table2",
        config={"experiments": ["table2"], "jobs": 2},
        phases=[{"name": "table2", "wall_s": 1.25}],
        cache_stats={"hits": 3, "misses": 5},
        engine_stats={"replays_segmented": 24},
        metrics={"counters": {"sim.replays": 42}},
        extra={"total_wall_s": 1.3},
    )


def test_build_manifest_pins_versions_and_config():
    m = _sample_manifest()
    assert m["schema"] == MANIFEST_SCHEMA
    assert m["kind"] == "repro-run-manifest"
    assert m["command"] == "table2"
    assert m["package"]["version"] == __version__
    assert m["package"]["code_digest"] == code_digest()
    assert m["config"]["jobs"] == 2
    assert m["cache"] == {"hits": 3, "misses": 5}
    assert m["engine"] == {"replays_segmented": 24}
    assert m["total_wall_s"] == 1.3
    assert m["host"]["pid"] > 0
    assert validate_manifest(m) == []


def test_config_fingerprint_is_stable_and_order_free():
    a = config_fingerprint({"jobs": 2, "experiments": ["table2"]})
    b = config_fingerprint({"experiments": ["table2"], "jobs": 2})
    c = config_fingerprint({"experiments": ["table2"], "jobs": 4})
    assert a == b
    assert a != c
    assert len(a) == 64
    assert int(a, 16) >= 0  # hex digest


def test_env_capture_tracks_engine_variables(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv(obs.OBS_ENV_VAR, "1")
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    m = build_manifest("fig2")
    assert m["env"]["REPRO_CACHE"] == "0"
    assert m["env"][obs.OBS_ENV_VAR] == "1"
    assert "REPRO_CACHE_DIR" not in m["env"]


def test_write_load_round_trip(tmp_path):
    m = _sample_manifest()
    path = write_manifest(tmp_path / "run.manifest.json", m)
    loaded = load_and_validate(path)
    assert loaded == json.loads(json.dumps(m))  # identical modulo JSON types
    # plain JSON on disk, one object
    assert json.loads(path.read_text())["command"] == "table2"


def test_validate_rejects_missing_keys():
    m = _sample_manifest()
    del m["config_fingerprint"]
    problems = validate_manifest(m)
    assert any("config_fingerprint" in p for p in problems)
    assert validate_manifest([]) == ["manifest must be a JSON object"]


def test_validate_rejects_bad_phases_and_fingerprint():
    m = _sample_manifest()
    m["phases"] = [{"wall_s": 1.0}, {"name": "ok"}]
    m["config_fingerprint"] = "short"
    problems = validate_manifest(m)
    assert any("phases[0]" in p for p in problems)
    assert any("phases[1]" in p for p in problems)
    assert any("sha-256" in p for p in problems)


def test_validate_rejects_wrong_kind_and_schema():
    m = _sample_manifest()
    m["kind"] = "something-else"
    m["schema"] = 99
    problems = validate_manifest(m)
    assert any("kind" in p for p in problems)
    assert any("schema" in p for p in problems)
    with pytest.raises(ValueError):
        assert_valid_manifest(m)
