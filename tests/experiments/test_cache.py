"""Persistent result cache: round-trips, invalidation, escape hatches."""

import pickle
import shutil
from pathlib import Path

import pytest

from repro import cache as cache_mod
from repro.analysis.cycles import EstimationModel
from repro.cache import (
    RESULT_SOURCES,
    ResultCache,
    code_digest,
    fingerprint,
    program_fingerprint,
    suite_fingerprint,
    trace_fingerprint,
)
from repro.disksim.params import SubsystemParams
from repro.experiments import schemes as schemes_mod
from repro.experiments.schemes import SCHEME_NAMES, run_schemes
from repro.trace.generator import TraceOptions, generate_trace

PARAMS = SubsystemParams(num_disks=4)
EST = EstimationModel(relative_error=0.05)


def _run(phase_program, phase_layout, small_trace_options, cache=None):
    return run_schemes(
        phase_program, phase_layout, PARAMS, small_trace_options, EST, cache=cache
    )


def test_cached_round_trip_is_field_identical(
    phase_program, phase_layout, small_trace_options, tmp_path,
    assert_results_identical,
):
    """A suite served entirely from cache equals a fresh uncached run,
    field by field, for every scheme."""
    fresh = _run(phase_program, phase_layout, small_trace_options)

    cold = ResultCache(tmp_path / "cache")
    first = _run(phase_program, phase_layout, small_trace_options, cache=cold)
    assert cold.hits == 0
    # One entry per scheme plus the generated base trace.
    assert cold.misses == len(SCHEME_NAMES) + 1

    warm = ResultCache(tmp_path / "cache")
    second = _run(phase_program, phase_layout, small_trace_options, cache=warm)
    assert warm.hits == len(SCHEME_NAMES) + 1
    assert warm.misses == 0

    for scheme in SCHEME_NAMES:
        assert_results_identical(fresh.results[scheme], first.results[scheme])
        assert_results_identical(fresh.results[scheme], second.results[scheme])
    # The compiler plans ride along in the CM payloads, so a warm suite can
    # still serve table3/ablation consumers.
    assert set(second.plans) == {"CMTPM", "CMDRPM"}
    assert second.plans["CMDRPM"].num_calls == first.plans["CMDRPM"].num_calls
    # Derived timelines survive the round trip too.
    assert second.measured == first.measured


def test_fingerprint_is_a_content_address(
    phase_program, phase_layout, small_trace_options
):
    fp = suite_fingerprint(
        phase_program, phase_layout, PARAMS, small_trace_options, EST
    )
    again = suite_fingerprint(
        phase_program, phase_layout, PARAMS, small_trace_options, EST
    )
    assert fp == again
    changed = suite_fingerprint(
        phase_program,
        phase_layout,
        SubsystemParams(num_disks=8),
        small_trace_options,
        EST,
    )
    assert changed != fp
    other_est = suite_fingerprint(
        phase_program,
        phase_layout,
        PARAMS,
        small_trace_options,
        EstimationModel(relative_error=0.2),
    )
    assert other_est != fp
    assert program_fingerprint(phase_program) != program_fingerprint(
        phase_program.__class__(
            name="other",
            arrays=phase_program.arrays,
            nests=phase_program.nests,
            clock_hz=phase_program.clock_hz,
        )
    )


def test_trace_fingerprint_is_a_content_address(
    phase_program, phase_layout, small_trace_options
):
    fp = trace_fingerprint(phase_program, phase_layout, small_trace_options)
    assert fp == trace_fingerprint(phase_program, phase_layout, small_trace_options)
    other_opts = TraceOptions(
        buffer_cache_bytes=small_trace_options.buffer_cache_bytes * 2,
        cache_line_bytes=small_trace_options.cache_line_bytes,
        max_request_bytes=small_trace_options.max_request_bytes,
    )
    assert trace_fingerprint(phase_program, phase_layout, other_opts) != fp
    renamed = phase_program.__class__(
        name="other",
        arrays=phase_program.arrays,
        nests=phase_program.nests,
        clock_hz=phase_program.clock_hz,
    )
    assert trace_fingerprint(renamed, phase_layout, small_trace_options) != fp


def _copy_result_sources(dst: Path) -> Path:
    root = Path(cache_mod.__file__).parent
    for name in RESULT_SOURCES:
        src = root / name
        if src.is_dir():
            shutil.copytree(
                src, dst / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        else:
            (dst / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dst / name)
    return dst


def test_one_byte_source_edit_changes_every_key(
    phase_program, phase_layout, small_trace_options, tmp_path, monkeypatch
):
    """Keys derive from the code: one edited byte in the disk model, in a
    module that computes a derived (ablation or extension) replay, or in
    the trace-replay suite that builds its own cached payloads, changes
    the digest, and with it every suite, trace and derived key."""
    clean = _copy_result_sources(tmp_path / "clean")
    assert code_digest(clean) == code_digest()
    cache = ResultCache(tmp_path / "cache")

    def keys():
        suite_fp = suite_fingerprint(
            phase_program, phase_layout, PARAMS, small_trace_options, EST
        )
        return (
            suite_fp,
            trace_fingerprint(phase_program, phase_layout, small_trace_options),
            trace_fingerprint(None, phase_layout, None, source="synth"),
            cache.derived_key(suite_fp, "AdaptiveTPM"),
        )

    before = keys()
    for module in (
        "disksim/disk.py",
        "experiments/ablations.py",
        "experiments/pdc_experiment.py",
        "experiments/trace_replay.py",
    ):
        edited = _copy_result_sources(tmp_path / module.replace("/", "-"))
        path = edited / module
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        assert code_digest(edited) != code_digest()
        monkeypatch.setattr(cache_mod, "code_digest", lambda: code_digest(edited))
        after = keys()
        monkeypatch.undo()
        assert all(a != b for a, b in zip(before, after)), module


def test_warm_suite_serves_trace_from_cache(
    phase_program, phase_layout, small_trace_options, tmp_path, monkeypatch,
    assert_results_identical,
):
    """A warm run must not regenerate the base trace at all: the cached
    columns round-trip, and every scheme result still matches."""
    cold = ResultCache(tmp_path / "cache")
    first = _run(phase_program, phase_layout, small_trace_options, cache=cold)

    def _boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("warm run regenerated the trace")

    monkeypatch.setattr(schemes_mod, "generate_trace", _boom)
    warm = ResultCache(tmp_path / "cache")
    second = _run(phase_program, phase_layout, small_trace_options, cache=warm)
    assert warm.misses == 0
    for scheme in SCHEME_NAMES:
        assert_results_identical(first.results[scheme], second.results[scheme])
    fresh = generate_trace(phase_program, phase_layout, small_trace_options)
    assert second.base_trace == fresh


def test_fully_cached_suite_skips_analysis_and_replay_plans(
    phase_program, phase_layout, small_trace_options, tmp_path, monkeypatch
):
    """A suite served entirely from cache analyzes nothing and builds no
    replay plan; its measured timeline and base trace are still there."""
    first = _run(
        phase_program, phase_layout, small_trace_options,
        cache=ResultCache(tmp_path / "cache"),
    )

    def _boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("warm suite did work the cache covers")

    for name in ("analyze_program", "compute_timing"):
        monkeypatch.setattr(schemes_mod, name, _boom)
    monkeypatch.setattr(schemes_mod.ReplayPlan, "for_trace", _boom)
    second = _run(
        phase_program, phase_layout, small_trace_options,
        cache=ResultCache(tmp_path / "cache"),
    )
    assert second.measured == first.measured
    assert second.base_trace == first.base_trace
    assert second.fingerprint == first.fingerprint is not None


def test_version_mismatch_and_corruption_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("some", "key")
    cache.store(key, {"answer": 42})
    assert cache.load(key) == {"answer": 42}

    # Envelope written by different code (another digest) never matches.
    path = cache._path(key)
    path.write_bytes(pickle.dumps({"version": "0" * 64, "payload": {"answer": 42}}))
    assert cache.load(key) is None

    # A truncated/corrupted file degrades to a miss, not an exception.
    path.write_bytes(b"\x80not a pickle")
    assert cache.load(key) is None
    assert cache.load(fingerprint("absent")) is None


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("k")
    cache.store(key, 1)
    assert cache.load(key) == 1
    cache.clear()
    assert cache.load(key) is None


def test_from_env_toggle_and_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert ResultCache.from_env() is None
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert ResultCache.from_env() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = ResultCache.from_env()
    assert cache is not None
    assert cache.root == tmp_path / "elsewhere"


def test_store_survives_unwritable_root(tmp_path):
    """The cache is an optimization: a bad root must never fail the run."""
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("occupied")
    cache = ResultCache(blocked)
    cache.store(fingerprint("k"), 1)  # silently a no-op
    assert cache.load(fingerprint("k")) is None


def test_clear_removes_stray_temp_files(tmp_path):
    """An interrupted store leaves its mkstemp file behind; clear() must
    sweep those too."""
    cache = ResultCache(tmp_path)
    key = fingerprint("k")
    cache.store(key, 1)
    stray = cache._path(key).parent / "tmpabc123.tmp"
    stray.write_bytes(b"half a pickle")
    cache.clear()
    assert not stray.exists()
    assert sorted(tmp_path.rglob("*")) == [
        cache._path(key).parent.parent, cache._path(key).parent
    ]


def test_first_store_prunes_other_digests_only(tmp_path, monkeypatch):
    """Entries live under their code digest's directory; the first store
    under a new digest removes the old digest's entries (every key hashes
    the digest, so no new code can read them), and nothing else."""
    foreign = tmp_path / "notes.txt"
    foreign.write_text("keep me")
    other = tmp_path / "not-a-digest"
    other.mkdir()
    monkeypatch.setattr(cache_mod, "code_digest", lambda: "a" * 64)
    cache = ResultCache(tmp_path)
    cache.store(fingerprint("old"), 1)
    old_path = cache._path(fingerprint("old"))
    assert old_path.is_relative_to(tmp_path / ("a" * 16))
    assert old_path.exists()
    monkeypatch.setattr(cache_mod, "code_digest", lambda: "b" * 64)
    cache.store(fingerprint("new"), 2)
    assert not (tmp_path / ("a" * 16)).exists()
    assert ResultCache(tmp_path).load(fingerprint("new")) == 2
    assert foreign.read_text() == "keep me"
    assert other.is_dir()


def test_memo_computes_once_through_load_and_store(tmp_path):
    """memo() dispatches through load/store, so a subclass overriding them
    sees every probe; a hit never calls compute."""

    class Recording(ResultCache):
        def __init__(self, root):
            super().__init__(root)
            self.calls: list = []

        def load(self, key):
            self.calls.append(("load", key))
            return super().load(key)

        def store(self, key, payload):
            self.calls.append(("store", key))
            super().store(key, payload)

    cache = Recording(tmp_path)
    key = fingerprint("memo")
    computed = []

    def compute():
        computed.append(1)
        return {"answer": 42}

    assert cache.memo(key, compute) == {"answer": 42}
    assert cache.memo(key, compute) == {"answer": 42}
    assert computed == [1]
    assert cache.calls == [("load", key), ("store", key), ("load", key)]


def test_default_context_cache_is_outside_the_working_directory():
    """Tests build ``ExperimentContext()`` with the default cache; the
    session fixture in ``tests/conftest.py`` keeps its entries out of the
    working directory."""
    from repro.experiments.runner import ExperimentContext

    cache = ExperimentContext().result_cache
    assert cache is None or not cache.root.resolve().is_relative_to(
        Path.cwd().resolve()
    )
