"""Parallel engine: jobs resolution, CPU clamp, serial equivalence.

The equivalence tests force real worker processes (``clamp_to_cpus=False``,
or a patched ``available_cpus`` for context-driven runs) so they exercise
the pool machinery even on a single-core machine.
"""

import pytest

from repro.cache import ResultCache
from repro.disksim.params import SubsystemParams
from repro.experiments.parallel import (
    SuiteExecutor,
    SuiteSpec,
    _cgroup_quota_cpus,
    available_cpus,
    resolve_jobs,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments.schemes import SCHEME_NAMES, run_workload
from repro.util.errors import ReproError
from repro.workloads.registry import build_workload

#: Two benchmarks is enough to cover the suite grain without making the
#: unit suite crawl (each suite is 7 full replays).
WORKLOADS = ("wupwise", "mgrid")


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_auto_and_zero_mean_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() >= 1
        assert resolve_jobs(0) >= 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ReproError):
            resolve_jobs()

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-2)


class TestExecutorShape:
    def test_serial_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert SuiteExecutor().serial

    def test_clamped_to_available_cpus(self):
        ex = SuiteExecutor(jobs=10_000)
        assert ex.requested_jobs == 10_000
        assert ex.jobs == available_cpus()

    def test_clamp_opt_out(self):
        ex = SuiteExecutor(jobs=4, clamp_to_cpus=False)
        assert ex.jobs == 4
        assert not ex.serial


class TestCgroupQuota:
    """cgroup v2 ``cpu.max`` parsing: the container's CPU quota must cap
    ``available_cpus`` even when the scheduler affinity mask is wider."""

    @pytest.mark.parametrize(
        ("content", "expected"),
        [
            ("150000 100000\n", 2),   # fractional quotas round up
            ("200000 100000\n", 2),
            ("100000 100000\n", 1),
            ("50000 100000\n", 1),    # sub-core quotas floor at one CPU
            ("max 100000\n", None),   # unlimited
            ("garbage\n", None),
            ("", None),
        ],
    )
    def test_quota_parsing(self, tmp_path, content, expected):
        path = tmp_path / "cpu.max"
        path.write_text(content)
        assert _cgroup_quota_cpus(path) == expected

    def test_missing_file_means_no_quota(self, tmp_path):
        assert _cgroup_quota_cpus(tmp_path / "absent") is None

    def test_available_cpus_at_least_one(self):
        assert available_cpus() >= 1


class TestEquivalence:
    def test_suite_grain_matches_serial(self, assert_results_identical):
        """Fanning whole (workload, config) suites out over worker
        processes yields results identical to the serial loop."""
        serial = [
            run_workload(build_workload(name), schemes=SCHEME_NAMES)
            for name in WORKLOADS
        ]
        ex = SuiteExecutor(jobs=2, clamp_to_cpus=False)
        parallel = ex.run_suites([SuiteSpec(name) for name in WORKLOADS])
        for ser, par in zip(serial, parallel):
            assert ser.program_name == par.program_name
            assert set(ser.results) == set(par.results)
            for scheme in SCHEME_NAMES:
                assert_results_identical(ser.results[scheme], par.results[scheme])

    def test_results_keep_submission_order(self):
        """Results come back in spec order, whatever order the workers
        finish in."""
        ex = SuiteExecutor(jobs=2, clamp_to_cpus=False)
        small = SubsystemParams(num_disks=4)
        specs = [
            SuiteSpec(name, params=small, schemes=("Base", "DRPM"), key=(i,))
            for i, name in enumerate(reversed(WORKLOADS))
        ]
        out = ex.run_suites(specs)
        assert [s.program_name for s in out] == [s.workload for s in specs]
        assert [set(s.results) for s in out] == [{"Base", "DRPM"}] * 2


class TestContextPool:
    """``ExperimentContext`` drives the pool through ``prefetch``; the
    2-worker context patches ``available_cpus`` so the pool really runs on
    a single-core host."""

    def test_pooled_prefetch_fills_shared_cache(self, tmp_path, monkeypatch):
        """Workers write every suite they compute into the shared
        persistent cache: a fresh serial context then misses nothing."""
        root = tmp_path / "cache"
        monkeypatch.setattr(
            "repro.experiments.parallel.available_cpus", lambda: 2
        )
        pooled = ExperimentContext(jobs=2, cache=ResultCache(root))
        assert pooled.executor.jobs == 2
        pooled.prefetch_defaults(WORKLOADS)

        fresh = ExperimentContext(jobs=1, cache=ResultCache(root))
        for name in WORKLOADS:
            fresh.suite(name)
        stats = fresh.cache_stats()
        assert stats["misses"] == 0
        assert stats["hits"] > 0
