"""Shared fixtures: small programs, layouts, and parameter sets.

The fixtures here build *small* deterministic inputs (seconds of simulated
time, kilobytes of data) so the unit suite stays fast; the integration
tests build the real Table 2 workloads.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.disksim.params import DiskParams, DRPMParams, SubsystemParams
from repro.disksim.powermodel import PowerModel
from repro.ir.builder import ProgramBuilder
from repro.layout.files import default_layout
from repro.trace.generator import TraceOptions
from repro.util.units import KB


# Coverage instrumentation (pytest-cov in CI, tools/measure_coverage.py
# locally) slows every example enough to trip hypothesis's per-example
# deadline; the "coverage" profile drops it.  Select with
# HYPOTHESIS_PROFILE=coverage (the CI coverage job does).
settings.register_profile(
    "coverage",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def _session_result_cache(tmp_path_factory):
    """Point the default result cache at a per-session temporary
    directory: an ``ExperimentContext()`` built by a test never writes into
    the working directory's ``.repro-cache/``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture()
def params() -> SubsystemParams:
    """Paper Table 1 parameters, 4 disks for speed."""
    return SubsystemParams(num_disks=4)


@pytest.fixture()
def power_model(params: SubsystemParams) -> PowerModel:
    return PowerModel(params.disk, params.drpm)


@pytest.fixture()
def tiny_program():
    """Two nests over two 1-D arrays: nest 0 sweeps the first half of A into
    B; nest 1 reads the third quarter of B.  Element counts are chosen so
    stripe boundaries land mid-array (8192 eight-byte elements per 64 KB
    stripe)."""
    b = ProgramBuilder("tiny")
    S = 8192  # elements per 64 KB stripe
    A = b.array("A", (4 * S,))
    B = b.array("B", (4 * S,))
    with b.nest("i", 0, 2 * S) as i:
        b.stmt(reads=[A[i]], writes=[B[i]], cycles=100)
    with b.nest("j", 0, S) as j:
        b.stmt(reads=[B[j + 2 * S]], cycles=50)
    return b.build()


@pytest.fixture()
def tiny_layout(tiny_program):
    return default_layout(tiny_program.arrays, num_disks=4, stripe_factor=4)


@pytest.fixture()
def phase_program():
    """An I/O burst nest, a long pure-compute nest, another burst — the
    minimal shape exhibiting exploitable idle gaps."""
    b = ProgramBuilder("phases")
    N = 256
    A = b.array("A", (N, 1024))  # 8 KB rows, 2 MB total
    Bm = b.array("B", (N, 1024))
    W = b.array("W", (2, 64), memory_resident=True)
    with b.nest("i0", 0, N) as i:
        with b.loop("j0", 0, 1024) as j:
            b.stmt(reads=[A[i, j]], cycles=1.0)
    with b.nest("c", 0, 100) as i:
        with b.loop("k", 0, 64) as k:
            b.stmt(reads=[W[0, k]], writes=[W[1, k]], cycles=750e6 * 3.0 / 100 / 64)
    with b.nest("i1", 0, N) as i:
        with b.loop("j1", 0, 1024) as j:
            b.stmt(reads=[Bm[i, j]], cycles=1.0)
    return b.build()


@pytest.fixture()
def phase_layout(phase_program):
    return default_layout(phase_program.arrays, num_disks=4, stripe_factor=4)


@pytest.fixture()
def small_trace_options() -> TraceOptions:
    return TraceOptions(
        buffer_cache_bytes=512 * KB, cache_line_bytes=8 * KB, max_request_bytes=8 * KB
    )


def _assert_results_identical(a, b) -> None:
    """Field-by-field equality of two SimulationResults (no tolerance —
    the cache and every replay engine must be *bit*-identical to the
    uncached path)."""
    assert a.scheme == b.scheme
    assert a.program_name == b.program_name
    assert a.execution_time_s == b.execution_time_s
    assert a.num_requests == b.num_requests
    assert a.num_directives == b.num_directives
    assert a.responses == b.responses
    assert a.request_responses == b.request_responses
    assert a.busy_intervals == b.busy_intervals
    assert len(a.disk_stats) == len(b.disk_stats)
    for da, db in zip(a.disk_stats, b.disk_stats):
        assert da == db  # DiskStats is a dataclass: compares every field


@pytest.fixture()
def assert_results_identical():
    return _assert_results_identical
