"""Columnar trace pipeline ⇔ naive reference equivalence.

The vectorized generator (`generate_trace`, the joined chunks of
`generate_trace_chunks`) must be *bit-identical* to the retained per-line
reference walk (`generate_trace_reference`): same request stream, same
buffer-cache hit/miss counters, and same scheme replay results — for random
programs with caching off, under eviction pressure and with a working set
that fits, and for every bundled Table 2
workload.  `LRUState` itself is checked against the per-line `BufferCache`
over random occurrence streams cut into random blocks.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import programs  # noqa: E402

from repro.disksim.params import SubsystemParams
from repro.experiments import schemes as schemes_mod
from repro.layout.files import default_layout
from repro.trace.buffercache import BufferCache, LRUState
from repro.trace.generator import (
    TraceOptions,
    generate_trace,
    generate_trace_reference,
)
from repro.workloads import all_workloads

_SLOW_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- #
# Carried block filter vs the per-line LRU.
# --------------------------------------------------------------------- #
def _filter_blocks(state: LRUState, keys: np.ndarray, cuts) -> np.ndarray:
    """Miss masks of ``keys`` fed through ``state`` in blocks cut at
    ``cuts``, joined end to end."""
    bounds = sorted({0, keys.size, *(c for c in cuts if c <= keys.size)})
    masks = [state.filter(keys[a:b]) for a, b in zip(bounds, bounds[1:])]
    return np.concatenate(masks) if masks else np.zeros(0, dtype=bool)


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.integers(0, 9), max_size=80),
    capacity=st.integers(0, 12),
    cuts=st.lists(st.integers(0, 80), max_size=6),
)
def test_lru_state_matches_per_line_lru(keys, capacity, cuts):
    """Random occurrence streams, cut into random blocks (caching off, a
    working set that fits, eviction pressure), must reproduce the naive
    per-line cache exactly — miss positions and both counters."""
    arr = np.asarray(keys, dtype=np.int64)
    state = LRUState(capacity)
    miss = _filter_blocks(state, arr, cuts)
    lb = 8
    cache = BufferCache(capacity * lb, line_bytes=lb)
    expect = [bool(cache.access_extents("f", [k * lb], [lb])) for k in keys]
    assert miss.tolist() == expect
    assert (cache.hits, cache.misses) == (state.hits, state.misses)
    assert state.hits + state.misses == len(keys)


def test_lru_state_regimes_explicit():
    keys = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    # Caching disabled: every touch misses.
    state = LRUState(0)
    assert _filter_blocks(state, keys, [3]).all()
    assert (state.hits, state.misses) == (0, 6)
    # Working set fits: first occurrences miss, re-references hit, and the
    # resident lines carry across the cut into the second block's replay.
    state = LRUState(3)
    miss = _filter_blocks(state, keys, [4])
    assert miss.tolist() == [True, True, True, False, False, False]
    assert (state.hits, state.misses) == (3, 3)
    assert state.occupancy_lines == 3
    # Eviction pressure (LRU of 2 over 3 lines): each block replays from
    # the carried order — the classic thrash, where every touch evicts the
    # line the next touch needs, so all miss.
    state = LRUState(2)
    assert _filter_blocks(state, keys, [2]).all()
    assert (state.hits, state.misses) == (0, 6)


# --------------------------------------------------------------------- #
# Property: random programs, layouts, and cache geometries.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_random_programs_bit_identical(data):
    program = data.draw(programs())
    line = data.draw(st.sampled_from([16, 64, 256]))
    # 0 => disabled; tiny => eviction pressure; huge => nothing evicted.
    cap_lines = data.draw(st.sampled_from([0, 2, 4, 1 << 20]))
    max_req = data.draw(st.sampled_from([32, 128, 4096]))
    opts = TraceOptions(
        buffer_cache_bytes=cap_lines * line,
        cache_line_bytes=line,
        max_request_bytes=max_req,
    )
    layout = default_layout(
        program.arrays, num_disks=data.draw(st.sampled_from([1, 4]))
    )
    ref_stats: dict = {}
    vec_stats: dict = {}
    ref = generate_trace_reference(program, layout, opts, stats=ref_stats)
    vec = generate_trace(program, layout, opts, stats=vec_stats)
    assert vec.requests == ref.requests
    assert vec_stats == ref_stats
    assert vec == ref  # layout, compute time, directives, columns


# --------------------------------------------------------------------- #
# Bundled Table 2 workloads: requests, counters, and scheme replays.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_bundled_workload_requests_and_counters_identical(workload):
    layout = default_layout(workload.program.arrays, num_disks=4)
    ref_stats: dict = {}
    vec_stats: dict = {}
    ref = generate_trace_reference(
        workload.program, layout, workload.trace_options, stats=ref_stats
    )
    vec = generate_trace(
        workload.program, layout, workload.trace_options, stats=vec_stats
    )
    assert vec.num_requests == ref.num_requests
    assert vec.requests == ref.requests
    assert vec_stats == ref_stats
    assert vec.total_bytes == ref.total_bytes
    assert vec == ref


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_bundled_workload_scheme_replays_identical(
    workload, monkeypatch, assert_results_identical
):
    """Full seven-scheme suites driven by the two generators must agree
    field-by-field — the end-to-end guarantee the figures rest on."""
    params = SubsystemParams(num_disks=4)
    vec_suite = schemes_mod.run_workload(workload, params=params)
    with monkeypatch.context() as m:
        m.setattr(schemes_mod, "generate_trace", generate_trace_reference)
        ref_suite = schemes_mod.run_workload(workload, params=params)
    assert set(vec_suite.results) == set(ref_suite.results)
    for scheme, ref_result in ref_suite.results.items():
        assert_results_identical(vec_suite.results[scheme], ref_result)
    assert vec_suite.measured == ref_suite.measured
