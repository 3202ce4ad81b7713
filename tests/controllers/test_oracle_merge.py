"""The columnar interval merge, gap extraction and DAP interval build equal
the object pipelines they replaced, float for float (compared through
``float.hex``).

The references below are those pipelines, kept as the test oracle: a
sequential merge over interval objects, the per-interval complement loop,
and the per-nest, per-iteration object build of a DAP's active intervals.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cycles import NestTiming, ProgramTiming
from repro.analysis.dap import DiskAccessPattern
from repro.analysis.idle import merge_intervals
from repro.controllers.oracle import realized_idle_gaps
from repro.disksim.disk import DiskStats
from repro.disksim.stats import BusyInterval, ResponseSummary, SimulationResult
from repro.util.errors import AnalysisError


class Interval(NamedTuple):
    disk: int
    start_s: float
    end_s: float


def _merge_intervals(intervals, merge_gap_s: float) -> list[Interval]:
    """Reference: fuse consecutive intervals separated by at most
    ``merge_gap_s``, in order of start."""
    if not intervals:
        return []
    ordered = sorted(intervals, key=lambda iv: iv.start_s)
    out = [ordered[0]]
    for iv in ordered[1:]:
        prev = out[-1]
        if iv.start_s - prev.end_s <= merge_gap_s:
            out[-1] = Interval(prev.disk, prev.start_s, max(prev.end_s, iv.end_s))
        else:
            out.append(iv)
    return out


def _loop_merge(busy, merge_gap_s: float) -> list[Interval]:
    """Reference: one disk's busy intervals merged by a sequential loop
    over the objects (unordered input takes ``_merge_intervals``)."""
    if not busy:
        return []
    it = iter(busy)
    b = next(it)
    disk = b.disk
    cur_start = b.start_s
    cur_end = b.end_s
    prev_start = cur_start
    out: list[Interval] = []
    for b in it:
        s = b.start_s
        if s < prev_start:
            return _merge_intervals(
                [Interval(x.disk, x.start_s, x.end_s) for x in busy], merge_gap_s
            )
        prev_start = s
        if s - cur_end <= merge_gap_s:
            if b.end_s > cur_end:
                cur_end = b.end_s
        else:
            out.append(Interval(disk, cur_start, cur_end))
            cur_start = s
            cur_end = b.end_s
    out.append(Interval(disk, cur_start, cur_end))
    return out


def _loop_gaps(active, disk: int, horizon_s: float, min_gap_s: float) -> list[tuple]:
    """Reference: complement one disk's sorted, disjoint intervals over
    ``[0, horizon_s]`` as ``(disk, start, end, trailing)``."""
    gaps = []
    cursor = 0.0
    for iv in active:
        if iv.start_s - cursor >= min_gap_s and iv.start_s > cursor:
            gaps.append((disk, cursor, iv.start_s, False))
        cursor = max(cursor, iv.end_s)
    if horizon_s - cursor >= min_gap_s and horizon_s > cursor:
        gaps.append((disk, cursor, horizon_s, True))
    return gaps


def _exact_intervals(intervals) -> list[tuple]:
    return [(float(iv.start_s).hex(), float(iv.end_s).hex()) for iv in intervals]


def _exact_columns(starts, ends) -> list[tuple]:
    return [(s.hex(), e.hex()) for s, e in zip(starts.tolist(), ends.tolist())]


def _columns(busy):
    return (
        np.array([b.start_s for b in busy], dtype=float),
        np.array([b.end_s for b in busy], dtype=float),
    )


# Quarter-second grid values are exact in binary, so starts collide,
# intervals touch or have zero length, and ``s - cur_end == merge_gap``
# holds exactly; the free floats cover everything in between.
_grid = st.integers(0, 40).map(lambda k: k * 0.25)
_time = st.one_of(_grid, st.floats(0.0, 10.0, allow_nan=False))
_length = st.one_of(
    st.just(0.0), st.integers(1, 8).map(lambda k: k * 0.25),
    st.floats(0.0, 2.0, allow_nan=False),
)
_gap = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 3.0))


@st.composite
def _busy(draw, disk: int = 0):
    pairs = draw(st.lists(st.tuples(_time, _length), max_size=30))
    intervals = [BusyInterval(disk, s, s + d) for s, d in pairs]
    if draw(st.booleans()):
        intervals.sort(key=lambda b: b.start_s)
    return intervals


@settings(max_examples=400, deadline=None)
@given(_busy(disk=3), _gap)
def test_columnar_merge_equals_object_loop(busy, gap):
    starts, ends = _columns(busy)
    assert _exact_columns(*merge_intervals(starts, ends, gap, 3)) == (
        _exact_intervals(_loop_merge(busy, gap))
    )


@pytest.mark.parametrize(
    "pairs, gap, expected",
    [
        # Touching and zero-length intervals merge at gap 0.
        ([(0.0, 1.0), (1.0, 1.0), (1.0, 2.0)], 0.0, [(0.0, 2.0)]),
        # ``s - cur_end == merge_gap`` exactly merges; just past it breaks.
        ([(0.0, 1.0), (1.5, 2.0)], 0.5, [(0.0, 2.0)]),
        ([(0.0, 1.0), (1.75, 2.0)], 0.5, [(0.0, 1.0), (1.75, 2.0)]),
        # A long interval covers later short ones: the run's end is the
        # prefix maximum, not the last end.
        ([(0.0, 5.0), (1.0, 2.0), (5.5, 6.0)], 0.25, [(0.0, 5.0), (5.5, 6.0)]),
        # Unordered starts are sorted first.
        ([(3.0, 4.0), (0.0, 1.0)], 0.5, [(0.0, 1.0), (3.0, 4.0)]),
    ],
)
def test_merge_edge_cases(pairs, gap, expected):
    busy = [BusyInterval(0, s, e) for s, e in pairs]
    starts, ends = merge_intervals(*_columns(busy), gap)
    assert _exact_columns(starts, ends) == _exact_intervals(_loop_merge(busy, gap))
    assert list(zip(starts.tolist(), ends.tolist())) == expected


def test_merge_rejects_bad_input_naming_disk_and_index():
    with pytest.raises(AnalysisError, match=r"disk 5: active interval 1 ends"):
        merge_intervals(np.array([0.0, 3.0]), np.array([1.0, 2.0]), 0.0, 5)
    with pytest.raises(AnalysisError, match=r"disk 2: merge gap"):
        merge_intervals(np.array([0.0]), np.array([1.0]), -0.1, 2)


def _result(busy_per_disk, horizon: float) -> SimulationResult:
    return SimulationResult(
        scheme="Base",
        program_name="p",
        execution_time_s=horizon,
        disk_stats=tuple(DiskStats() for _ in busy_per_disk),
        responses=ResponseSummary.from_samples([]),
        num_requests=sum(len(b) for b in busy_per_disk),
        num_directives=0,
        busy_intervals=tuple(tuple(b) for b in busy_per_disk),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.booleans(), min_size=1, max_size=4).flatmap(
        lambda empty: st.tuples(*(
            st.just([]) if e else _busy(disk=d) for d, e in enumerate(empty)
        ))
    ),
    _gap,
)
def test_realized_gaps_equal_object_loop(busy_per_disk, gap):
    """Whole results, including disks with no intervals at all."""
    horizon = 1.0 + max(
        (b.end_s for busy in busy_per_disk for b in busy), default=0.0
    )
    expected = [
        row
        for disk, busy in enumerate(busy_per_disk)
        for row in _loop_gaps(_loop_merge(busy, gap), disk, horizon, gap)
    ]
    got = realized_idle_gaps(_result(busy_per_disk, horizon), gap)
    assert [
        (d, s.hex(), e.hex(), t) for d, s, e, t in got.tolist()
    ] == [(d, s.hex(), e.hex(), t) for d, s, e, t in expected]


def _object_active_intervals(dap, timing, merge_gap_s, active_fractions):
    """Reference: the per-nest, per-iteration object build of
    ``DiskAccessPattern.active_intervals``, merged by ``_merge_intervals``."""
    result = []
    for disk in range(dap.num_disks):
        intervals = []
        for n, m in enumerate(dap.activity):
            col = m[:, disk]
            if col.size == 0 or not col.any():
                continue
            nt = timing.nest(n)
            frac = 1.0 if active_fractions is None else float(active_fractions[n])
            frac = min(1.0, max(0.0, frac))
            dur = nt.seconds_per_iteration
            tail = (1.0 - frac) * dur
            padded = np.concatenate(([False], col, [False]))
            edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
            for t0, t1 in zip(edges[0::2], edges[1::2]):
                if tail > merge_gap_s:
                    for t in range(int(t0), int(t1)):
                        start = nt.iteration_start_s(t)
                        intervals.append(Interval(disk, start, start + frac * dur))
                else:
                    end = nt.iteration_start_s(int(t1) - 1) + max(frac, 1e-9) * dur
                    intervals.append(
                        Interval(
                            disk,
                            nt.iteration_start_s(int(t0)),
                            min(end, nt.iteration_start_s(int(t1))),
                        )
                    )
        result.append(_merge_intervals(intervals, merge_gap_s))
    return result


@st.composite
def _dap_and_timing(draw):
    num_disks = draw(st.integers(1, 3))
    trips = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    activity = tuple(
        np.array(
            draw(st.lists(
                st.lists(st.booleans(), min_size=num_disks, max_size=num_disks),
                min_size=t, max_size=t,
            )),
            dtype=bool,
        ).reshape(t, num_disks)
        for t in trips
    )
    nests = []
    start = 0.0
    for n, t in enumerate(trips):
        per_iter = draw(st.one_of(
            st.sampled_from((0.0, 0.25, 1.0)), st.floats(1e-3, 2.0)
        ))
        nests.append(NestTiming(n, t, per_iter * 750e6, per_iter, start))
        start = nests[-1].end_s
    dap = DiskAccessPattern(
        num_disks=num_disks,
        activity=activity,
        outer_values=tuple(np.arange(t) for t in trips),
    )
    fractions = draw(st.one_of(
        st.none(),
        st.lists(st.floats(-0.5, 1.5), min_size=len(trips), max_size=len(trips)),
    ))
    return dap, ProgramTiming(tuple(nests), 750e6), fractions


@settings(max_examples=300, deadline=None)
@given(_dap_and_timing(), _gap)
def test_dap_columns_equal_object_build(case, gap):
    dap, timing, fractions = case
    got = dap.active_intervals(timing, merge_gap_s=gap, active_fractions=fractions)
    expected = _object_active_intervals(dap, timing, gap, fractions)
    assert [_exact_columns(s, e) for s, e in got] == [
        _exact_intervals(ivs) for ivs in expected
    ]
