"""The columnar busy-interval merge behind ``realized_idle_gaps`` equals
the sequential merge over ``BusyInterval`` objects it replaced, float for
float (compared through ``float.hex``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dap import ActiveInterval, _merge_intervals
from repro.analysis.idle import idle_gaps_from_intervals
from repro.controllers.oracle import _merge_busy_columns, realized_idle_gaps
from repro.disksim.disk import DiskStats
from repro.disksim.stats import BusyInterval, ResponseSummary, SimulationResult


def _anon(disk: int, start_s: float, end_s: float) -> ActiveInterval:
    return ActiveInterval(disk, start_s, end_s, -1, -1, -1, -1)


def _loop_merge(busy, merge_gap_s: float) -> list[ActiveInterval]:
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
    out: list[ActiveInterval] = []
    for b in it:
        s = b.start_s
        if s < prev_start:
            return _merge_intervals(
                [_anon(x.disk, x.start_s, x.end_s) for x in busy], merge_gap_s
            )
        prev_start = s
        if s - cur_end <= merge_gap_s:
            if b.end_s > cur_end:
                cur_end = b.end_s
        else:
            out.append(_anon(disk, cur_start, cur_end))
            cur_start = s
            cur_end = b.end_s
    out.append(_anon(disk, cur_start, cur_end))
    return out


def _exact(intervals) -> list[tuple]:
    return [
        (iv.disk, float(iv.start_s).hex(), float(iv.end_s).hex(),
         iv.nest_first, iv.iter_first, iv.nest_last, iv.iter_last)
        for iv in intervals
    ]


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
    assert _exact(_merge_busy_columns(3, starts, ends, gap)) == _exact(
        _loop_merge(busy, gap)
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
        # Unordered starts take the generic path.
        ([(3.0, 4.0), (0.0, 1.0)], 0.5, [(0.0, 1.0), (3.0, 4.0)]),
    ],
)
def test_merge_edge_cases(pairs, gap, expected):
    busy = [BusyInterval(0, s, e) for s, e in pairs]
    merged = _merge_busy_columns(0, *_columns(busy), gap)
    assert _exact(merged) == _exact(_loop_merge(busy, gap))
    assert [(iv.start_s, iv.end_s) for iv in merged] == expected


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
        idle_gaps_from_intervals(
            _loop_merge(busy, gap), disk, horizon, min_gap_s=gap
        )
        for disk, busy in enumerate(busy_per_disk)
    ]
    got = realized_idle_gaps(_result(busy_per_disk, horizon), gap)
    assert [
        [(g.disk, g.start_s.hex(), g.end_s.hex(), g.trailing) for g in gaps]
        for gaps in got
    ] == [
        [(g.disk, g.start_s.hex(), g.end_s.hex(), g.trailing) for g in gaps]
        for gaps in expected
    ]
