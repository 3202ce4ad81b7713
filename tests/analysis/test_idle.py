"""Idle-gap extraction."""

import numpy as np
import pytest

from repro.analysis.idle import (
    GAP_ROW,
    gap_durations,
    idle_gaps_from_intervals,
    merge_intervals,
    total_idle_time,
)
from repro.util.errors import AnalysisError


def _cols(*pairs):
    """One disk's ``(starts, ends)`` columns."""
    return (
        np.array([s for s, _ in pairs], dtype=float),
        np.array([e for _, e in pairs], dtype=float),
    )


def test_gaps_complement_intervals():
    gaps = idle_gaps_from_intervals([_cols((1.0, 2.0), (4.0, 5.0))], horizon_s=10.0)
    spans = gaps[["start_s", "end_s", "trailing"]].tolist()
    assert spans == [(0.0, 1.0, False), (2.0, 4.0, False), (5.0, 10.0, True)]
    assert gaps["disk"].tolist() == [0, 0, 0]
    assert total_idle_time(gaps) == pytest.approx(8.0)


def test_min_gap_filters_short():
    gaps = idle_gaps_from_intervals(
        [_cols((1.0, 2.0), (2.5, 9.9))], horizon_s=10.0, min_gap_s=0.6
    )
    assert gaps[["start_s", "end_s"]].tolist() == [(0.0, 1.0)]


def test_idle_disk_is_one_trailing_gap():
    gaps = idle_gaps_from_intervals([_cols()] * 3, horizon_s=7.0)
    assert gaps["disk"].tolist() == [0, 1, 2]
    assert gaps["trailing"].all()
    assert gaps["end_s"][2] - gaps["start_s"][2] == pytest.approx(7.0)


def test_gaps_are_disk_major():
    gaps = idle_gaps_from_intervals(
        [_cols((1.0, 2.0)), _cols(), _cols((0.5, 3.0))], horizon_s=4.0
    )
    assert gaps[["disk", "start_s", "end_s", "trailing"]].tolist() == [
        (0, 0.0, 1.0, False),
        (0, 2.0, 4.0, True),
        (1, 0.0, 4.0, True),
        (2, 0.0, 0.5, False),
        (2, 3.0, 4.0, True),
    ]


def test_unsorted_intervals_rejected():
    with pytest.raises(AnalysisError, match="disk 1: active interval 1"):
        idle_gaps_from_intervals(
            [_cols(), _cols((3.0, 4.0), (1.0, 2.0))], horizon_s=5.0
        )


def test_gap_validation():
    """No gap can end before it starts: an active interval that does is
    rejected where it enters, and a gap row lasts its end less its start."""
    with pytest.raises(AnalysisError, match="disk 0: active interval 0 ends"):
        merge_intervals(*_cols((2.0, 1.0)), 0.0)
    gaps = np.array([(0, 1.0, 3.5, False)], dtype=GAP_ROW)
    assert gap_durations(gaps).tolist() == [2.5]
