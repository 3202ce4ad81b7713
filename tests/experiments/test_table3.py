"""Table 3 matching: the per-disk sweep against the all-pairs scan."""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.experiments.table3 import misprediction_pct
from repro.power.planner import DECISION_ROW, GAP_MODES, GapMode, acting


def quadratic_misprediction_pct(oracle, compiler) -> float:
    """The original all-pairs matcher, kept as the test oracle: every
    oracle gap scans every compiler decision row on its disk in plan order
    and keeps the first one with the strictly largest overlap."""
    def decisions(rows):
        levels = np.where(acting(rows), rows["target_rpm"], -1).tolist()
        return zip(
            rows["disk"].tolist(), rows["start_s"].tolist(),
            rows["end_s"].tolist(), levels,
        )

    by_disk: dict[int, list[tuple]] = {}
    for disk, start, end, level in decisions(compiler):
        by_disk.setdefault(disk, []).append((start, end, level))
    total = 0
    wrong = 0
    for disk, start, end, level in decisions(oracle):
        total += 1
        best = None
        best_ov = 0.0
        for c_start, c_end, c_level in by_disk.get(disk, []):
            ov = max(0.0, min(end, c_end) - max(start, c_start))
            if ov > best_ov:
                best, best_ov = c_level, ov
        if best != level:
            wrong += 1
    return 100.0 * wrong / total if total else 0.0


def _decision(disk: int, start: float, length: float, level: int | None) -> tuple:
    """One decision row: stay at full speed (``None``) or descend to
    ``level`` over ``[start, start + length]``."""
    mode = GapMode.NONE if level is None else GapMode.RPM
    return (
        disk, start, start + length, False, GAP_MODES.index(mode),
        -1 if level is None else level, start, 0.0, False, 0.0,
    )


def _rows(decisions: list[tuple]) -> np.ndarray:
    return np.array(decisions, dtype=DECISION_ROW)


# Starts and lengths on a coarse grid produce exact ties, shared edges and
# zero-length gaps; arbitrary floats produce everything else.
_times = st.one_of(
    st.integers(0, 12).map(lambda k: k * 0.5),
    st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False),
)
_lengths = st.one_of(
    st.just(0.0),
    st.integers(1, 8).map(lambda k: k * 0.5),
    st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
)
_levels = st.sampled_from((None, 3600, 6000, 8400))


def _decisions(disks: int, max_size: int):
    return st.lists(
        st.builds(_decision, st.integers(0, disks - 1), _times, _lengths, _levels),
        max_size=max_size,
    ).map(_rows)


@given(oracle=_decisions(4, 40), compiler=_decisions(3, 40))
def test_sweep_matches_all_pairs_scan_exactly(oracle, compiler):
    """Overlapping and unsorted per-disk decisions, equal-overlap ties,
    zero-length gaps, and oracle gaps on a disk (3) the compiler never
    planned: the percentage is the same float either way."""
    assert misprediction_pct(oracle, compiler) == quadratic_misprediction_pct(
        oracle, compiler
    )


def test_equal_overlaps_pick_the_earliest_in_plan_order():
    """Two decisions overlap the oracle gap equally; the one listed first
    wins even though it starts later."""
    oracle = _rows([_decision(0, 1.0, 2.0, 6000)])
    later_first = _rows([_decision(0, 2.0, 2.0, 6000), _decision(0, 0.0, 2.0, 3600)])
    earlier_first = later_first[::-1]
    assert misprediction_pct(oracle, later_first) == 0.0
    assert misprediction_pct(oracle, earlier_first) == 100.0


def test_long_early_decision_is_still_found():
    """A decision that starts first but outlasts later ones must be reached
    by the left walk past shorter, non-overlapping decisions."""
    oracle = _rows([_decision(0, 9.0, 1.0, 3600)])
    compiler = _rows([
        _decision(0, 0.0, 20.0, 3600),
        _decision(0, 1.0, 1.0, 6000),
        _decision(0, 3.0, 1.0, 6000),
        _decision(0, 9.5, 0.0, 6000),
    ])
    assert misprediction_pct(oracle, compiler) == 0.0


def test_unseen_gaps_count_as_mispredicted():
    oracle = _rows([_decision(1, 0.0, 1.0, None), _decision(0, 5.0, 1.0, None)])
    compiler = _rows([_decision(0, 0.0, 1.0, None)])
    assert misprediction_pct(oracle, compiler) == 100.0
    assert misprediction_pct(_rows([]), compiler) == 0.0
