"""Active intervals and idle gaps, as columns.

Both the oracle controllers (which know the *realized* per-disk busy
intervals) and the compiler-directed schemes (which know the *estimated*
ones from the DAP) take the same three steps: :func:`merge_intervals`
fuses each disk's active intervals, :func:`idle_gaps_from_intervals`
complements them into one gap table, and
:func:`repro.power.planner.plan_gaps` decides what to do inside each gap.
Keeping one shared representation is what makes "oracle vs compiler"
differ **only** in the quality of the gaps — exactly the paper's framing
of ITPM/IDRPM vs CMTPM/CMDRPM.

A disk's active intervals are a ``(starts, ends)`` pair of float64
columns; a gap table is a structured array of :data:`GAP_ROW`, disk-major
and in time order within a disk.  The planner's decision rows extend these
columns (:data:`repro.power.planner.DECISION_ROW`), so a gap has no other
form from extraction to Table 3.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..util.errors import AnalysisError

__all__ = [
    "GAP_ROW",
    "gap_durations",
    "idle_gaps_from_intervals",
    "merge_intervals",
    "total_idle_time",
]

#: Row layout of a gap table.  ``trailing`` marks a disk's gap to the end
#: of execution: no further access follows, so the planner need not
#: schedule a wake-up for it.
GAP_ROW = np.dtype([
    ("disk", "i8"), ("start_s", "f8"), ("end_s", "f8"), ("trailing", "?"),
])


def merge_intervals(
    starts: np.ndarray, ends: np.ndarray, merge_gap_s: float, disk: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Fuse one disk's active intervals separated by at most ``merge_gap_s``.

    The intervals are taken in order of start (a stable sort, so equal
    starts keep their input order), and a run closes where the next start
    lies more than ``merge_gap_s`` past the run's furthest end.  With every
    end at or after its start and a non-negative gap, the run's furthest
    end is the prefix maximum of *all* ends so far — every run starts past
    the furthest end before it — so run ``i`` breaks exactly where
    ``starts[i] - maximum.accumulate(ends)[i - 1] > merge_gap_s``: the same
    comparisons, on the same floats, as a sequential merge.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if merge_gap_s < 0:
        raise AnalysisError(
            f"disk {disk}: merge gap must be >= 0, got {merge_gap_s}"
        )
    bad = np.flatnonzero(ends < starts)
    if bad.size:
        i = int(bad[0])
        raise AnalysisError(
            f"disk {disk}: active interval {i} ends before it starts: "
            f"[{starts[i]}, {ends[i]}]"
        )
    n = starts.size
    if n == 0:
        return starts, ends
    # A replay's busy columns are already time-ordered; skipping their
    # (identity) sort spares an index array and two column copies.
    if not np.all(starts[1:] >= starts[:-1]):
        order = np.argsort(starts, kind="stable")
        starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    breaks = np.flatnonzero(starts[1:] - reach[:-1] > merge_gap_s)
    firsts = np.concatenate(([0], breaks + 1))
    lasts = np.concatenate((breaks, [n - 1]))
    return starts[firsts], reach[lasts]


def idle_gaps_from_intervals(
    intervals: Sequence[tuple[np.ndarray, np.ndarray]],
    horizon_s: float,
    min_gap_s: float = 0.0,
) -> np.ndarray:
    """Complement every disk's active intervals over ``[0, horizon_s]``.

    ``intervals[d]`` must be disk ``d``'s sorted, disjoint ``(starts,
    ends)`` (as :func:`merge_intervals` returns them).  Gaps shorter than
    ``min_gap_s`` are dropped — they are unusable by any power scheme and
    would only add planner noise.  Returns the gap table, disk-major, each
    disk's trailing gap last.
    """
    tables = []
    for disk, (starts, ends) in enumerate(intervals):
        starts = np.asarray(starts, dtype=np.float64)
        # The cursor before interval i is the furthest end before it.
        reach = np.maximum.accumulate(
            np.concatenate(([0.0], np.asarray(ends, dtype=np.float64)))
        )
        cursor = reach[:-1]
        bad = np.flatnonzero(starts < cursor - 1e-12)
        if bad.size:
            raise AnalysisError(
                f"disk {disk}: active interval {int(bad[0])} starts before "
                "the previous one ends; intervals must be sorted and disjoint"
            )
        keep = (starts - cursor >= min_gap_s) & (starts > cursor)
        last = reach[-1]
        tail = horizon_s - last >= min_gap_s and horizon_s > last
        table = np.zeros(int(keep.sum()) + tail, dtype=GAP_ROW)
        table["disk"] = disk
        if tail:
            table[-1] = (disk, last, horizon_s, True)
            body = table[:-1]
        else:
            body = table
        body["start_s"] = cursor[keep]
        body["end_s"] = starts[keep]
        tables.append(table)
    return np.concatenate(tables) if tables else np.zeros(0, dtype=GAP_ROW)


def gap_durations(gaps: np.ndarray) -> np.ndarray:
    """Per-row gap length, ``end_s - start_s``."""
    return gaps["end_s"] - gaps["start_s"]


def total_idle_time(gaps: np.ndarray) -> float:
    """Sum of gap durations, added in row order."""
    return sum(gap_durations(gaps).tolist())
