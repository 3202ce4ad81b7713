"""Table 3 — percentage of mispredicted disk speeds (CMDRPM vs IDRPM).

The paper records, for each idleness period, the RPM level each scheme
chose, and reports the fraction where the compiler's choice differs from
the oracle's — the quantity that "explains the success of the
compiler-driven scheme" (its mispredictions are modest: 5-27 %).

Methodology here: the oracle's decisions over the *realized* gaps are the
reference.  Each oracle gap of exploitable length is matched to the
compiler's (estimated-gap) decision with the largest temporal overlap on
the same disk; the prediction is correct when both chose the same level
(counting "stay at full speed" as a level).  Oracle gaps the compiler never
saw count as mispredictions — invisibility is the severest form of
estimation error.

Matching is a per-disk sweep: each disk's compiler decisions are sorted by
gap start once, with a prefix maximum of their gap ends, and each oracle
gap bisects to the last decision starting before it ends, then walks left
only while some earlier decision can still reach past its start.  With
the planner's disjoint per-disk gaps that costs O((n + m) log m) for n
oracle gaps and m decisions instead of the O(n·m) all-pairs scan (3,082 ×
2,578 pairs on wupwise); overlapping decisions only lengthen the walk.
Ties keep the all-pairs rule — the largest overlap wins, and among equal
overlaps the decision earliest in plan order — so the percentages are
bit-identical to it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

import numpy as np

from ..controllers.oracle import oracle_decisions
from ..power.planner import acting
from ..workloads.registry import WORKLOAD_NAMES
from .report import ExperimentReport
from .runner import ExperimentContext

__all__ = ["run", "misprediction_pct"]


def _levels(decisions: np.ndarray) -> list[int]:
    """Each row's chosen level: its target RPM when it acts, ``-1`` for
    staying at full speed (a spin-down's target is ``-1`` too)."""
    return np.where(acting(decisions), decisions["target_rpm"], -1).tolist()


class _DiskDecisions:
    """One disk's compiler decisions sorted by gap start, with the prefix
    maximum of their gap ends, for overlap queries by bisection."""

    def __init__(self, decisions: list[tuple[float, float, int, int]]):
        # (start, end, level, plan index); a stable sort by start.
        decisions.sort(key=lambda item: item[0])
        self.starts = [d[0] for d in decisions]
        self.ends = [d[1] for d in decisions]
        self.levels = [d[2] for d in decisions]
        self.order = [d[3] for d in decisions]
        self.max_end = list(accumulate(self.ends, max))

    def best_match(self, start: float, end: float) -> int | None:
        """The level of the decision overlapping ``[start, end]`` the most
        (the earliest in plan order among equal overlaps), or ``None`` when
        none overlaps it."""
        best = None
        best_ov = 0.0
        best_index = 0
        # Only a decision starting before the gap ends and ending after it
        # starts can overlap it; the prefix maximum bounds the walk left.
        i = bisect_left(self.starts, end) - 1
        while i >= 0 and self.max_end[i] > start:
            ov = max(0.0, min(end, self.ends[i]) - max(start, self.starts[i]))
            if ov > best_ov or (
                ov == best_ov and best is not None and self.order[i] < best_index
            ):
                best, best_ov, best_index = self.levels[i], ov, self.order[i]
            i -= 1
        return best


def misprediction_pct(oracle: np.ndarray, compiler: np.ndarray) -> float:
    """Fraction (%) of oracle idleness periods (decision rows) where the
    compiler's decision rows picked a different level (or none at all)."""
    grouped: dict[int, list[tuple[float, float, int, int]]] = {}
    for i, (disk, start, end, level) in enumerate(zip(
        compiler["disk"].tolist(), compiler["start_s"].tolist(),
        compiler["end_s"].tolist(), _levels(compiler),
    )):
        grouped.setdefault(disk, []).append((start, end, level, i))
    by_disk = {disk: _DiskDecisions(ds) for disk, ds in grouped.items()}
    wrong = 0
    for disk, start, end, level in zip(
        oracle["disk"].tolist(), oracle["start_s"].tolist(),
        oracle["end_s"].tolist(), _levels(oracle),
    ):
        candidates = by_disk.get(disk)
        best = candidates.best_match(start, end) if candidates is not None else None
        if best != level:
            wrong += 1
    total = len(oracle)
    return 100.0 * wrong / total if total else 0.0


def run(ctx: ExperimentContext | None = None) -> ExperimentReport:
    ctx = ctx or ExperimentContext()
    rep = ExperimentReport(
        experiment_id="table3",
        title="Percentage of mispredicted disk speeds, CMDRPM vs IDRPM (paper Table 3)",
        columns=("measured_%", "paper_%"),
        # paper row order
    )
    for name in WORKLOAD_NAMES:
        suite = ctx.suite(name)
        wl = ctx.workload(name)
        pct = misprediction_pct(
            oracle_decisions(suite.base, ctx.params, "drpm"),
            suite.plans["CMDRPM"].decision_rows,
        )
        rep.add_row(name, (pct, wl.paper.misprediction_pct))
    rep.notes.append(
        "a period counts as mispredicted when the compiler chose a different "
        "RPM level than the oracle for the (best-overlapping) idleness, or "
        "failed to see the idleness at all"
    )
    return rep
