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
from typing import Sequence

from ..controllers.oracle import oracle_decisions
from ..power.planner import GapDecision, decision_views
from ..workloads.registry import WORKLOAD_NAMES
from .report import ExperimentReport
from .runner import ExperimentContext

__all__ = ["run", "misprediction_pct"]


def _overlap(a: GapDecision, b: GapDecision) -> float:
    lo = max(a.gap.start_s, b.gap.start_s)
    hi = min(a.gap.end_s, b.gap.end_s)
    return max(0.0, hi - lo)


class _DiskDecisions:
    """One disk's compiler decisions sorted by gap start, with the prefix
    maximum of their gap ends, for overlap queries by bisection."""

    def __init__(self, decisions: list[tuple[int, GapDecision]]):
        decisions.sort(key=lambda item: item[1].gap.start_s)
        self.order = [i for i, _ in decisions]
        self.decisions = [d for _, d in decisions]
        self.starts = [d.gap.start_s for d in self.decisions]
        self.max_end = list(accumulate((d.gap.end_s for d in self.decisions), max))

    def best_match(self, od: GapDecision) -> GapDecision | None:
        """The decision overlapping ``od`` the most (the earliest in plan
        order among equal overlaps), or ``None`` when none overlaps it."""
        best = None
        best_ov = 0.0
        best_index = 0
        # Only a decision starting before ``od`` ends and ending after it
        # starts can overlap it; the prefix maximum bounds the walk left.
        i = bisect_left(self.starts, od.gap.end_s) - 1
        while i >= 0 and self.max_end[i] > od.gap.start_s:
            cd = self.decisions[i]
            ov = _overlap(od, cd)
            if ov > best_ov or (
                ov == best_ov and best is not None and self.order[i] < best_index
            ):
                best, best_ov, best_index = cd, ov, self.order[i]
            i -= 1
        return best


def misprediction_pct(
    oracle: Sequence[GapDecision], compiler: Sequence[GapDecision]
) -> float:
    """Fraction (%) of oracle idleness periods where the compiler picked a
    different level (or none at all)."""
    grouped: dict[int, list[tuple[int, GapDecision]]] = {}
    for i, d in enumerate(compiler):
        grouped.setdefault(d.gap.disk, []).append((i, d))
    by_disk = {disk: _DiskDecisions(ds) for disk, ds in grouped.items()}
    total = 0
    wrong = 0
    for od in oracle:
        total += 1
        candidates = by_disk.get(od.gap.disk)
        best = candidates.best_match(od) if candidates is not None else None
        if best is None:
            wrong += 1
            continue
        o_level = od.target_rpm if od.acts else None
        c_level = best.target_rpm if best.acts else None
        if o_level != c_level:
            wrong += 1
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
        oracle = decision_views(oracle_decisions(suite.base, ctx.params, "drpm"))
        compiler = suite.plans["CMDRPM"].decisions
        pct = misprediction_pct(oracle, compiler)
        rep.add_row(name, (pct, wl.paper.misprediction_pct))
    rep.notes.append(
        "a period counts as mispredicted when the compiler chose a different "
        "RPM level than the oracle for the (best-overlapping) idleness, or "
        "failed to see the idleness at all"
    )
    return rep
