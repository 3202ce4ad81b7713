"""Idle-gap statistics — quantifying §5.1's explanation.

The paper's TPM result rests on one sentence: *"the idle times exhibited by
the benchmarks used are much smaller in length"* than the spin-down
break-even.  This module turns that into numbers: per-disk realized gap
distributions, and the fraction of idle time that each device technology
(TPM with its ~15 s break-even, DRPM with its sub-second per-level
break-evens) can actually exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..disksim.powermodel import PowerModel
from ..disksim.stats import SimulationResult
from .idle import gap_durations

__all__ = ["GapStatistics", "gap_statistics", "exploitable_fractions"]


@dataclass(frozen=True)
class GapStatistics:
    """Distribution summary of a set of idle gaps."""

    count: int
    total_s: float
    mean_s: float
    median_s: float
    p95_s: float
    max_s: float

    @staticmethod
    def from_gaps(gaps: np.ndarray) -> "GapStatistics":
        """Summary of a gap table (:data:`~repro.analysis.idle.GAP_ROW`)."""
        if not gaps.size:
            return GapStatistics(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        durs = gap_durations(gaps)
        return GapStatistics(
            count=int(durs.size),
            total_s=float(durs.sum()),
            mean_s=float(durs.mean()),
            median_s=float(np.median(durs)),
            p95_s=float(np.percentile(durs, 95)),
            max_s=float(durs.max()),
        )


def gap_statistics(
    base: SimulationResult, min_gap_s: float = 0.05
) -> GapStatistics:
    """Realized idle-gap distribution over all disks of a Base replay
    (requires ``collect_busy_intervals=True``)."""
    from ..controllers.oracle import realized_idle_gaps

    return GapStatistics.from_gaps(realized_idle_gaps(base, min_gap_s))


def exploitable_fractions(
    base: SimulationResult, pm: PowerModel, min_gap_s: float = 0.05
) -> dict[str, float]:
    """Fraction of total idle time inside gaps long enough for each
    technology to act on:

    * ``tpm`` — gaps exceeding the spin-down break-even (~15 s);
    * ``drpm_any`` — gaps exceeding one RPM step's round trip;
    * ``drpm_full`` — gaps long enough to reach the minimum level and back.

    This is the paper's §5.1 argument in one dict: on the original codes
    ``tpm`` is ~0 while ``drpm_any`` is large.
    """
    from ..controllers.oracle import realized_idle_gaps
    from ..power.breakeven import drpm_breakeven_s, tpm_breakeven_s

    durs = gap_durations(realized_idle_gaps(base, min_gap_s))
    # Sequential sums, in row order (``np.sum`` adds pairwise).
    total = sum(durs.tolist())
    if total <= 0:
        return {"tpm": 0.0, "drpm_any": 0.0, "drpm_full": 0.0}
    tpm_thr = tpm_breakeven_s(pm)
    step_thr = drpm_breakeven_s(pm, pm.levels[-2]) if len(pm.levels) > 1 else 0.0
    full_thr = drpm_breakeven_s(pm, pm.levels[0])

    def frac(threshold: float) -> float:
        return sum(durs[durs >= threshold].tolist()) / total

    return {
        "tpm": frac(tpm_thr),
        "drpm_any": frac(step_thr),
        "drpm_full": frac(full_thr),
    }
