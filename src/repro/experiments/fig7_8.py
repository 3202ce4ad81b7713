"""Figures 7 & 8 — swim's sensitivity to the stripe factor (disk count).

The paper varies the number of disks the arrays stripe over and reports
normalized energy (Fig. 7) and execution time (Fig. 8).  Shape targets
(§5.2): more disks mean more absolute Base energy but also more per-disk
idleness, so IDRPM and CMDRPM save *more* with larger stripe factors — and
CMDRPM stays close to IDRPM across the whole range.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .report import ExperimentReport
from .runner import ExperimentContext
from .schemes import SCHEME_NAMES

__all__ = ["run", "DEFAULT_STRIPE_FACTORS", "sweep"]

DEFAULT_STRIPE_FACTORS: tuple[int, ...] = (2, 4, 8, 16)

BENCHMARK = "swim"


def sweep(
    ctx: ExperimentContext, factors: Sequence[int] = DEFAULT_STRIPE_FACTORS
):
    """Run the swim suite at each disk count; yields (factor, suite)."""
    from ..layout.files import default_layout

    wl = ctx.workload(BENCHMARK)
    for factor in factors:
        yield factor, ctx.suite(
            BENCHMARK,
            params=replace(ctx.params, num_disks=factor),
            layout=default_layout(wl.program.arrays, num_disks=factor),
            key=("stripe_factor", factor),
        )


def run(
    ctx: ExperimentContext | None = None,
    factors: Sequence[int] = DEFAULT_STRIPE_FACTORS,
) -> tuple[ExperimentReport, ExperimentReport]:
    """Returns (Figure 7 energy report, Figure 8 time report)."""
    ctx = ctx or ExperimentContext()
    energy = ExperimentReport(
        experiment_id="fig7",
        title=f"{BENCHMARK}: normalized energy vs stripe factor (paper Figure 7)",
        columns=SCHEME_NAMES,
    )
    time = ExperimentReport(
        experiment_id="fig8",
        title=f"{BENCHMARK}: normalized execution time vs stripe factor (paper Figure 8)",
        columns=SCHEME_NAMES,
    )
    for factor, suite in sweep(ctx, factors):
        label = f"{factor} disks"
        energy.add_row(label, [suite.normalized_energy(s) for s in SCHEME_NAMES])
        time.add_row(label, [suite.normalized_time(s) for s in SCHEME_NAMES])
    energy.notes.append(
        "normalized to the Base run at the same stripe factor; paper: "
        "CMDRPM's savings grow with the disk count and track IDRPM"
    )
    return energy, time
