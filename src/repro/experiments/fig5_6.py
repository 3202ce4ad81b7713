"""Figures 5 & 6 — swim's sensitivity to the stripe size.

The paper varies the stripe unit and reports normalized energy (Fig. 5)
and execution time (Fig. 6), all other parameters at Table 1 defaults.
Shape targets (§5.2): CMDRPM's savings are consistent across stripe sizes
and it never slows the program down; reactive DRPM's *performance*
degrades as stripes grow — larger stripes lengthen each disk's service
runs, the controller drags the current disk to a lower level mid-run, and
the slowdown persists for the following window before the recovery ramp.
"""

from __future__ import annotations

from typing import Sequence

from ..util.units import KB
from .report import ExperimentReport
from .runner import ExperimentContext
from .schemes import SCHEME_NAMES

__all__ = ["run", "DEFAULT_STRIPE_SIZES", "sweep"]

DEFAULT_STRIPE_SIZES: tuple[int, ...] = (
    16 * KB,
    32 * KB,
    64 * KB,
    128 * KB,
    256 * KB,
)

BENCHMARK = "swim"


def sweep(
    ctx: ExperimentContext, stripe_sizes: Sequence[int] = DEFAULT_STRIPE_SIZES
):
    """Run the swim suite at each stripe size; yields (size, suite)."""
    from ..layout.files import default_layout

    wl = ctx.workload(BENCHMARK)
    for size in stripe_sizes:
        layout = default_layout(
            wl.program.arrays, num_disks=ctx.params.num_disks, stripe_size=size
        )
        yield size, ctx.suite(
            BENCHMARK, layout=layout, key=("stripe_size", size)
        )


def run(
    ctx: ExperimentContext | None = None,
    stripe_sizes: Sequence[int] = DEFAULT_STRIPE_SIZES,
) -> tuple[ExperimentReport, ExperimentReport]:
    """Returns (Figure 5 energy report, Figure 6 time report)."""
    ctx = ctx or ExperimentContext()
    energy = ExperimentReport(
        experiment_id="fig5",
        title=f"{BENCHMARK}: normalized energy vs stripe size (paper Figure 5)",
        columns=SCHEME_NAMES,
    )
    time = ExperimentReport(
        experiment_id="fig6",
        title=f"{BENCHMARK}: normalized execution time vs stripe size (paper Figure 6)",
        columns=SCHEME_NAMES,
    )
    for size, suite in sweep(ctx, stripe_sizes):
        label = f"{size // KB}KB"
        energy.add_row(label, [suite.normalized_energy(s) for s in SCHEME_NAMES])
        time.add_row(label, [suite.normalized_time(s) for s in SCHEME_NAMES])
    energy.notes.append("normalized to the Base run at the same stripe size")
    time.notes.append(
        "paper: DRPM's slowdown worsens with stripe size; CMDRPM stays at 1.0"
    )
    return energy, time
