"""Extension: the PDC baseline (related work [16]) vs the paper's schemes.

Popular Data Concentration re-lays the arrays out so the hottest data sits
on the fewest disks; reactive TPM/DRPM then find real idleness on the cold
disks.  This experiment holds PDC+TPM and PDC+DRPM against the paper's
CMDRPM (default layout), and also composes PDC with the compiler pass —
layout concentration and proactive planning are orthogonal.
"""

from __future__ import annotations

import functools
from typing import Sequence

from ..controllers.tpm import AdaptiveTPM
from ..disksim.simulator import simulate
from ..transform.pdc import pdc_layout
from .report import ExperimentReport
from .runner import ExperimentContext
from .schemes import run_schemes

__all__ = ["run"]


def run(
    ctx: ExperimentContext | None = None,
    benchmarks: Sequence[str] | None = None,
) -> ExperimentReport:
    from ..workloads.registry import WORKLOAD_NAMES

    ctx = ctx or ExperimentContext()
    names = list(benchmarks or WORKLOAD_NAMES)
    rep = ExperimentReport(
        experiment_id="ext_pdc",
        title="Extension: PDC layout baseline vs the compiler-directed scheme",
        columns=(
            "CMDRPM",
            "PDC/TPM",
            "PDC/ATPM",
            "PDC/DRPM",
            "PDC/CMDRPM",
            "PDC/DRPM_T",
        ),
    )
    for name in names:
        wl = ctx.workload(name)
        orig = ctx.suite(name)
        lay = pdc_layout(wl.program, ctx.default_layout_for(wl))
        suite = run_schemes(
            wl.program,
            lay,
            ctx.params,
            wl.trace_options,
            wl.estimation,
            schemes=("Base", "TPM", "DRPM", "CMDRPM"),
            analysis=functools.partial(ctx.analysis, name),
            cache=ctx.result_cache,
        )
        base_e = orig.base.total_energy_j
        atpm = ctx.derived(
            suite,
            "AdaptiveTPM",
            lambda: simulate(
                suite.base_trace,
                ctx.params,
                AdaptiveTPM(
                    initial_threshold_s=ctx.params.effective_tpm_threshold_s
                ),
            ),
        )
        rep.add_row(
            name,
            (
                orig.normalized_energy("CMDRPM"),
                suite.results["TPM"].total_energy_j / base_e,
                atpm.total_energy_j / base_e,
                suite.results["DRPM"].total_energy_j / base_e,
                suite.results["CMDRPM"].total_energy_j / base_e,
                suite.results["DRPM"].execution_time_s
                / orig.base.execution_time_s,
            ),
        )
    rep.notes.append(
        "all energies normalized to the DEFAULT-layout Base run; PDC/DRPM_T "
        "is PDC+DRPM's normalized execution time.  Fixed-threshold TPM can "
        "thrash catastrophically on concentrated layouts (every request "
        "round exceeds the threshold and pays the 10.9 s spin-up); the "
        "adaptive threshold (ATPM) backs off after unprofitable spin-downs. "
        "PDC manufactures idleness by moving data; the compiler scheme by "
        "foresight — and they compose (PDC/CMDRPM)"
    )
    return rep
