"""Ablations over the design choices DESIGN.md calls out.

Three studies beyond the paper's own figures:

* :func:`preactivation_ablation` — what Eq. (1) buys: CMDRPM/CMTPM with the
  wake-up call placed early (the paper's scheme) versus exactly at the gap
  end (lazy activation, where every phase's first accesses wait out the
  full ramp/spin-up — paper §3's "we incur the associated spin-up delay
  fully");
* :func:`estimation_error_sweep` — how CMDRPM degrades as the compiler's
  cycle estimates worsen (the paper fixes one measurement quality; this
  sweeps it from oracle-grade to +-40 %);
* :func:`transition_speed_ablation` — sensitivity of every DRPM variant to
  the spindle's RPM modulation speed, the key hardware parameter Table 1
  does not print.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Sequence

from ..analysis.cycles import EstimationModel
from ..controllers.compiler_directed import CompilerDirected
from ..disksim.params import DRPMParams, SubsystemParams
from ..disksim.simulator import simulate
from ..power.insertion import plan_power_calls
from ..trace.generator import directives_at_positions
from .report import ExperimentReport
from .runner import ExperimentContext
from .schemes import run_workload

__all__ = [
    "preactivation_ablation",
    "estimation_error_sweep",
    "transition_speed_ablation",
]


def _cm_run(
    ctx: ExperimentContext,
    name: str,
    kind: str,
    preactivate: bool = True,
    estimation: EstimationModel | None = None,
):
    """One compiler-directed replay of a benchmark's default suite trace,
    planned with or without Eq. (1) and under ``estimation`` (default: the
    workload's own); returns ``(result, plan)``, cached off the suite."""
    suite = ctx.suite(name)
    wl = ctx.workload(name)
    est = estimation or wl.estimation

    def replay():
        plan = plan_power_calls(
            wl.program,
            suite.layout,
            ctx.params,
            kind,
            estimation=est,
            measured=suite.measured,
            preactivate=preactivate,
        )
        directives = directives_at_positions(
            plan.placement_rows, ctx.analysis(name)[1]
        )
        result = simulate(
            suite.base_trace.with_directives(directives),
            ctx.params,
            CompilerDirected(kind),
        )
        return result, plan

    return ctx.derived(
        suite, f"cm:{kind}:preactivate={preactivate}:{est!r}", replay
    )


def preactivation_ablation(
    ctx: ExperimentContext | None = None,
    benchmarks: Sequence[str] | None = None,
) -> ExperimentReport:
    """CMDRPM with vs. without pre-activation (normalized to Base)."""
    from ..workloads.registry import WORKLOAD_NAMES

    ctx = ctx or ExperimentContext()
    names = list(benchmarks or WORKLOAD_NAMES)
    rep = ExperimentReport(
        experiment_id="ablation_preactivation",
        title="Ablation: Eq. (1) pre-activation (CMDRPM, normalized to Base)",
        columns=("E_preact", "E_lazy", "T_preact", "T_lazy"),
    )
    for name in names:
        suite = ctx.suite(name)
        base = suite.base
        lazy, _plan = _cm_run(ctx, name, "drpm", preactivate=False)
        rep.add_row(
            name,
            (
                suite.normalized_energy("CMDRPM"),
                lazy.total_energy_j / base.total_energy_j,
                suite.normalized_time("CMDRPM"),
                lazy.execution_time_s / base.execution_time_s,
            ),
        )
    rep.notes.append(
        "lazy = wake-up call at the gap end: every active phase's first "
        "access waits out the full RPM ramp; pre-activation removes that "
        "penalty at a tiny energy cost (the disk is back at speed slightly "
        "early)"
    )
    return rep


def estimation_error_sweep(
    ctx: ExperimentContext | None = None,
    benchmark: str = "swim",
    errors: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4),
) -> ExperimentReport:
    """CMDRPM quality vs. the compiler's timing-estimate error."""
    ctx = ctx or ExperimentContext()
    suite = ctx.suite(benchmark)
    base = suite.base
    rep = ExperimentReport(
        experiment_id="ablation_estimation_error",
        title=f"Ablation: {benchmark} CMDRPM vs estimation error",
        columns=("energy", "time", "calls"),
    )
    for err in errors:
        res, plan = _cm_run(
            ctx, benchmark, "drpm", estimation=EstimationModel(relative_error=err)
        )
        rep.add_row(
            f"err={err:.2f}",
            (
                res.total_energy_j / base.total_energy_j,
                res.execution_time_s / base.execution_time_s,
                float(plan.num_calls),
            ),
        )
    rep.notes.append(
        "IDRPM (perfect knowledge) reference: "
        f"energy {suite.normalized_energy('IDRPM'):.3f}"
    )
    return rep


def transition_speed_ablation(
    ctx: ExperimentContext | None = None,
    benchmark: str = "swim",
    per_step_s: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.8),
) -> ExperimentReport:
    """DRPM-family savings vs. the spindle's per-step modulation time."""
    ctx = ctx or ExperimentContext()
    wl = ctx.workload(benchmark)
    rep = ExperimentReport(
        experiment_id="ablation_transition_speed",
        title=f"Ablation: {benchmark} vs RPM transition time per 1200-RPM step",
        columns=("DRPM", "IDRPM", "CMDRPM"),
    )
    schemes = ("Base", "DRPM", "IDRPM", "CMDRPM")
    param_grid = [
        SubsystemParams(
            num_disks=ctx.params.num_disks,
            drpm=replace(ctx.params.drpm, transition_time_per_step_s=per_step),
        )
        for per_step in per_step_s
    ]
    suites = [
        run_workload(
            wl,
            params=params,
            schemes=schemes,
            analysis=functools.partial(ctx.analysis, benchmark),
            cache=ctx.result_cache,
        )
        for params in param_grid
    ]
    for per_step, suite in zip(per_step_s, suites):
        rep.add_row(
            f"{per_step:.2f}s/step",
            tuple(suite.normalized_energy(s) for s in ("DRPM", "IDRPM", "CMDRPM")),
        )
    rep.notes.append(
        "slower modulation shrinks every variant's savings (round trips eat "
        "the gaps); the compiler scheme degrades alongside the oracle — its "
        "advantage is knowing when, not acting faster"
    )
    return rep
