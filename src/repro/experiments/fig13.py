"""Figure 13 — normalized energy with the code-transformation versions.

For each benchmark and each version (LF, TL, LF+DL, TL+DL; paper §6.2) the
program/layout pair is rebuilt, re-traced, and re-simulated; energies are
normalized to the *original* program's Base run, exactly as the paper
plots them.

Shape targets (§6.2): LF and TL alone are useless (layout-oblivious
restructuring does not lengthen disk inter-access times); LF+DL helps
swim, mgrid, applu, mesa; TL+DL helps wupwise, applu, mesa; galgel gains
from neither (no fissionable nests, layout-conforming access); and — the
headline — the transformations create idle periods long enough that
**CMTPM becomes viable**, averaging ~31 % savings where it previously
saved nothing.
"""

from __future__ import annotations

from typing import Sequence

from ..transform.pipeline import make_version
from ..workloads.registry import WORKLOAD_NAMES
from .report import ExperimentReport
from .runner import ExperimentContext
from .schemes import run_schemes

__all__ = ["run", "VERSIONS"]

VERSIONS: tuple[str, ...] = ("LF", "TL", "LF+DL", "TL+DL")
_SCHEMES = ("CMTPM", "CMDRPM")


def run(
    ctx: ExperimentContext | None = None,
    versions: Sequence[str] = VERSIONS,
    benchmarks: Sequence[str] = WORKLOAD_NAMES,
) -> ExperimentReport:
    ctx = ctx or ExperimentContext()
    columns = ["orig/CMTPM", "orig/CMDRPM"]
    for v in versions:
        for s in _SCHEMES:
            columns.append(f"{v}/{s}")
    rep = ExperimentReport(
        experiment_id="fig13",
        title="Normalized energy with code transformations (paper Figure 13)",
        columns=tuple(columns),
    )
    for name in benchmarks:
        wl = ctx.workload(name)
        orig_suite = ctx.suite(name)
        base = orig_suite.base
        cells: list[float | str] = [
            orig_suite.normalized_energy("CMTPM"),
            orig_suite.normalized_energy("CMDRPM"),
        ]
        orig_layout = ctx.default_layout_for(wl)
        for version in versions:
            tv = make_version(version, wl.program, orig_layout)
            if not tv.applied:
                # Identity version: same energies as the original program.
                cells.extend(
                    orig_suite.normalized_energy(s) for s in _SCHEMES
                )
                continue
            suite = run_schemes(
                tv.program,
                tv.layout,
                ctx.params,
                wl.trace_options,
                wl.estimation,
                schemes=("Base",) + _SCHEMES,
                cache=ctx.result_cache,
            )
            for s in _SCHEMES:
                cells.append(suite.results[s].total_energy_j / base.total_energy_j)
        rep.add_row(name, cells)
    rep.add_row(
        "average", [rep.column_mean(c, rows=list(benchmarks)) for c in columns]
    )
    rep.notes.append(
        "normalized to the ORIGINAL program's Base energy; identity versions "
        "(not fissionable / not tileable) repeat the original scheme results"
    )
    return rep
