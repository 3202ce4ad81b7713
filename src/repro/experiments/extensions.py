"""Extension experiments beyond the paper's evaluation.

* :func:`multi_nest_tiling` — the paper's §6.1 future work ("extending this
  tiling approach to multiple nests is in our future agenda"), implemented
  as :func:`repro.transform.tiling.apply_tiling_multi` and compared against
  the paper's single-nest TL+DL for every benchmark where tiling applies.
"""

from __future__ import annotations

from typing import Sequence

from ..transform.pipeline import make_version
from .report import ExperimentReport
from .runner import ExperimentContext
from .schemes import run_schemes

__all__ = ["multi_nest_tiling"]

_SCHEMES = ("CMTPM", "CMDRPM")


def multi_nest_tiling(
    ctx: ExperimentContext | None = None,
    benchmarks: Sequence[str] = ("wupwise", "applu", "mesa"),
) -> ExperimentReport:
    """Single-nest TL+DL (the paper) vs. all-nest TL*+DL (the extension),
    energies normalized to the original Base run."""
    ctx = ctx or ExperimentContext()
    rep = ExperimentReport(
        experiment_id="ext_multitiling",
        title="Extension: multi-nest tiling (TL*+DL) vs the paper's TL+DL",
        columns=(
            "orig/CMDRPM",
            "TL+DL/CMTPM",
            "TL+DL/CMDRPM",
            "TL*+DL/CMTPM",
            "TL*+DL/CMDRPM",
        ),
    )
    for name in benchmarks:
        wl = ctx.workload(name)
        orig = ctx.suite(name)
        lay = ctx.default_layout_for(wl)
        cells: list[float] = [orig.normalized_energy("CMDRPM")]
        for version in ("TL+DL", "TL*+DL"):
            tv = make_version(version, wl.program, lay)
            if not tv.applied:
                cells.extend(orig.normalized_energy(s) for s in _SCHEMES)
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
                cells.append(
                    suite.results[s].total_energy_j / orig.base.total_energy_j
                )
        rep.add_row(name, cells)
    rep.notes.append(
        "tiling every perfect nest extends band confinement across the whole "
        "run; per-array layout decisions are reconciled across nests "
        "(transposition requires unanimity; stripe sizes come from each "
        "array's costliest nest)"
    )
    return rep
