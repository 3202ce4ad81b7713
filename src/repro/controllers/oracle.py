"""Oracle schemes ITPM / IDRPM (paper §4.2).

The ideal schemes assume "an oracle predictor for detecting idle periods":
they know each disk's *realized* idle gaps exactly and act optimally inside
them — spin down only when the gap beats break-even (ITPM), or descend to
the energy-minimizing RPM level and be back at full speed in time (IDRPM).
They are not implementable (the paper runs them purely as an upper bound to
judge how close the compiler-directed schemes come).

Implementation: replay the trace once under **Base** collecting per-disk
busy intervals; extract the idle gaps; run the *same planner* the compiler
schemes use, but on the realized gaps with zero estimation error and zero
safety margin; emit the resulting transitions as absolute-time directives.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis.idle import idle_gaps_from_intervals, merge_intervals
from ..disksim.params import SubsystemParams
from ..disksim.powermodel import PowerModel
from ..disksim.stats import SimulationResult
from ..ir.nodes import PowerAction, PowerCall
from ..power.planner import (
    GAP_MODES,
    GapMode,
    acting,
    min_useful_gap_s,
    plan_gaps,
)
from ..util.errors import SimulationError
from .base import Controller, TimedDirective

__all__ = [
    "realized_idle_gaps",
    "oracle_decisions",
    "decisions_to_directives",
    "OracleTPM",
    "OracleDRPM",
]


def realized_idle_gaps(base: SimulationResult, min_gap_s: float) -> np.ndarray:
    """The gap table (:data:`~repro.analysis.idle.GAP_ROW`) realized in a
    Base replay.

    Requires the base run to have been simulated with
    ``collect_busy_intervals=True``; busy intervals closer than
    ``min_gap_s`` are merged (such gaps are unusable).
    """
    columns = base.busy_columns
    if not columns and base.num_requests:
        raise SimulationError(
            "base result carries no busy intervals; re-run simulate() with "
            "collect_busy_intervals=True"
        )
    none = np.empty(0)
    merged = [
        merge_intervals(*(columns[disk] if columns else (none, none)), min_gap_s, disk)
        for disk in range(base.num_disks)
    ]
    return idle_gaps_from_intervals(merged, base.execution_time_s, min_gap_s)


def oracle_decisions(
    base: SimulationResult, params: SubsystemParams, kind: str
) -> np.ndarray:
    """Optimal decision rows over the realized gaps (all disks)."""
    pm = PowerModel(params.disk, params.drpm)
    gaps = realized_idle_gaps(base, min_useful_gap_s(pm, kind))
    return plan_gaps(gaps, pm, kind, safety_margin_s=0.0)


def decisions_to_directives(
    decisions: np.ndarray, pm: PowerModel
) -> list[TimedDirective]:
    """Turn planned decision rows into absolute-time directives."""
    out: list[TimedDirective] = []
    for (
        disk, _start, _end, _trailing, mode, target_rpm, down_at, up_at,
        has_up, _saving,
    ) in decisions[acting(decisions)].tolist():
        if GAP_MODES[mode] is GapMode.STANDBY:
            out.append(TimedDirective(down_at, PowerCall(PowerAction.SPIN_DOWN, disk)))
            if has_up:
                out.append(TimedDirective(up_at, PowerCall(PowerAction.SPIN_UP, disk)))
        else:
            out.append(
                TimedDirective(
                    down_at, PowerCall(PowerAction.SET_RPM, disk, rpm=target_rpm)
                )
            )
            if has_up:
                out.append(
                    TimedDirective(
                        up_at, PowerCall(PowerAction.SET_RPM, disk, rpm=pm.disk.rpm)
                    )
                )
    out.sort(key=lambda d: d.time_s)
    return out


class _OracleBase(Controller):
    """Shared plumbing for the two oracle schemes."""

    kind = "tpm"

    def __init__(self, base: SimulationResult, params: SubsystemParams):
        pm = PowerModel(params.disk, params.drpm)
        #: One decision row per realized gap, disk-major.
        self.decisions = oracle_decisions(base, params, self.kind)
        self._directives = decisions_to_directives(self.decisions, pm)

    def timed_directives(self) -> Sequence[TimedDirective]:
        return self._directives


class OracleTPM(_OracleBase):
    """ITPM: optimal spin-down/up over realized gaps."""

    name = "ITPM"
    kind = "tpm"


class OracleDRPM(_OracleBase):
    """IDRPM: optimal RPM modulation over realized gaps."""

    name = "IDRPM"
    kind = "drpm"
