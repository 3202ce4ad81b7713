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

from ..analysis.dap import ActiveInterval, _merge_intervals
from ..analysis.idle import IdleGap, idle_gaps_from_intervals
from ..disksim.params import SubsystemParams
from ..disksim.powermodel import PowerModel
from ..disksim.stats import SimulationResult
from ..ir.nodes import PowerAction, PowerCall
from ..power.planner import GapDecision, GapMode, plan_gaps
from ..util.errors import SimulationError
from .base import Controller, TimedDirective

__all__ = [
    "realized_idle_gaps",
    "oracle_decisions",
    "decisions_to_directives",
    "OracleTPM",
    "OracleDRPM",
]


def _anon_interval(disk: int, start_s: float, end_s: float) -> ActiveInterval:
    return ActiveInterval(
        disk=disk,
        start_s=start_s,
        end_s=end_s,
        nest_first=-1,
        iter_first=-1,
        nest_last=-1,
        iter_last=-1,
    )


def _merge_busy_columns(
    disk: int, starts: np.ndarray, ends: np.ndarray, merge_gap_s: float
) -> list[ActiveInterval]:
    """Fuse one disk's busy sub-requests into merged :class:`ActiveInterval`
    runs, closing a run where the next start lies more than ``merge_gap_s``
    past the run's furthest end (``_merge_intervals`` semantics).

    For time-ordered starts, ends at or after their starts, and a
    non-negative gap, the furthest end of the current run is the prefix
    maximum of *all* ends so far — every run starts past the furthest end
    before it — so run ``i`` breaks exactly where
    ``starts[i] - maximum.accumulate(ends)[i - 1] > merge_gap_s``: the same
    comparisons, on the same floats, as the sequential merge.  Any other
    input takes the generic object path.  Only one object is built per
    merged run; a Base replay produces tens of thousands of sub-requests
    per disk.
    """
    n = starts.size
    if n == 0:
        return []
    if not (
        merge_gap_s >= 0
        and bool(np.all(starts[1:] >= starts[:-1]))
        and bool(np.all(ends >= starts))
    ):
        return _merge_intervals(
            [
                _anon_interval(disk, s, e)
                for s, e in zip(starts.tolist(), ends.tolist())
            ],
            merge_gap_s,
        )
    reach = np.maximum.accumulate(ends)
    breaks = np.flatnonzero(starts[1:] - reach[:-1] > merge_gap_s)
    firsts = np.concatenate(([0], breaks + 1))
    lasts = np.concatenate((breaks, [n - 1]))
    return [
        _anon_interval(disk, s, e)
        for s, e in zip(starts[firsts].tolist(), reach[lasts].tolist())
    ]


def realized_idle_gaps(
    base: SimulationResult, min_gap_s: float
) -> list[list[IdleGap]]:
    """Per-disk idle gaps realized in a Base replay.

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
    horizon = base.execution_time_s
    none = np.empty(0)
    out: list[list[IdleGap]] = []
    for disk in range(base.num_disks):
        starts, ends = columns[disk] if columns else (none, none)
        merged = _merge_busy_columns(disk, starts, ends, min_gap_s)
        out.append(
            idle_gaps_from_intervals(merged, disk, horizon, min_gap_s=min_gap_s)
        )
    return out


def oracle_decisions(
    base: SimulationResult, params: SubsystemParams, kind: str
) -> list[GapDecision]:
    """Optimal per-gap decisions over the realized gaps (all disks)."""
    pm = PowerModel(params.disk, params.drpm)
    if kind == "tpm":
        # Spin-down time alone: trailing gaps need no spin-up, and the
        # planner rejects interior gaps that cannot fit the round trip.
        min_gap = pm.spin_down_time_s
    else:
        min_gap = 2.0 * params.drpm.transition_time_per_step_s
    decisions: list[GapDecision] = []
    for gaps in realized_idle_gaps(base, min_gap):
        decisions.extend(plan_gaps(gaps, pm, kind, safety_margin_s=0.0))
    return decisions


def decisions_to_directives(
    decisions: Sequence[GapDecision], pm: PowerModel
) -> list[TimedDirective]:
    """Turn planned gap decisions into absolute-time directives."""
    out: list[TimedDirective] = []
    for dec in decisions:
        if not dec.acts:
            continue
        disk = dec.gap.disk
        if dec.mode is GapMode.STANDBY:
            out.append(
                TimedDirective(dec.down_at_s, PowerCall(PowerAction.SPIN_DOWN, disk))
            )
            if dec.up_at_s is not None:
                out.append(
                    TimedDirective(dec.up_at_s, PowerCall(PowerAction.SPIN_UP, disk))
                )
        else:
            assert dec.target_rpm is not None
            out.append(
                TimedDirective(
                    dec.down_at_s,
                    PowerCall(PowerAction.SET_RPM, disk, rpm=dec.target_rpm),
                )
            )
            if dec.up_at_s is not None:
                out.append(
                    TimedDirective(
                        dec.up_at_s,
                        PowerCall(PowerAction.SET_RPM, disk, rpm=pm.disk.rpm),
                    )
                )
    out.sort(key=lambda d: d.time_s)
    return out


class _OracleBase(Controller):
    """Shared plumbing for the two oracle schemes."""

    kind = "tpm"

    def __init__(self, base: SimulationResult, params: SubsystemParams):
        pm = PowerModel(params.disk, params.drpm)
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
