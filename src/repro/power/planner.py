"""Per-gap power-mode planning — the decision kernel shared by the oracle
and compiler-directed schemes (paper §§3, 4.2).

Given one idle gap, the planner picks the mode minimizing the energy spent
inside the gap, subject to the disk being back at full capability before
the gap ends (zero performance impact by construction):

* **TPM planning** considers one alternative — spin down, standby, spin up
  in time — and takes it iff it beats idling (i.e. the gap exceeds the
  break-even length);
* **DRPM planning** evaluates every supported RPM level vectorized and
  takes the argmin of ``E_down(l) + P_idle(l) * residual + E_up(l)`` over
  the levels whose round-trip fits the gap.

For *trailing* gaps (no subsequent access) the return transition is
dropped.  ITPM/IDRPM call this on **realized** gaps; CMTPM/CMDRPM on
**estimated** gaps with a safety margin — the planner itself is identical,
which is precisely the paper's oracle-versus-compiler framing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ..analysis.idle import IdleGap
from ..disksim.powermodel import PowerModel
from ..util.errors import AnalysisError

__all__ = [
    "GapMode",
    "GapDecision",
    "plan_tpm_gap",
    "plan_drpm_gap",
    "plan_gaps",
    "drpm_window_step",
]


class GapMode(str, Enum):
    """What to do with an idle gap."""

    NONE = "none"  # stay idle at full speed
    STANDBY = "standby"  # TPM: spin down
    RPM = "rpm"  # DRPM: descend to a lower level


@dataclass(frozen=True)
class GapDecision:
    """The planned use of one idle gap on one disk."""

    gap: IdleGap
    mode: GapMode
    #: Target level for :attr:`GapMode.RPM`; ``None`` otherwise.
    target_rpm: int | None
    #: When to start the downward transition (gap start).
    down_at_s: float
    #: Latest start of the upward transition so it completes before the gap
    #: ends (minus any safety margin); ``None`` for trailing gaps or NONE.
    up_at_s: float | None
    #: Planner's estimate of energy saved versus idling through the gap.
    est_saving_j: float

    @property
    def acts(self) -> bool:
        return self.mode is not GapMode.NONE


def drpm_window_step(
    prev_mean: float | None, mean: float, rpm: int, drpm
) -> int | None:
    """Reactive DRPM's window-boundary level decision (paper §2, §4.1).

    Given the previous and current window means of normalized response
    time and the disk's current level, return the RPM to shift to, or
    ``None`` to hold.  This is the decision kernel
    :class:`~repro.controllers.drpm.ReactiveDRPM` applies per completion
    window; the caller must reset its reference mean after a recovery ramp (a
    returned target equal to ``drpm.max_rpm`` — a step *down* can never
    return the top level, so the discrimination is sound).

    ``drpm`` is a :class:`~repro.disksim.params.DRPMParams`; the argument
    is duck-typed so the kernel can pass it without importing params here.
    """
    if prev_mean is None or prev_mean <= 0:
        return None
    delta = (mean - prev_mean) / prev_mean
    if delta > drpm.upper_tolerance:
        if rpm != drpm.max_rpm:
            return drpm.max_rpm
        return None
    if delta < drpm.lower_tolerance:
        idx = drpm.level_index(rpm)
        if idx > 0:
            return drpm.levels[idx - 1]
    return None


def plan_tpm_gap(
    gap: IdleGap,
    pm: PowerModel,
    safety_margin_s: float = 0.0,
    slack_margin_frac: float = 0.0,
) -> GapDecision:
    """Optimal TPM use of one gap (spin down or do nothing).

    ``slack_margin_frac`` widens the pre-activation margin by that fraction
    of the gap's residual slack (what remains after the round-trip and the
    fixed margin): a robustness knob trading standby residency for
    tolerance to late directives and slow spin-ups (:mod:`repro.faults`).
    Zero (the default) is bit-identical to the fixed-margin planner.
    """
    if safety_margin_s < 0:
        raise AnalysisError("safety margin must be >= 0")
    if not 0.0 <= slack_margin_frac < 1.0:
        raise AnalysisError("slack margin fraction must be in [0, 1)")
    length = gap.duration_s
    t_down, t_up = pm.spin_down_time_s, pm.spin_up_time_s
    idle_cost = pm.idle_power_w(pm.disk.rpm) * length
    none = GapDecision(gap, GapMode.NONE, None, gap.start_s, None, 0.0)
    if gap.trailing:
        usable = length - t_down
        if usable <= 0:
            return none
        cost = pm.spin_down_energy_j + pm.standby_power_w * usable
        if cost >= idle_cost:
            return none
        return GapDecision(
            gap, GapMode.STANDBY, None, gap.start_s, None, idle_cost - cost
        )
    margin = safety_margin_s
    if slack_margin_frac:
        slack = length - t_down - t_up - safety_margin_s
        if slack > 0:
            margin = safety_margin_s + slack_margin_frac * slack
    usable = length - t_down - t_up - margin
    if usable <= 0:
        return none
    cost = (
        pm.spin_down_energy_j
        + pm.spin_up_energy_j
        + pm.standby_power_w * usable
        + pm.idle_power_w(pm.disk.rpm) * margin
    )
    if cost >= idle_cost:
        return none
    up_at = gap.end_s - t_up - margin
    return GapDecision(
        gap, GapMode.STANDBY, None, gap.start_s, up_at, idle_cost - cost
    )


def plan_drpm_gap(
    gap: IdleGap,
    pm: PowerModel,
    safety_margin_s: float = 0.0,
    slack_margin_frac: float = 0.0,
) -> GapDecision:
    """Optimal DRPM use of one gap: the energy-minimizing reachable level.

    Vectorized over all levels; the disk is assumed to enter the gap at
    full speed (the planner's own up-transitions guarantee it for the
    next gap).  ``slack_margin_frac`` reserves that fraction of each
    level's residual slack as extra pre-activation margin (charged at top
    idle power, like the fixed margin) — see :func:`plan_tpm_gap`.
    """
    if safety_margin_s < 0:
        raise AnalysisError("safety margin must be >= 0")
    if not 0.0 <= slack_margin_frac < 1.0:
        raise AnalysisError("slack margin fraction must be in [0, 1)")
    length = gap.duration_s
    top = pm.disk.rpm
    levels = np.asarray(pm.levels)
    per_step = pm.drpm.transition_time_per_step_s
    steps = pm.steps_from_max.astype(float)
    t_down = steps * per_step
    t_up = np.zeros_like(t_down) if gap.trailing else t_down
    margin = 0.0 if gap.trailing else safety_margin_s
    usable = length - t_down - t_up - margin
    p_idle = pm.idle_power_per_level
    p_top = pm.idle_power_w(top)
    if slack_margin_frac and not gap.trailing:
        extra = slack_margin_frac * np.maximum(usable, 0.0)
        usable = usable - extra
    else:
        extra = np.zeros_like(t_down)
    # Transition segments draw the faster level's power == top level here.
    cost = (
        p_top * (t_down + t_up)
        + p_idle * np.maximum(usable, 0.0)
        + p_top * (margin + extra)
    )
    cost = np.where(usable >= 0, cost, np.inf)
    idle_cost = p_top * length
    best = int(np.argmin(cost))
    best_rpm = int(levels[best])
    if best_rpm == top or not np.isfinite(cost[best]) or cost[best] >= idle_cost:
        return GapDecision(gap, GapMode.NONE, None, gap.start_s, None, 0.0)
    up_at = (
        None
        if gap.trailing
        else gap.end_s - float(t_up[best]) - margin - float(extra[best])
    )
    return GapDecision(
        gap,
        GapMode.RPM,
        best_rpm,
        gap.start_s,
        up_at,
        float(idle_cost - cost[best]),
    )


def _plan_drpm_gaps(
    gaps: Sequence[IdleGap],
    pm: PowerModel,
    safety_margin_s: float,
    slack_margin_frac: float = 0.0,
) -> list[GapDecision]:
    """Batch form of :func:`plan_drpm_gap` over a whole gap list.

    One ``(num_gaps, num_levels)`` cost evaluation replaces the per-gap
    small-array calls; every element is computed by the same operations in
    the same order as the scalar planner, so the decisions are identical
    bit for bit.
    """
    if not gaps:
        return []
    top = pm.disk.rpm
    levels = pm.levels
    per_step = pm.drpm.transition_time_per_step_s
    steps = pm.steps_from_max.astype(float)
    t_down = steps * per_step
    p_idle = pm.idle_power_per_level
    p_top = pm.idle_power_w(top)
    length = np.array([g.duration_s for g in gaps], dtype=np.float64)
    trailing = np.array([g.trailing for g in gaps], dtype=bool)
    t_up = np.where(trailing[:, None], 0.0, t_down[None, :])
    margin = np.where(trailing, 0.0, safety_margin_s)
    usable = length[:, None] - t_down[None, :] - t_up - margin[:, None]
    if slack_margin_frac:
        extra = np.where(
            trailing[:, None],
            0.0,
            slack_margin_frac * np.maximum(usable, 0.0),
        )
        usable = usable - extra
    else:
        extra = np.zeros_like(usable)
    cost = (
        p_top * (t_down[None, :] + t_up)
        + p_idle[None, :] * np.maximum(usable, 0.0)
        + p_top * (margin[:, None] + extra)
    )
    cost = np.where(usable >= 0, cost, np.inf)
    idle_cost = p_top * length
    best = np.argmin(cost, axis=1)
    rows = np.arange(len(gaps))
    cost_b = cost[rows, best]
    t_up_b = t_up[rows, best]
    extra_b = extra[rows, best]
    acts = np.isfinite(cost_b) & (cost_b < idle_cost)

    decisions: list[GapDecision] = []
    append = decisions.append
    for i, gap in enumerate(gaps):
        best_rpm = int(levels[best[i]])
        if best_rpm == top or not acts[i]:
            append(GapDecision(gap, GapMode.NONE, None, gap.start_s, None, 0.0))
            continue
        up_at = (
            None
            if gap.trailing
            else gap.end_s - float(t_up_b[i]) - safety_margin_s - float(extra_b[i])
        )
        append(
            GapDecision(
                gap,
                GapMode.RPM,
                best_rpm,
                gap.start_s,
                up_at,
                float(idle_cost[i] - cost_b[i]),
            )
        )
    return decisions


def plan_gaps(
    gaps: Sequence[IdleGap],
    pm: PowerModel,
    kind: str,
    safety_margin_s: float = 0.0,
    slack_margin_frac: float = 0.0,
) -> list[GapDecision]:
    """Plan a list of gaps with the TPM or DRPM policy (``kind``)."""
    if safety_margin_s < 0:
        raise AnalysisError("safety margin must be >= 0")
    if not 0.0 <= slack_margin_frac < 1.0:
        raise AnalysisError("slack margin fraction must be in [0, 1)")
    if kind == "tpm":
        return [
            plan_tpm_gap(g, pm, safety_margin_s, slack_margin_frac)
            for g in gaps
        ]
    if kind == "drpm":
        return _plan_drpm_gaps(gaps, pm, safety_margin_s, slack_margin_frac)
    raise AnalysisError(f"unknown planning kind {kind!r} (use 'tpm' or 'drpm')")
