"""Per-gap power-mode planning — the decision kernel shared by the oracle
and compiler-directed schemes (paper §§3, 4.2).

For each idle gap, the planner picks the mode minimizing the energy spent
inside the gap, subject to the disk being back at full capability before
the gap ends (zero performance impact by construction):

* **TPM planning** considers one alternative — spin down, standby, spin up
  in time — and takes it iff it beats idling (i.e. the gap exceeds the
  break-even length);
* **DRPM planning** evaluates every supported RPM level and takes the
  argmin of ``E_down(l) + P_idle(l) * residual + E_up(l)`` over the levels
  whose round-trip fits the gap.

For *trailing* gaps (no subsequent access) the return transition is
dropped.  ITPM/IDRPM call this on **realized** gaps; CMTPM/CMDRPM on
**estimated** gaps with a safety margin — the planner itself is identical,
which is precisely the paper's oracle-versus-compiler framing.

:func:`plan_gaps` evaluates a whole gap table
(:data:`~repro.analysis.idle.GAP_ROW`) at once and returns one decision row
(:data:`DECISION_ROW`) per gap.  Decision rows are the only form of a
decision: the compiler places calls from them
(:mod:`repro.power.insertion`), the oracles turn them into timed directives
(:func:`repro.controllers.oracle.decisions_to_directives`), and Table 3
compares them directly.

Paper Eq. (1), the pre-activation distance, takes effect here: an interior
gap's ``up_at_s`` is its end less the wake-up time and the safety margin,
so the disk is back at speed before the next active phase.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..analysis.idle import GAP_ROW, gap_durations
from ..disksim.powermodel import PowerModel
from ..util.errors import AnalysisError

__all__ = [
    "DECISION_ROW",
    "GAP_MODES",
    "GapMode",
    "acting",
    "min_useful_gap_s",
    "plan_gaps",
    "drpm_window_step",
]


class GapMode(str, Enum):
    """What to do with an idle gap."""

    NONE = "none"  # stay idle at full speed
    STANDBY = "standby"  # TPM: spin down
    RPM = "rpm"  # DRPM: descend to a lower level


#: Mode codes of a decision row are indices into this tuple.
GAP_MODES = tuple(GapMode)
_NONE, _STANDBY, _RPM = range(len(GAP_MODES))

#: Row layout of planned decisions: the gap's own columns, then the
#: decision.  ``mode`` indexes :data:`GAP_MODES`; ``target_rpm`` is the
#: :attr:`GapMode.RPM` level (``-1`` otherwise); ``down_at_s`` is when the
#: downward transition starts (the gap start); ``up_at_s`` is the latest
#: start of the upward transition that completes before the gap ends (less
#: any safety margin), valid where ``has_up`` (acting interior gaps) and
#: ``0.0`` elsewhere; ``est_saving_j`` is the estimated energy saved versus
#: idling through the gap.
DECISION_ROW = np.dtype(GAP_ROW.descr + [
    ("mode", "i1"), ("target_rpm", "i8"), ("down_at_s", "f8"),
    ("up_at_s", "f8"), ("has_up", "?"), ("est_saving_j", "f8"),
])


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


def min_useful_gap_s(pm: PowerModel, kind: str) -> float:
    """Gaps shorter than this can never be exploited by ``kind``; merging
    activity across them keeps the gap tables compact.  For TPM the floor
    is the spin-down time alone: *trailing* gaps need no spin-up, and the
    planner itself rejects interior gaps that cannot fit the round trip."""
    if kind == "tpm":
        return pm.spin_down_time_s
    return 2.0 * pm.drpm.transition_time_per_step_s


def _plan_tpm(gaps: np.ndarray, pm: PowerModel, margin: float) -> tuple:
    """Spin down or do nothing, elementwise: each row takes the operations
    of the one-gap planner in the same order."""
    length = gap_durations(gaps)
    trailing = gaps["trailing"]
    t_down, t_up = pm.spin_down_time_s, pm.spin_up_time_s
    p_top = pm.idle_power_w(pm.disk.rpm)
    idle_cost = p_top * length
    usable = np.where(trailing, length - t_down, length - t_down - t_up - margin)
    cost = np.where(
        trailing,
        pm.spin_down_energy_j + pm.standby_power_w * usable,
        pm.spin_down_energy_j
        + pm.spin_up_energy_j
        + pm.standby_power_w * usable
        + p_top * margin,
    )
    acts = (usable > 0) & (cost < idle_cost)
    return acts, -1, gaps["end_s"] - t_up - margin, idle_cost - cost


def _plan_drpm(gaps: np.ndarray, pm: PowerModel, margin: float) -> tuple:
    """The energy-minimizing reachable level per gap: one ``(num_gaps,
    num_levels)`` cost matrix.  The disk is assumed to enter each gap at
    full speed (the planner's own up-transitions guarantee it for the next
    gap)."""
    length = gap_durations(gaps)
    trailing = gaps["trailing"]
    top = pm.disk.rpm
    levels = np.asarray(pm.levels)
    t_down = pm.steps_from_max.astype(float) * pm.drpm.transition_time_per_step_s
    p_idle = pm.idle_power_per_level
    p_top = pm.idle_power_w(top)
    t_up = np.where(trailing[:, None], 0.0, t_down[None, :])
    margins = np.where(trailing, 0.0, margin)
    usable = length[:, None] - t_down[None, :] - t_up - margins[:, None]
    # Transition segments draw the faster level's power == top level here.
    cost = (
        p_top * (t_down[None, :] + t_up)
        + p_idle[None, :] * np.maximum(usable, 0.0)
        + p_top * margins[:, None]
    )
    cost = np.where(usable >= 0, cost, np.inf)
    idle_cost = p_top * length
    best = np.argmin(cost, axis=1)
    rows = np.arange(length.size)
    cost_b = cost[rows, best]
    target = levels[best]
    acts = np.isfinite(cost_b) & (cost_b < idle_cost) & (target != top)
    return acts, target, gaps["end_s"] - t_up[rows, best] - margin, idle_cost - cost_b


def plan_gaps(
    gaps: np.ndarray,
    pm: PowerModel,
    kind: str,
    safety_margin_s: float = 0.0,
) -> np.ndarray:
    """Plan every gap of a gap table with the TPM or DRPM policy (``kind``).

    Returns one :data:`DECISION_ROW` per gap, in the table's order.  An
    interior gap's wake-up completes ``safety_margin_s`` before the gap
    ends; the margin is charged at top idle power.
    """
    if safety_margin_s < 0:
        raise AnalysisError("safety margin must be >= 0")
    if kind == "tpm":
        plan, code = _plan_tpm, _STANDBY
    elif kind == "drpm":
        plan, code = _plan_drpm, _RPM
    else:
        raise AnalysisError(f"unknown planning kind {kind!r} (use 'tpm' or 'drpm')")
    rows = np.zeros(gaps.size, dtype=DECISION_ROW)
    for name in GAP_ROW.names:
        rows[name] = gaps[name]
    rows["down_at_s"] = gaps["start_s"]
    acts, target, up_at, saving = plan(gaps, pm, safety_margin_s)
    has_up = acts & ~gaps["trailing"]
    rows["mode"] = np.where(acts, code, _NONE)
    rows["target_rpm"] = np.where(acts, target, -1)
    rows["up_at_s"] = np.where(has_up, up_at, 0.0)
    rows["has_up"] = has_up
    rows["est_saving_j"] = np.where(acts, saving, 0.0)
    return rows


def acting(decisions: np.ndarray) -> np.ndarray:
    """Mask of the decision rows that act on their gap."""
    return decisions["mode"] != _NONE
