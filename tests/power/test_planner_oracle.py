"""The batch planner ``plan_gaps`` equals the one-gap planners it replaced,
float for float (compared through ``float.hex``).

``plan_tpm_gap`` and ``plan_drpm_gap`` below are those planners, kept as
the test oracle: one gap tuple ``(disk, start_s, end_s, trailing)`` in, one
decision tuple in :data:`~repro.power.planner.DECISION_ROW` field order
out, in scalar Python (TPM) or over one small level array (DRPM).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.idle import GAP_ROW
from repro.disksim.params import DiskParams, DRPMParams
from repro.disksim.powermodel import PowerModel
from repro.power.planner import GAP_MODES, GapMode, plan_gaps

PM = PowerModel(DiskParams(), DRPMParams())


def _decision(gap, mode, target_rpm, up_at, saving) -> tuple:
    """A decision tuple; ``None`` target and wake-up as the row spells them."""
    return (
        *gap, GAP_MODES.index(mode), -1 if target_rpm is None else target_rpm,
        gap[1], 0.0 if up_at is None else up_at, up_at is not None, saving,
    )


def plan_tpm_gap(gap: tuple, pm: PowerModel, safety_margin_s: float) -> tuple:
    """Optimal TPM use of one gap (spin down or do nothing)."""
    _disk, start, end, trailing = gap
    length = end - start
    t_down, t_up = pm.spin_down_time_s, pm.spin_up_time_s
    idle_cost = pm.idle_power_w(pm.disk.rpm) * length
    none = _decision(gap, GapMode.NONE, None, None, 0.0)
    if trailing:
        usable = length - t_down
        if usable <= 0:
            return none
        cost = pm.spin_down_energy_j + pm.standby_power_w * usable
        if cost >= idle_cost:
            return none
        return _decision(gap, GapMode.STANDBY, None, None, idle_cost - cost)
    margin = safety_margin_s
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
    up_at = end - t_up - margin
    return _decision(gap, GapMode.STANDBY, None, up_at, idle_cost - cost)


def plan_drpm_gap(gap: tuple, pm: PowerModel, safety_margin_s: float) -> tuple:
    """Optimal DRPM use of one gap: the energy-minimizing reachable level."""
    _disk, start, end, trailing = gap
    length = end - start
    top = pm.disk.rpm
    levels = np.asarray(pm.levels)
    per_step = pm.drpm.transition_time_per_step_s
    steps = pm.steps_from_max.astype(float)
    t_down = steps * per_step
    t_up = np.zeros_like(t_down) if trailing else t_down
    margin = 0.0 if trailing else safety_margin_s
    usable = length - t_down - t_up - margin
    p_idle = pm.idle_power_per_level
    p_top = pm.idle_power_w(top)
    cost = (
        p_top * (t_down + t_up)
        + p_idle * np.maximum(usable, 0.0)
        + p_top * margin
    )
    cost = np.where(usable >= 0, cost, np.inf)
    idle_cost = p_top * length
    best = int(np.argmin(cost))
    best_rpm = int(levels[best])
    if best_rpm == top or not np.isfinite(cost[best]) or cost[best] >= idle_cost:
        return _decision(gap, GapMode.NONE, None, None, 0.0)
    up_at = None if trailing else end - float(t_up[best]) - margin
    return _decision(
        gap, GapMode.RPM, best_rpm, up_at, float(idle_cost - cost[best])
    )


_REFERENCE = {"tpm": plan_tpm_gap, "drpm": plan_drpm_gap}


def _exact(decisions) -> list[tuple]:
    """Decision tuples with every float spelled by ``float.hex``."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in d)
        for d in decisions
    ]


def _table(gaps: list[tuple]) -> np.ndarray:
    return np.array(gaps, dtype=GAP_ROW)


# Lengths straddle every threshold that matters: the DRPM per-step round
# trips (tenths of a second), the TPM spin-down time and interior
# break-even (seconds to ~15 s), and the margins themselves.
_length = st.one_of(
    st.floats(0.0, 1.0), st.floats(0.0, 40.0),
    st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.4, 10.9, 15.2, 30.0)),
)


@st.composite
def _gaps(draw) -> list[tuple]:
    out = []
    for disk in range(draw(st.integers(1, 3))):
        t = draw(st.floats(0.0, 5.0))
        for _ in range(draw(st.integers(0, 6))):
            length = draw(_length)
            out.append((disk, t, t + length, draw(st.booleans())))
            t += length + draw(st.floats(0.0, 2.0))
    return out


@settings(max_examples=300, deadline=None)
@given(_gaps(), st.sampled_from(("tpm", "drpm")), st.sampled_from((0.0, 0.05)))
def test_batch_planner_equals_one_gap_planner(gaps, kind, margin):
    expected = [_REFERENCE[kind](g, PM, margin) for g in gaps]
    rows = plan_gaps(_table(gaps), PM, kind, margin)
    assert _exact(rows.tolist()) == _exact(expected)


@pytest.mark.parametrize("kind", ["tpm", "drpm"])
def test_every_decision_branch_agrees(kind):
    """Fixed lengths that reach acting and idle decisions, trailing or
    not, agree too."""
    gaps = [
        (0, 0.0, length, trailing)
        for length in (0.05, 0.4, 5.0, 30.0)
        for trailing in (False, True)
    ]
    decisions = [_REFERENCE[kind](g, PM, 0.05) for g in gaps]
    none = GAP_MODES.index(GapMode.NONE)
    assert {(d[4] != none, d[3]) for d in decisions} == {
        (False, False), (True, False), (False, True), (True, True)
    }
    assert _exact(plan_gaps(_table(gaps), PM, kind, 0.05).tolist()) == (
        _exact(decisions)
    )
