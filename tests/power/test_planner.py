"""Per-gap planner: optimality and feasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.idle import GAP_ROW
from repro.disksim.params import DiskParams, DRPMParams
from repro.disksim.powermodel import PowerModel
from repro.power.breakeven import drpm_cycle_energy_j, tpm_breakeven_s
from repro.power.planner import (
    GAP_MODES,
    GapMode,
    acting,
    min_useful_gap_s,
    plan_gaps,
)
from repro.util.errors import AnalysisError


@pytest.fixture()
def pm():
    return PowerModel(DiskParams(), DRPMParams())


def _gap(duration, trailing=False, start=100.0):
    return (0, start, start + duration, trailing)


def _table(*gaps):
    return np.array(list(gaps), dtype=GAP_ROW)


def plan_tpm_gap(gap, pm, safety_margin_s=0.0):
    (dec,) = plan_gaps(_table(gap), pm, "tpm", safety_margin_s)
    return dec


def plan_drpm_gap(gap, pm, safety_margin_s=0.0):
    (dec,) = plan_gaps(_table(gap), pm, "drpm", safety_margin_s)
    return dec


def _mode(dec):
    return GAP_MODES[dec["mode"]]


def _acts(dec):
    return _mode(dec) is not GapMode.NONE


# --------------------------------------------------------------------- #
# TPM
# --------------------------------------------------------------------- #
def test_tpm_short_gap_no_action(pm):
    dec = plan_tpm_gap(_gap(10.0), pm)
    assert _mode(dec) is GapMode.NONE
    assert not _acts(dec)


def test_tpm_long_gap_spins_down(pm):
    dec = plan_tpm_gap(_gap(30.0), pm)
    assert _mode(dec) is GapMode.STANDBY
    assert dec["down_at_s"] == pytest.approx(100.0)
    assert dec["up_at_s"] == pytest.approx(130.0 - pm.spin_up_time_s)
    assert dec["est_saving_j"] > 0


def test_tpm_breakeven_boundary(pm):
    be = tpm_breakeven_s(pm)
    assert not _acts(plan_tpm_gap(_gap(be - 0.01), pm))
    assert _acts(plan_tpm_gap(_gap(be + 0.01), pm))


def test_tpm_trailing_gap_needs_no_spin_up(pm):
    dec = plan_tpm_gap(_gap(5.0, trailing=True), pm)
    assert _mode(dec) is GapMode.STANDBY
    assert not dec["has_up"]
    # Trailing break-even is much shorter (no 135 J spin-up to amortize).
    assert not _acts(plan_tpm_gap(_gap(1.0, trailing=True), pm))


def test_tpm_safety_margin_shrinks_usable(pm):
    be = tpm_breakeven_s(pm)
    with_margin = plan_tpm_gap(_gap(be + 0.05), pm, safety_margin_s=1.0)
    assert not _acts(with_margin)
    with pytest.raises(AnalysisError):
        plan_tpm_gap(_gap(20.0), pm, safety_margin_s=-1.0)


# --------------------------------------------------------------------- #
# DRPM
# --------------------------------------------------------------------- #
def test_drpm_tiny_gap_no_action(pm):
    assert not _acts(plan_drpm_gap(_gap(0.05), pm))


def test_drpm_long_gap_hits_bottom(pm):
    dec = plan_drpm_gap(_gap(60.0), pm)
    assert _mode(dec) is GapMode.RPM
    assert dec["target_rpm"] == 3000
    assert dec["up_at_s"] == pytest.approx(
        160.0 - pm.transition_time_s(3000, 15000)
    )


def test_drpm_medium_gap_partial_descent(pm):
    dec = plan_drpm_gap(_gap(0.45), pm)
    assert _acts(dec)
    assert 3000 < dec["target_rpm"] < 15000


def test_drpm_trailing_gap_no_return(pm):
    dec = plan_drpm_gap(_gap(60.0, trailing=True), pm)
    assert _acts(dec) and not dec["has_up"]


def test_drpm_decision_beats_all_alternatives(pm):
    """The chosen level minimizes gap energy over every feasible level —
    checked against the independent closed-form cycle energy."""
    for dur in (0.3, 0.8, 1.7, 4.0, 12.0):
        dec = plan_drpm_gap(_gap(dur), pm)
        idle_cost = pm.idle_power_w(15000) * dur
        costs = {}
        for rpm in pm.levels[:-1]:
            t_round = 2 * pm.transition_time_s(15000, rpm)
            if t_round <= dur:
                costs[rpm] = drpm_cycle_energy_j(pm, dur, rpm)
        if _acts(dec):
            best_alt = min(costs.values())
            chosen = costs[dec["target_rpm"]]
            assert chosen == pytest.approx(best_alt)
            assert chosen < idle_cost
            assert dec["est_saving_j"] == pytest.approx(idle_cost - chosen, rel=1e-6)
        else:
            assert not costs or min(costs.values()) >= idle_cost


def test_plan_gaps_dispatch(pm):
    gaps = _table(_gap(30.0), _gap(1.0))
    assert acting(plan_gaps(gaps, pm, "tpm")).tolist() == [True, False]
    assert acting(plan_gaps(gaps, pm, "drpm")).tolist() == [True, True]
    with pytest.raises(AnalysisError):
        plan_gaps(gaps, pm, "warp")


def test_plan_gaps_keeps_row_order_and_empty_tables(pm):
    gaps = _table((1, 0.0, 30.0, False), (0, 5.0, 6.0, False), (1, 40.0, 90.0, True))
    rows = plan_gaps(gaps, pm, "tpm", 0.05)
    assert rows[["disk", "start_s", "end_s", "trailing"]].tolist() == gaps.tolist()
    assert rows["down_at_s"].tolist() == gaps["start_s"].tolist()
    assert plan_gaps(_table(), pm, "drpm").size == 0


def test_min_useful_gap(pm):
    assert min_useful_gap_s(pm, "tpm") == pm.spin_down_time_s
    assert min_useful_gap_s(pm, "drpm") == 2.0 * pm.drpm.transition_time_per_step_s


@settings(max_examples=80, deadline=None)
@given(st.floats(0.01, 100.0), st.booleans())
def test_drpm_planner_never_loses_energy(duration, trailing):
    """Property: a planned gap never costs more than idling through it, and
    the transitions always fit inside the gap."""
    pm = PowerModel(DiskParams(), DRPMParams())
    dec = plan_drpm_gap(_gap(duration, trailing=trailing), pm)
    if not _acts(dec):
        return
    t_down = pm.transition_time_s(15000, dec["target_rpm"])
    if trailing:
        assert t_down <= duration + 1e-9
        spent = pm.transition_energy_j(15000, dec["target_rpm"]) + pm.idle_power_w(
            dec["target_rpm"]
        ) * (duration - t_down)
    else:
        assert dec["has_up"]
        assert dec["start_s"] + t_down <= dec["up_at_s"] + 1e-9
        assert dec["up_at_s"] + t_down <= dec["end_s"] + 1e-9
        spent = drpm_cycle_energy_j(pm, duration, dec["target_rpm"])
    assert spent <= pm.idle_power_w(15000) * duration + 1e-9
    assert dec["est_saving_j"] >= -1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 60.0), st.booleans())
def test_tpm_planner_never_loses_energy(duration, trailing):
    pm = PowerModel(DiskParams(), DRPMParams())
    dec = plan_tpm_gap(_gap(duration, trailing=trailing), pm)
    if not _acts(dec):
        return
    if trailing:
        spent = pm.spin_down_energy_j + pm.standby_power_w * (
            duration - pm.spin_down_time_s
        )
    else:
        from repro.power.breakeven import tpm_cycle_energy_j

        spent = tpm_cycle_energy_j(pm, duration)
    assert spent < pm.idle_power_w(15000) * duration
