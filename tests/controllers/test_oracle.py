"""Oracle controllers (ITPM / IDRPM)."""

import pytest

from repro.controllers.base import Controller
from repro.controllers.oracle import (
    OracleDRPM,
    OracleTPM,
    oracle_decisions,
    realized_idle_gaps,
)
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.power.planner import acting
from repro.trace.request import IORequest, Trace
from repro.util.errors import SimulationError
from repro.util.units import KB


def _layout(num_disks=2):
    return SubsystemLayout(
        num_disks=num_disks,
        entries=(FileEntry("A", 1024 * KB, Striping(0, num_disks, 64 * KB), 0),),
    )


def _bursty_trace(lay, gap_s=8.0):
    """Burst, long gap, burst — every disk gets one exploitable interior
    gap.  Execution ends right after the second burst (no long trailing
    idle period, which even a sub-break-even interior gap setup would hand
    to ITPM as a spin-down opportunity)."""
    reqs = []
    t = 0.0
    for burst in range(2):
        for k in range(16):
            reqs.append(IORequest(t, "A", k * 64 * KB, 8 * KB, False))
        t += gap_s
    return Trace("t", lay, tuple(reqs), None, t - gap_s + 0.2)


@pytest.fixture()
def two_disk_params():
    return SubsystemParams(num_disks=2)


def test_realized_gaps_require_busy_intervals(two_disk_params):
    lay = _layout()
    base = simulate(_bursty_trace(lay), two_disk_params)  # no collection
    with pytest.raises(SimulationError):
        realized_idle_gaps(base, 0.1)


def test_realized_gaps_structure(two_disk_params):
    lay = _layout()
    base = simulate(
        _bursty_trace(lay), two_disk_params, collect_busy_intervals=True
    )
    gaps = realized_idle_gaps(base, 0.1)
    assert sorted(set(gaps["disk"].tolist())) == [0, 1]
    for disk in (0, 1):
        # One interior gap (~8 s) per disk; possibly lead/trail slivers.
        mine = gaps[gaps["disk"] == disk]
        assert any(7.0 < d < 9.0 for d in (mine["end_s"] - mine["start_s"]).tolist())


def test_idrpm_saves_energy_without_slowdown(two_disk_params):
    lay = _layout()
    trace = _bursty_trace(lay)
    base = simulate(trace, two_disk_params, collect_busy_intervals=True)
    res = simulate(trace, two_disk_params, OracleDRPM(base, two_disk_params))
    assert res.total_energy_j < base.total_energy_j
    assert res.execution_time_s == pytest.approx(base.execution_time_s, rel=1e-6)
    assert res.total_rpm_shifts > 0


def test_itpm_inert_below_breakeven(two_disk_params):
    lay = _layout()
    trace = _bursty_trace(lay, gap_s=8.0)  # << 15.2 s break-even
    base = simulate(trace, two_disk_params, collect_busy_intervals=True)
    ctrl = OracleTPM(base, two_disk_params)
    res = simulate(trace, two_disk_params, ctrl)
    assert res.total_spin_downs == 0
    assert res.total_energy_j == pytest.approx(base.total_energy_j)


def test_itpm_acts_above_breakeven(two_disk_params):
    lay = _layout()
    trace = _bursty_trace(lay, gap_s=40.0)
    base = simulate(trace, two_disk_params, collect_busy_intervals=True)
    res = simulate(trace, two_disk_params, OracleTPM(base, two_disk_params))
    assert res.total_spin_downs >= 2
    assert res.total_energy_j < base.total_energy_j
    # Oracle pre-activates: no measurable slowdown.
    assert res.execution_time_s == pytest.approx(base.execution_time_s, rel=1e-6)


def test_oracle_decisions_cover_all_disks(two_disk_params):
    lay = _layout()
    trace = _bursty_trace(lay)
    base = simulate(trace, two_disk_params, collect_busy_intervals=True)
    decisions = oracle_decisions(base, two_disk_params, "drpm")
    assert set(decisions["disk"].tolist()) == {0, 1}
    assert acting(decisions).any()


def test_idrpm_beats_any_single_fixed_level(two_disk_params):
    """The oracle is at least as good as naively parking at any one level
    for the whole run (which would slow requests down)."""
    lay = _layout()
    trace = _bursty_trace(lay)
    base = simulate(trace, two_disk_params, collect_busy_intervals=True)
    oracle = simulate(trace, two_disk_params, OracleDRPM(base, two_disk_params))
    assert oracle.execution_time_s <= base.execution_time_s * (1 + 1e-9)
