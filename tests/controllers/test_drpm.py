"""Reactive DRPM window heuristic."""

import pytest

from repro.controllers.drpm import ReactiveDRPM
from repro.disksim.params import DRPMParams, SubsystemParams
from repro.disksim.simulator import simulate
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, Trace
from repro.util.units import KB


def _layout(num_disks=1):
    return SubsystemLayout(
        num_disks=num_disks,
        entries=(FileEntry("A", 4096 * KB, Striping(0, num_disks, 64 * KB), 0),),
    )


def _uniform_trace(lay, n, spacing=0.05, nbytes=8 * KB):
    reqs = tuple(
        IORequest(i * spacing, "A", (i * nbytes) % (4096 * KB), nbytes, False)
        for i in range(n)
    )
    return Trace("t", lay, reqs, None, n * spacing)


def test_ratchets_down_under_steady_load():
    lay = _layout()
    p = SubsystemParams(num_disks=1)
    drpm = DRPMParams(window_size=10)
    res = simulate(_uniform_trace(lay, 200), p, ReactiveDRPM(drpm))
    assert res.total_rpm_shifts > 0
    # Some idle/active time spent below full speed.
    ds = res.disk_stats[0]
    below = {r: t for r, t in ds.idle_time_by_rpm.items() if r < 15000}
    assert below, "controller never descended"


def test_descent_is_one_level_at_a_time():
    """Track the level after each window: it only ever falls by one step or
    recovers to the max."""
    lay = _layout()
    p = SubsystemParams(num_disks=1)
    drpm = DRPMParams(window_size=10)
    ctrl = ReactiveDRPM(drpm)
    levels = []

    class Spy(ReactiveDRPM):
        def on_request_complete(self, disk, *a, **k):
            super().on_request_complete(disk, *a, **k)
            levels.append(disk.rpm)

    res = simulate(_uniform_trace(lay, 150), p, Spy(drpm))
    changes = {
        (a, b) for a, b in zip(levels, levels[1:]) if a != b
    }
    for a, b in changes:
        assert b == 15000 or drpm.level_index(a) - drpm.level_index(b) == 1


def test_recovery_after_degradation():
    """Once the marginal slowdown of another step crosses the upper
    tolerance, the disk snaps back to full speed at least once."""
    lay = _layout()
    p = SubsystemParams(num_disks=1)
    drpm = DRPMParams(window_size=5)
    ctrl = ReactiveDRPM(drpm)
    res = simulate(_uniform_trace(lay, 400), p, ctrl)
    ds = res.disk_stats[0]
    # Sawtooth: several descents plus at least one jump back up.
    assert ds.num_rpm_shifts >= drpm.num_levels


def test_slowdown_penalty_shows_in_execution_time():
    lay = _layout()
    p = SubsystemParams(num_disks=1)
    drpm = DRPMParams(window_size=10)
    base = simulate(_uniform_trace(lay, 300), p)
    res = simulate(_uniform_trace(lay, 300), p, ReactiveDRPM(drpm))
    assert res.execution_time_s > base.execution_time_s


def test_no_requests_no_actions():
    lay = _layout()
    p = SubsystemParams(num_disks=1)
    res = simulate(Trace("t", lay, (), None, 10.0), p, ReactiveDRPM(DRPMParams()))
    assert res.total_rpm_shifts == 0
    assert res.disk_stats[0].idle_time_by_rpm.get(15000, 0) == pytest.approx(10.0)


def test_controller_requires_prepare():
    ctrl = ReactiveDRPM(DRPMParams())
    with pytest.raises(AssertionError):
        ctrl.on_request_complete(None, 0, 0, 1, 8 * KB)  # type: ignore[arg-type]
