"""Adaptive-threshold TPM (paper §2's 'adaptive threshold based strategies')."""

import pytest

from repro.controllers.tpm import AdaptiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, Trace
from repro.util.units import KB


def _layout():
    return SubsystemLayout(
        num_disks=1, entries=(FileEntry("A", 1024 * KB, Striping(0, 1, 64 * KB), 0),)
    )


def _periodic_trace(lay, period_s, n):
    reqs = tuple(IORequest(i * period_s, "A", 0, 8 * KB, False) for i in range(n))
    return Trace("t", lay, reqs, None, n * period_s)


def test_validation():
    with pytest.raises(ValueError):
        AdaptiveTPM(initial_threshold_s=0.0)


def test_threshold_backs_off_under_thrash():
    """Requests every 20 s with a 2 s initial threshold: fixed TPM would
    spin down (and pay 10.9 s) every period; the adaptive policy stops."""
    lay = _layout()
    p = SubsystemParams(num_disks=1)
    trace = _periodic_trace(lay, 20.0, 30)
    fixed_like = simulate(trace, p, AdaptiveTPM(initial_threshold_s=2.0, refractory_spin_ups=10.0))
    # After a few doublings the threshold exceeds the 20 s period: far
    # fewer wakes than the 30 a fixed 2 s threshold would cause.
    assert fixed_like.total_spin_ups < 10
    base = simulate(trace, p)
    # And the execution-time damage is bounded (not one spin-up per request).
    assert fixed_like.execution_time_s < base.execution_time_s + 8 * 11.0


def test_threshold_stays_low_for_genuinely_long_gaps():
    """Requests every 200 s: every spin-down is profitable and isolated, so
    the policy keeps acting and saves energy."""
    lay = _layout()
    p = SubsystemParams(num_disks=1)
    trace = _periodic_trace(lay, 200.0, 8)
    res = simulate(trace, p, AdaptiveTPM(initial_threshold_s=15.2))
    base = simulate(trace, p)
    assert res.total_spin_downs >= 7
    assert res.total_energy_j < 0.6 * base.total_energy_j


def test_per_disk_learning_is_independent():
    lay = SubsystemLayout(
        num_disks=2,
        entries=(
            FileEntry("HOT", 512 * KB, Striping(0, 1, 64 * KB), 0),
            FileEntry("COLD", 512 * KB, Striping(1, 1, 64 * KB), 1024),
        ),
    )
    p = SubsystemParams(num_disks=2)
    reqs = tuple(
        IORequest(i * 20.0, "HOT", 0, 8 * KB, False) for i in range(20)
    ) + (IORequest(400.0, "COLD", 0, 8 * KB, False),)
    trace = Trace("t", lay, tuple(sorted(reqs, key=lambda r: r.nominal_time_s)), None, 401.0)
    ctrl = AdaptiveTPM(initial_threshold_s=2.0)
    res = simulate(trace, p, ctrl)
    # Disk 0 learns to stop thrashing; disk 1 spins down once, profitably.
    assert res.disk_stats[0].num_spin_ups < 10
    assert res.disk_stats[1].num_spin_downs >= 1


def test_last_standby_tracked_on_disk(power_model):
    from repro.disksim.disk import Disk

    d = Disk(0, power_model)
    d.spin_down(0.0)
    d.serve(50.0, 8 * KB)
    # Standby began at 1.5 (spin-down complete) and ended at 50.
    assert d.last_standby_s == pytest.approx(48.5)
