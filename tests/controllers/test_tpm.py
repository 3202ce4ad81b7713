"""Reactive TPM controller behaviour inside the replay engine."""

import pytest

from repro.controllers.tpm import ReactiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, Trace
from repro.util.units import KB


def _layout():
    return SubsystemLayout(
        num_disks=2, entries=(FileEntry("A", 1024 * KB, Striping(0, 2, 64 * KB), 0),)
    )


def test_threshold_validation():
    with pytest.raises(ValueError):
        ReactiveTPM(0.0)


def test_no_spindown_when_gaps_below_threshold(params):
    lay = _layout()
    # Requests every 1 s; threshold 2 s: never idle long enough.
    reqs = [IORequest(float(t), "A", 0, 8 * KB, False) for t in range(5)]
    p = SubsystemParams(num_disks=2, tpm_idleness_threshold_s=2.0)
    res = simulate(Trace("t", lay, tuple(reqs), None, 5.0), p, ReactiveTPM(2.0))
    # Disk 0 (hit every second) never idles past the threshold; disk 1 is
    # never accessed at all, so it legitimately spins down.
    assert res.disk_stats[0].num_spin_downs == 0
    assert res.disk_stats[1].num_spin_downs == 1
    base = simulate(Trace("t", lay, tuple(reqs), None, 5.0), p)
    assert res.execution_time_s == pytest.approx(base.execution_time_s)


def test_spindown_and_penalty_on_long_gap():
    lay = _layout()
    reqs = (
        IORequest(0.0, "A", 0, 8 * KB, False),
        IORequest(30.0, "A", 0, 8 * KB, False),
    )
    p = SubsystemParams(num_disks=2, tpm_idleness_threshold_s=2.0)
    ctrl = ReactiveTPM(2.0)
    res = simulate(Trace("t", lay, reqs, None, 31.0), p, ctrl)
    base = simulate(Trace("t", lay, reqs, None, 31.0), p)
    # The disk holding A's first stripe spun down after 2 s idle; disk 1
    # (never accessed) also spun down.
    assert res.total_spin_downs == 2
    assert res.total_spin_ups == 1  # only the accessed disk wakes
    # The second request pays the 10.9 s spin-up.
    penalty = res.execution_time_s - base.execution_time_s
    assert penalty == pytest.approx(10.9, abs=0.1)


def test_energy_saved_when_gap_exceeds_breakeven():
    lay = _layout()
    gap = 60.0
    reqs = (
        IORequest(0.0, "A", 0, 8 * KB, False),
        IORequest(gap, "A", 0, 8 * KB, False),
    )
    p = SubsystemParams(num_disks=2, tpm_idleness_threshold_s=2.0)
    res = simulate(Trace("t", lay, reqs, None, gap + 1), p, ReactiveTPM(2.0))
    base = simulate(Trace("t", lay, reqs, None, gap + 1), p)
    assert res.total_energy_j < base.total_energy_j


def test_default_threshold_never_fires_on_paper_workloads():
    """With the break-even threshold and second-scale gaps, reactive TPM is
    inert — paper Figure 3/4's flat TPM bars."""
    lay = _layout()
    reqs = tuple(IORequest(t * 5.0, "A", 0, 8 * KB, False) for t in range(4))
    p = SubsystemParams(num_disks=2)  # threshold = break-even ~15.2 s
    res = simulate(
        Trace("t", lay, reqs, None, 16.0), p, ReactiveTPM(p.effective_tpm_threshold_s)
    )
    assert res.disk_stats[0].num_spin_downs == 0
