"""The service-time table is the one definition of a sub-request's service.

``PowerModel.service_seek_base_s[level, code] + nbytes /
PowerModel.service_rate_bps[level]`` is what ``Disk.serve`` books, what
``PowerModel.service_time_s`` returns and what the vector kernel's
``_ServiceTables`` rows hold — all bit for bit (``float.hex``).  A code
outside the table raises ``ConfigError`` and leaves the disk untouched.
"""

import dataclasses

import numpy as np
import pytest

from repro.disksim.disk import Disk
from repro.disksim.powermodel import PowerModel
from repro.disksim.replay import SEEK_CLASSES, SEEK_CODES, ReplayPlan
from repro.disksim.simulator import _PlanGeometry, _ServiceTables
from repro.disksim.timeline import TimelineRecorder
from repro.faults import FaultConfig
from repro.trace.request import RequestColumns
from repro.util.errors import ConfigError, SimulationError

_SIZES = (1, 512, 4096, 8192, 65536, 65537, 1 << 20, 3 * (1 << 20) + 7)
_CODES = range(len(SEEK_CLASSES))
_BAD_CODES = (-1, len(SEEK_CLASSES), "full")


def _one_sub_plan(codes: list[int], sizes: list[int]) -> ReplayPlan:
    """A plan of single-sub requests on disk 0, one per (code, size)."""
    n = len(codes)
    columns = RequestColumns(
        nominal_time_s=np.arange(n, dtype=np.float64),
        array_id=np.zeros(n, dtype=np.int64),
        offset=np.zeros(n, dtype=np.int64),
        nbytes=np.array(sizes, dtype=np.int64),
        is_write=np.zeros(n, dtype=bool),
        nest=np.zeros(n, dtype=np.int64),
        iteration=np.zeros(n, dtype=np.int64),
        array_names=("A",),
    )
    return ReplayPlan(
        columns,
        1,
        np.arange(n + 1, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
        np.array(codes, dtype=np.int8),
    )


def test_serve_service_time_and_kernel_read_one_table(power_model):
    pm = power_model
    grid = [(code, size) for code in _CODES for size in _SIZES]
    codes = [c for c, _ in grid]
    sizes = [s for _, s in grid]
    plan = _one_sub_plan(codes, sizes)
    tables = _ServiceTables(pm, _PlanGeometry(plan), plan)
    t = 1.25
    for li, rpm in enumerate(pm.levels):
        kernel_row = tables.row_np(li)
        for j, (code, nbytes) in enumerate(grid):
            svc = (
                pm.service_seek_base_s[li, code]
                + nbytes / pm.service_rate_bps[li]
            )
            disk = Disk(0, pm, initial_rpm=rpm)
            done = disk.serve(t, nbytes, code)
            assert done.hex() == (t + svc).hex()
            assert disk.stats.time_s["active"].hex() == float(svc).hex()
            got = pm.service_time_s(nbytes, rpm, code)
            assert got.hex() == float(svc).hex()
            assert float(kernel_row[j]).hex() == got.hex()


def test_table_columns_are_the_seek_classes(power_model):
    pm = power_model
    li = pm.level_index[pm.disk.rpm]
    latency = pm.rotational_latency_s(pm.disk.rpm)
    base = pm.service_seek_base_s
    assert base.shape == (len(pm.levels), len(SEEK_CLASSES))
    assert base[li, SEEK_CODES["seq"]] == latency
    assert base[li, SEEK_CODES["stream"]] == pm.disk.short_seek_s + latency
    assert base[li, SEEK_CODES["full"]] == pm.disk.avg_seek_s + latency


class _NoFaults:
    """Stand-in fault plan: real retry rates, no spin-up faults."""

    config = FaultConfig()

    def spinup_fault(self, disk_id, ordinal):
        return None


@pytest.mark.parametrize("code", _BAD_CODES)
def test_unknown_code_rejected_everywhere(power_model, code):
    pm = power_model
    with pytest.raises(ConfigError):
        Disk(0, pm).serve(1.0, 4096, code)
    faulty = Disk(0, pm, faults=_NoFaults())
    with pytest.raises(ConfigError):
        faulty.serve_faulty(1.0, 4096, code, errors=1)
    assert faulty.stats.num_request_errors == 0
    with pytest.raises(ConfigError):
        pm.service_time_s(4096, pm.disk.rpm, code)


def _idle_disk(pm: PowerModel, recorder) -> Disk:
    return Disk(0, pm, recorder=recorder)


def _standby_disk(pm: PowerModel, recorder) -> Disk:
    disk = Disk(0, pm, recorder=recorder)
    disk.spin_down(0.0)
    disk.advance(20.0)
    assert disk.standby and not disk.in_transition
    return disk


def _snapshot(disk: Disk, recorder: TimelineRecorder) -> tuple:
    return (
        dataclasses.asdict(disk.stats),
        disk.cursor_s,
        disk.ready_s,
        disk.standby,
        disk.in_transition,
        recorder.segments(disk.disk_id),
    )


@pytest.mark.parametrize("make_disk", [_idle_disk, _standby_disk])
@pytest.mark.parametrize("code", _BAD_CODES)
def test_unknown_code_leaves_disk_untouched(power_model, make_disk, code):
    """Regression: the code is resolved before any state changes — no
    idle time booked on the plain path, no spin-up begun on the standby
    path — so a retry with a valid code books the span exactly once."""
    recorder = TimelineRecorder()
    disk = make_disk(power_model, recorder)
    before = _snapshot(disk, recorder)
    t = disk.cursor_s + 5.0
    with pytest.raises(ConfigError):
        disk.serve(t, 4096, code)
    assert _snapshot(disk, recorder) == before

    reference_recorder = TimelineRecorder()
    reference = make_disk(power_model, reference_recorder)
    full = SEEK_CODES["full"]
    assert disk.serve(t, 4096, full) == reference.serve(t, 4096, full)
    assert _snapshot(disk, recorder) == _snapshot(reference, reference_recorder)


def test_serve_faulty_without_fault_plan_leaves_disk_untouched(power_model):
    """Regression: a disk built without a fault plan rejects
    ``serve_faulty`` with a typed error naming the disk (it used to raise
    ``AttributeError`` on the missing plan), before any state changes."""
    recorder = TimelineRecorder()
    disk = Disk(3, power_model, recorder=recorder)
    disk.serve(0.5, 4096, SEEK_CODES["full"])
    before = _snapshot(disk, recorder)
    with pytest.raises(SimulationError, match=r"^disk 3: .*fault plan"):
        disk.serve_faulty(1.0, 4096, 2, 1)
    assert _snapshot(disk, recorder) == before
