"""Replay engine: synchronous app model, striped fan-out, directives."""

import sys
from pathlib import Path

import pytest

from repro.controllers.base import Controller
from repro.controllers.drpm import ReactiveDRPM
from repro.disksim.params import SubsystemParams
from repro.disksim.powermodel import PowerModel
from repro.disksim.replay import SEEK_CODES, ReplayPlan
from repro.disksim.simulator import apply_call, simulate
from repro.ir.nodes import PowerAction, PowerCall
from repro.layout.files import default_layout
from repro.layout.striping import Striping
from repro.layout.files import FileEntry, SubsystemLayout
from repro.trace.generator import generate_trace
from repro.trace.request import (
    ACT_SET_RPM,
    ACT_SPIN_DOWN,
    ACT_SPIN_UP,
    IORequest,
    RequestColumns,
    Trace,
)
from repro.trace.stream import TraceStream
from repro.util.errors import SimulationError
from repro.util.units import KB

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import directive_rows  # noqa: E402


def _layout(num_disks=4, stripe=64 * KB, size=1024 * KB):
    entry = FileEntry("A", size, Striping(0, num_disks, stripe), 0)
    return SubsystemLayout(num_disks=num_disks, entries=(entry,))


def _trace(requests, layout, compute=10.0):
    return Trace("t", layout, tuple(requests), None, total_compute_s=compute)


def _req(t, offset, nbytes, write=False):
    return IORequest(t, "A", offset, nbytes, write)


def test_empty_trace_idles_all_disks(params):
    lay = _layout()
    res = simulate(_trace([], lay), params)
    assert res.execution_time_s == pytest.approx(10.0)
    assert res.total_energy_j == pytest.approx(4 * 10.0 * 10.2)
    assert res.num_requests == 0


def test_single_disk_request_blocks_app(params):
    lay = _layout()
    pm = PowerModel(params.disk, params.drpm)
    svc = pm.service_time_s(8 * KB, 15000)  # first request: full seek
    res = simulate(_trace([_req(1.0, 0, 8 * KB)], lay), params)
    assert res.execution_time_s == pytest.approx(10.0 + svc)
    assert res.responses.count == 1
    assert res.responses.mean_s == pytest.approx(svc)


def test_striped_request_completes_at_slowest_disk(params):
    lay = _layout()
    pm = PowerModel(params.disk, params.drpm)
    # 256 KB spans all four disks, 64 KB each, served in parallel.
    res = simulate(_trace([_req(0.0, 0, 256 * KB)], lay), params)
    per_disk = pm.service_time_s(64 * KB, 15000)
    assert res.responses.max_s == pytest.approx(per_disk)
    busy = [ds.num_requests for ds in res.disk_stats]
    assert busy == [1, 1, 1, 1]


def test_sequential_stream_skips_seek(params):
    lay = _layout()
    pm = PowerModel(params.disk, params.drpm)
    reqs = [_req(0.0, 0, 8 * KB), _req(1.0, 8 * KB, 8 * KB)]
    res = simulate(_trace(reqs, lay), params)
    assert res.request_responses[0] == pytest.approx(
        pm.service_time_s(8 * KB, 15000, SEEK_CODES["full"])
    )
    assert res.request_responses[1] == pytest.approx(
        pm.service_time_s(8 * KB, 15000, SEEK_CODES["seq"])
    )


def test_stream_resume_pays_short_seek(params):
    lay = _layout()
    pm = PowerModel(params.disk, params.drpm)
    # Disk 0 serves A[0:8K]; then disk 1 (different stripe) interrupts
    # nothing on disk 0 — but a *second file region* on disk 0 would.
    reqs = [
        _req(0.0, 0, 8 * KB),           # disk 0
        _req(1.0, 256 * KB, 8 * KB),    # stripe 4 -> disk 0 again, non-adjacent
    ]
    res = simulate(_trace(reqs, lay), params)
    assert res.request_responses[1] == pytest.approx(
        pm.service_time_s(8 * KB, 15000, SEEK_CODES["full"])
    )


def test_delays_propagate_to_execution_time(params):
    lay = _layout()
    reqs = [_req(0.0, 0, 8 * KB), _req(5.0, 8 * KB, 8 * KB)]
    res = simulate(_trace(reqs, lay), params)
    assert res.execution_time_s == pytest.approx(
        10.0 + sum(res.request_responses)
    )


def test_trace_directives_execute_at_program_position(params):
    lay = _layout()
    pm = PowerModel(params.disk, params.drpm)
    rows = directive_rows(
        (2.0, PowerCall(PowerAction.SET_RPM, 0, rpm=3000)),
        (8.0, PowerCall(PowerAction.SET_RPM, 0, rpm=15000)),
    )
    trace = Trace("t", lay, (_req(0.0, 0, 8 * KB),), rows, total_compute_s=10.0)
    res = simulate(trace, params)
    assert res.num_directives == 2
    assert res.disk_stats[0].num_rpm_shifts == 2
    # Energy strictly below an always-idle-at-full baseline for disk 0.
    base = simulate(_trace([_req(0.0, 0, 8 * KB)], lay), params)
    assert res.disk_stats[0].total_energy_j < base.disk_stats[0].total_energy_j


def test_directive_overhead_charged(params):
    lay = _layout()
    call = PowerCall(PowerAction.SPIN_DOWN, 0, overhead_cycles=750e6)  # 1 s at 750 MHz
    trace = Trace("t", lay, (), directive_rows((1.0, call)), total_compute_s=10.0)
    res = simulate(trace, params)
    assert res.execution_time_s == pytest.approx(11.0)


def test_directive_unknown_disk_rejected(params):
    lay = _layout()
    bad = directive_rows((1.0, PowerCall(PowerAction.SPIN_DOWN, 9)))
    with pytest.raises(SimulationError, match="directive 0 targets unknown disk 9"):
        simulate(Trace("t", lay, (), bad, total_compute_s=5.0), params)


@pytest.mark.parametrize("engine", ["stepwise", "segmented"])
def test_streamed_directive_unknown_disk_rejected_before_replay(params, engine):
    """A streamed replay names the directive by its index in the whole
    stream, as the whole-trace replay does, and raises before it pulls a
    single chunk."""
    lay = _layout()
    requests = [_req(float(t), 0, 8 * KB) for t in range(4)]
    rows = directive_rows(
        (0.5, PowerCall(PowerAction.SPIN_DOWN, 0)),
        (1.5, PowerCall(PowerAction.SPIN_UP, 0)),
        (2.5, PowerCall(PowerAction.SPIN_DOWN, 9)),
    )
    whole = Trace("t", lay, tuple(requests), rows, total_compute_s=5.0)
    message = "directive 2 targets unknown disk 9"
    with pytest.raises(SimulationError, match=message):
        simulate(whole, params, engine=engine)
    pulled = []

    def chunks():
        pulled.append(True)
        cols = RequestColumns.from_requests(requests)
        return iter((cols.slice(0, 2), cols.slice(2, 4)))

    stream = TraceStream("t", lay, 5.0, chunks, directives=rows)
    with pytest.raises(SimulationError, match=message):
        simulate(stream, params, engine=engine)
    assert pulled == []


@pytest.mark.parametrize("engine", ["stepwise", "segmented"])
def test_timed_directive_unknown_disk_rejected(engine):
    lay = _layout(num_disks=2)

    class Oracle(Controller):
        name = "oracle"

        def timed_directives(self):
            return directive_rows(
                (0.5, PowerCall(PowerAction.SPIN_DOWN, 5)),
                (0.2, PowerCall(PowerAction.SPIN_DOWN, 1)),
            )

    trace = _trace([_req(0.1, 0, 8 * KB), _req(1.0, 0, 8 * KB)], lay)
    # Named by its index in time order, the ``oracle:<k>`` numbering.
    with pytest.raises(
        SimulationError, match="timed directive 1 targets unknown disk 5"
    ):
        simulate(trace, SubsystemParams(num_disks=2), Oracle(), engine=engine)


def test_oracle_timed_directives(params):
    lay = _layout()

    class Oracle(Controller):
        name = "oracle"

        def timed_directives(self):
            return directive_rows(
                (1.0, PowerCall(PowerAction.SET_RPM, 1, rpm=3000)),
                (6.0, PowerCall(PowerAction.SET_RPM, 1, rpm=15000)),
            )

    res = simulate(_trace([_req(0.5, 0, 8 * KB), _req(8.0, 0, 8 * KB)], lay), params, Oracle())
    assert res.scheme == "oracle"
    assert res.disk_stats[1].num_rpm_shifts == 2


def test_layout_mismatch_rejected(params):
    lay = _layout(num_disks=2)
    with pytest.raises(SimulationError):
        simulate(_trace([], lay), params)  # params has 4 disks


def test_busy_interval_collection(params):
    lay = _layout()
    res = simulate(
        _trace([_req(0.0, 0, 8 * KB)], lay), params, collect_busy_intervals=True
    )
    assert len(res.busy_intervals[0]) == 1
    iv = res.busy_intervals[0][0]
    assert iv.duration_s > 0


def test_apply_call_dispatch(params, power_model):
    from repro.disksim.disk import Disk

    d = Disk(0, power_model)
    apply_call(d, 0.0, ACT_SPIN_DOWN, -1)
    d.advance(5.0)
    assert d.standby
    apply_call(d, 5.0, ACT_SPIN_UP, -1)
    d.advance(20.0)
    assert not d.standby
    apply_call(d, 20.0, ACT_SET_RPM, 3000)
    d.advance(25.0)
    assert d.rpm == 3000
    with pytest.raises(SimulationError, match="unknown power action code 7"):
        apply_call(d, 25.0, 7, -1)


def test_determinism(params):
    lay = _layout()
    reqs = [_req(float(i) * 0.2, (i * 8 * KB) % (512 * KB), 8 * KB) for i in range(40)]
    r1 = simulate(_trace(reqs, lay), params)
    r2 = simulate(_trace(reqs, lay), params)
    assert r1.total_energy_j == r2.total_energy_j
    assert r1.execution_time_s == r2.execution_time_s
    assert r1.request_responses == r2.request_responses


@pytest.mark.parametrize("engine", ["stepwise", "segmented"])
def test_caller_plan_keeps_derived_state_across_replays(
    tiny_program, tiny_layout, small_trace_options, engine
):
    """A suite shares one plan across all its scheme replays, so a replay
    must leave the plan's derived views in place for the next one."""
    trace = generate_trace(tiny_program, tiny_layout, small_trace_options)
    params = SubsystemParams(num_disks=4)
    plan = ReplayPlan.for_trace(trace)
    simulate(trace, params, plan=plan, engine=engine)
    geom = plan._derived["geom"]
    again = simulate(
        trace, params, ReactiveDRPM(params.drpm), plan=plan, engine=engine
    )
    assert plan._derived["geom"] is geom
    assert again == simulate(
        trace, params, ReactiveDRPM(params.drpm), engine=engine
    )
