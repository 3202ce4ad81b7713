"""Timeline recorder: segment invariants, rendering, CSV, cross-checks."""

import pytest

from repro.analysis.cycles import EstimationModel
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.disksim.timeline import TimelineRecorder, render_timeline, timeline_to_csv
from repro.experiments.schemes import run_schemes
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, Trace
from repro.util.units import KB


def _layout(num_disks=2):
    return SubsystemLayout(
        num_disks=num_disks,
        entries=(FileEntry("A", 1024 * KB, Striping(0, num_disks, 64 * KB), 0),),
    )


def _run(params, controller=None):
    lay = _layout()
    reqs = (
        IORequest(0.0, "A", 0, 8 * KB, False),
        IORequest(2.0, "A", 64 * KB, 8 * KB, False),
    )
    rec = TimelineRecorder()
    res = simulate(Trace("t", lay, reqs, None, 5.0), params, controller, recorder=rec)
    return rec, res


def test_segments_partition_timeline(params):
    p = SubsystemParams(num_disks=2)
    rec, res = _run(p)
    rec.verify()
    for disk in rec.disks:
        total = sum(s.duration_s for s in rec.segments(disk))
        assert total == pytest.approx(res.execution_time_s, rel=1e-9)


def test_timeline_energy_matches_stats(params):
    p = SubsystemParams(num_disks=2)
    rec, res = _run(p)
    assert rec.total_energy_j() == pytest.approx(res.total_energy_j, rel=1e-9)
    for disk in rec.disks:
        assert rec.total_energy_j(disk) == pytest.approx(
            res.disk_stats[disk].total_energy_j, rel=1e-9
        )


def test_state_at_queries(params):
    p = SubsystemParams(num_disks=2)
    rec, _ = _run(p)
    # Disk 0 serves the first request at t=0: active at t=1 ms.
    seg = rec.state_at(0, 0.001)
    assert seg is not None and seg.state == "active"
    assert rec.state_at(0, 1.0).state == "idle"
    assert rec.state_at(0, 1e9) is None


def test_render_shows_states(params):
    p = SubsystemParams(num_disks=2)
    rec, _ = _run(p)
    art = render_timeline(rec, width=40)
    assert "disk0" in art and "disk1" in art
    assert "=" in art  # idle at full speed dominates
    assert "legend" not in art  # glyph legend is inline, not labeled
    empty = render_timeline(TimelineRecorder())
    assert empty == "(empty timeline)"


def test_render_marks_low_rpm_and_standby(params):
    """A CMDRPM-like scenario shows reduced-rpm buckets."""
    import numpy as np

    from repro.controllers.base import Controller
    from repro.trace.request import ACT_SET_RPM, DIRECTIVE_ROW

    class Down(Controller):
        def timed_directives(self):
            # (time, action, disk, rpm, overhead)
            return np.array([(0.5, ACT_SET_RPM, 1, 3000, 0.0)], DIRECTIVE_ROW)

    p = SubsystemParams(num_disks=2)
    rec, _ = _run(p, Down())
    art = render_timeline(rec, width=40)
    disk1_row = [l for l in art.splitlines() if l.startswith("disk1")][0]
    assert "-" in disk1_row  # idle at a low level
    assert "~" in disk1_row or "-" in disk1_row


def test_csv_round_numbers(params):
    p = SubsystemParams(num_disks=2)
    rec, _ = _run(p)
    csv = timeline_to_csv(rec)
    lines = csv.strip().splitlines()
    assert lines[0] == "disk,state,start_s,end_s,power_w,rpm,cause"
    assert len(lines) > 4
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[2]), float(first[3]), float(first[4])


def test_recorder_through_scheme_suite(phase_program, phase_layout, small_trace_options):
    """The recorder composes with the full pipeline: run CMDRPM with one
    and confirm low-rpm residency shows up during the compute gap."""
    from repro.analysis.cycles import compute_timing
    from repro.controllers.compiler_directed import CompilerDirected
    from repro.power.insertion import plan_power_calls
    from repro.trace.generator import directives_at_positions, generate_trace
    import numpy as np
    from repro.analysis.cycles import measured_timing

    params = SubsystemParams(num_disks=4)
    trace = generate_trace(phase_program, phase_layout, small_trace_options)
    base = simulate(trace, params)
    meas = measured_timing(
        phase_program,
        np.array([r.nest for r in trace.requests]),
        np.array(base.request_responses),
    )
    plan = plan_power_calls(
        phase_program, phase_layout, params, "drpm",
        estimation=EstimationModel(relative_error=0.0), measured=meas,
    )
    rec = TimelineRecorder()
    simulate(
        trace.with_directives(
            directives_at_positions(
                plan.placement_rows, compute_timing(phase_program)
            )
        ),
        params,
        CompilerDirected("drpm"),
        recorder=rec,
    )
    rec.verify()
    # Mid-compute-phase (~2.2 s in) every disk idles at a reduced level.
    seg = rec.state_at(0, 2.2)
    assert seg is not None
    assert seg.state == "idle" and seg.rpm < 15000
