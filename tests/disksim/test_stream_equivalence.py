"""Streamed (chunked) replay ⇔ whole-trace replay equivalence.

A `TraceStream` replay must reproduce the whole-`Trace` replay of the
same request sequence exactly — same execution time, per-disk stats, and
directive accounting — for any chunk size, both engines, and directive
streams attached mid-trace; the only documented difference is the
response summary's 95th percentile, which the bounded-memory fold reports
as the ``0.0`` sentinel.  The streamed path's structure-of-arrays batch
kernels (fused accounting) must engage at scale (256 disks) and still be
bit-identical to the per-object stepwise engine.
"""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import directive_rows, programs  # noqa: E402

from repro.controllers.drpm import ReactiveDRPM
from repro.controllers.tpm import ReactiveTPM
from repro.disksim import simulator
from repro.disksim.interface import Controller
from repro.disksim.params import DiskParams, DRPMParams, SubsystemParams
from repro.disksim.replay import ReplayPlan
from repro.disksim.simulator import (
    Replay,
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.disksim.stats import ResponseSummary
from repro.disksim.timeline import TimelineRecorder
from repro.ir.nodes import PowerAction, PowerCall
from repro.layout.files import default_layout
from repro.trace.generator import TraceOptions, generate_trace, stream_trace
from repro.trace.ingest import stream_ingest, write_text_records
from repro.trace.stream import TraceStream
from repro.util.errors import SimulationError, TraceError
from tests.conftest import _assert_results_identical

ENGINES = ("stepwise", "segmented")

_SLOW_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_stream_matches_whole(streamed, whole) -> None:
    """Streamed result == whole-trace result, modulo the p95 sentinel."""
    assert streamed.scheme == whole.scheme
    assert streamed.program_name == whole.program_name
    assert streamed.execution_time_s == whole.execution_time_s
    assert streamed.num_requests == whole.num_requests
    assert streamed.num_directives == whole.num_directives
    assert streamed.disk_stats == whole.disk_stats
    # Count and max fold exactly; the whole-trace total uses pairwise
    # summation while the stream folds sequentially, so the mean/total
    # agree only to rounding; p95 is the documented streamed sentinel.
    assert streamed.responses.count == whole.responses.count
    assert streamed.responses.max_s == whole.responses.max_s
    assert streamed.responses.p95_s == 0.0
    assert streamed.responses.total_s == pytest.approx(
        whole.responses.total_s, rel=1e-12, abs=1e-15
    )
    # Streamed replays never retain per-request columns.
    assert streamed.request_responses == ()
    assert streamed.busy_intervals == ()


# --------------------------------------------------------------------- #
# Property: random programs × chunk sizes × engines, Base controller.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_streamed_replay_matches_whole(data):
    program = data.draw(programs())
    num_disks = data.draw(st.sampled_from([1, 4]))
    layout = default_layout(program.arrays, num_disks=num_disks)
    params = SubsystemParams(num_disks=num_disks)
    options = TraceOptions(
        max_request_bytes=data.draw(st.sampled_from([128, 4096]))
    )
    chunk_requests = data.draw(st.sampled_from([1, 13, 256, 65536]))

    whole = generate_trace(program, layout, options)
    stream = stream_trace(
        program, layout, options, chunk_requests=chunk_requests
    )
    results = {}
    for eng in ENGINES:
        res_w = simulate(whole, params, engine=eng)
        res_s = simulate(stream, params, engine=eng)
        _assert_stream_matches_whole(res_s, res_w)
        results[eng] = res_s
    # The two engines' streamed results are bit-identical dataclasses.
    assert results["stepwise"] == results["segmented"]


@_SLOW_SETTINGS
@given(data=st.data())
def test_streamed_replay_chunking_invariant(data):
    """Any two chunkings of one request sequence replay bit-identically —
    including the sequentially-folded response totals."""
    program = data.draw(programs())
    layout = default_layout(program.arrays, num_disks=4)
    params = SubsystemParams(num_disks=4)
    sizes = data.draw(
        st.lists(
            st.sampled_from([1, 5, 17, 64, 4096]),
            min_size=2, max_size=2, unique=True,
        )
    )
    results = [
        simulate(
            stream_trace(program, layout, chunk_requests=cr),
            params,
            engine="segmented",
        )
        for cr in sizes
    ]
    assert results[0] == results[1]


# --------------------------------------------------------------------- #
# Directive streams: mid-trace partitioning across chunk boundaries.
# --------------------------------------------------------------------- #
def test_streamed_directives_match_whole(phase_program, phase_layout):
    """Spin and RPM directives landing mid-stream split across chunks by
    the merged-stream tie rule and reproduce the whole-trace replay —
    including the multi-RPM windows that force the fused accounting batch
    off its single-RPM fast path."""
    params = SubsystemParams(num_disks=4)
    whole = generate_trace(phase_program, phase_layout, TraceOptions())
    tmid = float(whole.columns.nominal_time_s[len(whole.columns) // 2])
    tend = float(whole.columns.nominal_time_s[-1])
    levels = params.drpm.levels
    directives = directive_rows(
        (0.0, PowerCall(PowerAction.SET_RPM, 1, rpm=levels[0])),
        (
            tmid, PowerCall(PowerAction.SET_RPM, 2, rpm=levels[len(levels) // 2])
        ),
        (tmid, PowerCall(PowerAction.SPIN_DOWN, 3)),
        (tend, PowerCall(PowerAction.SPIN_UP, 3)),
        (
            tend + 1.0, PowerCall(PowerAction.SET_RPM, 1, rpm=levels[-1])
        ),
    )
    whole_d = whole.with_directives(directives)
    stream_d = stream_trace(
        phase_program, phase_layout, TraceOptions(), chunk_requests=512
    ).with_directives(directives)
    results = {}
    for eng in ENGINES:
        res_w = simulate(whole_d, params, engine=eng)
        assert res_w.num_directives == len(directives)
        res_s = simulate(stream_d, params, engine=eng)
        _assert_stream_matches_whole(res_s, res_w)
        results[eng] = res_s
    assert results["stepwise"] == results["segmented"]


def test_streamed_reactive_controller_matches_whole(
    phase_program, phase_layout
):
    """A reactive controller observes per-completion events; the streamed
    segmented path must route it exactly like the whole-trace replay and
    agree on autonomous spin-down counts."""
    params = SubsystemParams(num_disks=4)
    whole = generate_trace(phase_program, phase_layout, TraceOptions())
    stream = stream_trace(
        phase_program, phase_layout, TraceOptions(), chunk_requests=512
    )
    res_w = simulate(whole, params, ReactiveTPM(0.5), engine="segmented")
    res_s = simulate(stream, params, ReactiveTPM(0.5), engine="segmented")
    assert res_w.total_spin_downs > 0
    _assert_stream_matches_whole(res_s, res_w)


# --------------------------------------------------------------------- #
# 256-disk smoke: the scale grid's batch kernels engage and agree.
# --------------------------------------------------------------------- #
def test_scale_cell_256_disks_engines_identical():
    from repro.experiments.scale import scale_cell

    cell = scale_cell(256, 8192, chunk_requests=1024)
    reset_replay_coverage()
    seg = simulate(cell.stream(), cell.params, engine="segmented")
    cov = replay_coverage()
    step = simulate(cell.stream(), cell.params, engine="stepwise")
    assert seg == step
    assert seg.num_requests == 8192
    assert all(st.num_requests > 0 for st in seg.disk_stats)
    # The columnar replay must actually run the vector kernels at scale.
    assert cov["replays_segmented"] == 1
    assert cov["segments_fused"] >= 1
    assert cov["subrequests_vector"] > 0


# --------------------------------------------------------------------- #
# Plan-level: SeekCarry threads seek continuity across chunk boundaries.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_chunked_plan_seek_classification_matches_whole(data):
    """Concatenated per-chunk plans (seek continuity via SeekCarry) give
    the same per-sub seek classes as the one whole-trace plan — for both
    the single-array merged classifier and the general multi-array path."""
    import numpy as np

    program = data.draw(programs())
    layout = default_layout(program.arrays, num_disks=4)
    chunk_requests = data.draw(st.sampled_from([1, 7, 100]))
    whole = generate_trace(program, layout)
    whole_plan = ReplayPlan.for_trace(whole)

    carry = None
    parts = []
    n = whole.num_requests
    for lo in range(0, n, chunk_requests):
        cols = whole.columns.slice(lo, min(lo + chunk_requests, n))
        plan_c, carry = ReplayPlan.for_columns(cols, layout, carry)
        parts.append(plan_c)
    if not parts:
        assert whole_plan.num_subrequests == 0
        return
    got_seek = np.concatenate([p.sub_seek for p in parts])
    got_disk = np.concatenate([p.sub_disk for p in parts])
    assert np.array_equal(got_seek, whole_plan.sub_seek)
    assert np.array_equal(got_disk, whole_plan.sub_disk)


# --------------------------------------------------------------------- #
# Streamed API restrictions and edge cases.
# --------------------------------------------------------------------- #
def _tiny_stream(tiny_program, tiny_layout, opts):
    return stream_trace(tiny_program, tiny_layout, opts, chunk_requests=64)


def test_streamed_rejects_busy_interval_capture(
    tiny_program, tiny_layout, small_trace_options
):
    stream = _tiny_stream(tiny_program, tiny_layout, small_trace_options)
    with pytest.raises(SimulationError, match="busy intervals"):
        simulate(
            stream, SubsystemParams(num_disks=4), collect_busy_intervals=True
        )


def test_streamed_rejects_timeline_recorder(
    tiny_program, tiny_layout, small_trace_options
):
    stream = _tiny_stream(tiny_program, tiny_layout, small_trace_options)
    with pytest.raises(SimulationError, match="timeline recorder"):
        simulate(
            stream, SubsystemParams(num_disks=4), recorder=TimelineRecorder()
        )


def test_streamed_rejects_whole_trace_plan(
    tiny_program, tiny_layout, small_trace_options
):
    trace = generate_trace(tiny_program, tiny_layout, small_trace_options)
    plan = ReplayPlan.for_trace(trace)
    stream = _tiny_stream(tiny_program, tiny_layout, small_trace_options)
    with pytest.raises(SimulationError, match="per chunk"):
        simulate(stream, SubsystemParams(num_disks=4), plan=plan)


def test_streamed_rejects_unknown_engine(
    tiny_program, tiny_layout, small_trace_options
):
    stream = _tiny_stream(tiny_program, tiny_layout, small_trace_options)
    with pytest.raises(SimulationError, match="unknown replay engine"):
        simulate(stream, SubsystemParams(num_disks=4), engine="warp")


def test_streamed_layout_mismatch_rejected(
    tiny_program, tiny_layout, small_trace_options
):
    stream = _tiny_stream(tiny_program, tiny_layout, small_trace_options)
    with pytest.raises(SimulationError, match="disks"):
        simulate(stream, SubsystemParams(num_disks=8))


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_stream_replays_cleanly(tiny_layout, engine):
    stream = TraceStream("empty", tiny_layout, 2.5, chunks=lambda: iter(()))
    res = simulate(stream, SubsystemParams(num_disks=4), engine=engine)
    assert res.num_requests == 0
    assert res.execution_time_s == 2.5  # compute time still elapses
    assert res.responses == ResponseSummary(0, 0.0, 0.0, 0.0, 0.0)


def test_consumed_one_shot_stream_raises(
    tiny_program, tiny_layout, small_trace_options
):
    chunks = list(
        _tiny_stream(
            tiny_program, tiny_layout, small_trace_options
        ).iter_chunks()
    )
    once = TraceStream(tiny_program.name, tiny_layout, 0.0, chunks=iter(chunks))
    params = SubsystemParams(num_disks=4)
    simulate(once, params, engine="segmented")
    with pytest.raises(TraceError, match="one-shot"):
        simulate(once, params, engine="segmented")


# --------------------------------------------------------------------- #
# Property: directives landing exactly on chunk boundaries.
# --------------------------------------------------------------------- #
def _boundary_directives(data, whole, chunk_requests, levels):
    """Directives whose nominal times coincide exactly with requests at
    chunk edges — the first request of a chunk and the last request of the
    previous one — where the merged-stream tie rule (directive ahead of a
    same-time request) and the chunk partition rule (a chunk takes every
    directive at or before its last request's time) interact."""
    times = whole.columns.nominal_time_s
    n = len(times)
    boundaries = [k for k in range(chunk_requests, n, chunk_requests)]
    if not boundaries:
        boundaries = [n - 1]
    picks = data.draw(
        st.lists(
            st.sampled_from(boundaries), min_size=1, max_size=3, unique=True
        )
    )
    directives = []
    for k in sorted(picks):
        disk = data.draw(st.integers(min_value=0, max_value=3))
        action = data.draw(
            st.sampled_from(["set_rpm", "spin_down", "spin_up"])
        )
        # Exactly the boundary request's nominal time (first of chunk), or
        # exactly the last request of the chunk before it.
        edge = data.draw(st.sampled_from([k, k - 1]))
        t = float(times[edge])
        if action == "set_rpm":
            call = PowerCall(
                PowerAction.SET_RPM, disk,
                rpm=data.draw(st.sampled_from(levels)),
            )
        elif action == "spin_down":
            call = PowerCall(PowerAction.SPIN_DOWN, disk)
        else:
            call = PowerCall(PowerAction.SPIN_UP, disk)
        directives.append((t, call))
    return directive_rows(*sorted(directives, key=lambda d: d[0]))


@_SLOW_SETTINGS
@given(data=st.data())
def test_directives_on_chunk_boundaries_match_whole(data):
    """A directive at exactly a chunk-edge request's nominal time replays
    identically streamed and whole, on both engines."""
    program = data.draw(programs())
    layout = default_layout(program.arrays, num_disks=4)
    params = SubsystemParams(num_disks=4)
    chunk_requests = data.draw(st.sampled_from([1, 7, 64]))

    whole = generate_trace(program, layout)
    directives = _boundary_directives(
        data, whole, chunk_requests, params.drpm.levels
    )
    whole_d = whole.with_directives(directives)
    stream_d = stream_trace(
        program, layout, chunk_requests=chunk_requests
    ).with_directives(directives)

    results = {}
    for eng in ENGINES:
        res_w = simulate(whole_d, params, engine=eng)
        res_s = simulate(stream_d, params, engine=eng)
        assert res_w.num_directives == len(directives)
        _assert_stream_matches_whole(res_s, res_w)
        results[eng] = res_s
    assert results["stepwise"] == results["segmented"]


@_SLOW_SETTINGS
@given(data=st.data())
def test_directives_on_chunk_boundaries_with_faults(data):
    """The fault-injected variant: streamed replays reject fault plans by
    contract, so the cross-engine bit-equality runs on the whole trace —
    with the same boundary-timed directive stream — and the streamed path
    is pinned to its documented :class:`SimulationError`."""
    from repro.faults import FaultConfig, FaultRates

    program = data.draw(programs())
    layout = default_layout(program.arrays, num_disks=4)
    params = SubsystemParams(num_disks=4)
    chunk_requests = data.draw(st.sampled_from([7, 64]))
    faults = FaultConfig(
        seed=data.draw(st.integers(min_value=1, max_value=5)),
        rates=FaultRates(request_error_p=0.05, deadline_miss_p=0.1),
    )

    whole = generate_trace(program, layout)
    directives = _boundary_directives(
        data, whole, chunk_requests, params.drpm.levels
    )
    whole_d = whole.with_directives(directives)
    results = {
        eng: simulate(whole_d, params, engine=eng, faults=faults)
        for eng in ENGINES
    }
    assert results["stepwise"] == results["segmented"]

    stream_d = stream_trace(
        program, layout, chunk_requests=chunk_requests
    ).with_directives(directives)
    with pytest.raises(SimulationError, match="fault"):
        simulate(stream_d, params, engine="segmented", faults=faults)


# --------------------------------------------------------------------- #
# Mixed-RPM fused accounting: the multi-level SoA batch engages.
# --------------------------------------------------------------------- #
def test_mixed_rpm_vector_windows_use_fused_batch():
    """Disks settled at different RPM levels must still take the fused
    structure-of-arrays accounting batch (not the per-disk fold), bit
    equal to the stepwise engine.  The directive layout matters: the
    t=0 edits start RPM transitions, the mid-trace re-affirmations are
    no-ops whose directive bound makes the driver re-probe for a vector
    window after the transitions have settled."""
    from repro.experiments.scale import scale_cell

    cell = scale_cell(8, 20_000, chunk_requests=65536)
    levels = cell.params.drpm.levels
    trace = cell.trace()
    tmid = trace.requests[10_000].nominal_time_s
    directives = directive_rows(
        *((0.0, PowerCall(PowerAction.SET_RPM, d, rpm=levels[0])) for d in range(4)),
        *((tmid, PowerCall(PowerAction.SET_RPM, d, rpm=levels[0])) for d in range(4)),
    )
    with_d = trace.with_directives(directives)

    reset_replay_coverage()
    seg = simulate(with_d, cell.params, engine="segmented")
    cov = replay_coverage()
    assert cov["segments_fused"] >= 1
    assert cov["segments_fused_multirpm"] >= 1

    step = simulate(with_d, cell.params, engine="stepwise")
    assert seg == step
    # The mixed levels are real: the fused window spans disks idling at
    # different RPMs — the downshifted lanes at levels[0], the rest at
    # the nominal rate.
    idle_levels = {
        rpm for ds in seg.disk_stats for rpm in ds.idle_time_by_rpm
    }
    assert len(idle_levels) > 1
    for d in range(4):
        assert levels[0] in seg.disk_stats[d].idle_time_by_rpm


def test_single_rpm_vector_windows_still_fuse():
    """The plain (no-directive) scale stream keeps taking the fused batch
    — the multi-RPM lift must not regress the common single-level case."""
    from repro.experiments.scale import scale_cell

    cell = scale_cell(64, 50_000, chunk_requests=8192)
    reset_replay_coverage()
    seg = simulate(cell.stream(), cell.params, engine="segmented")
    cov = replay_coverage()
    assert cov["segments_fused"] >= 1
    assert cov["segments_fused_multirpm"] == 0
    assert seg == simulate(cell.stream(), cell.params, engine="stepwise")


# --------------------------------------------------------------------- #
# Interleaved replays: one chunk sequence fed to several replays in turn.
# --------------------------------------------------------------------- #
def _bursty_trace(tmp_path) -> Path:
    """Bursty single-disk requests over three disks: gaps shorter and
    longer than a DRPM shift, some queueing in open loop."""
    rng = np.random.default_rng(12)
    n = 400
    gaps = rng.choice([0.0004, 0.004, 0.02, 0.07, 0.4], n, p=[.25, .25, .25, .15, .1])
    path = tmp_path / "bursty.trace"
    write_text_records(path, zip(
        np.cumsum(gaps).tolist(),
        rng.integers(0, 3, n).tolist(),
        (rng.integers(0, 1 << 20, n) * 8).tolist(),
        rng.choice([4096, 16384, 65536], n).tolist(),
        [False] * n,
    ))
    return path


@pytest.mark.parametrize("open_loop", [False, True], ids=["closed", "open"])
@pytest.mark.parametrize("chunk", [7, 64])
def test_interleaved_replays_match_their_own_simulate(chunk, open_loop, tmp_path):
    """Four replays fed one ``_stream_chunks`` sequence, chunk by chunk in
    alternating order, each bit-identical to its own ``simulate``.  They
    differ in power model (a plan's service tables must stay keyed by it)
    and controller (two reactive DRPM controllers' fields must stay their
    own); with the vector gate at 1, every chunk opens vector windows and
    open-loop reactive DRPM runs through ``_run_drpm``."""
    path = _bursty_trace(tmp_path)
    drpm = SubsystemParams(num_disks=3, drpm=DRPMParams(window_size=3))
    wide = SubsystemParams(num_disks=3, drpm=DRPMParams(window_size=5))
    slow = SubsystemParams(num_disks=3, disk=DiskParams(transfer_rate_bps=20e6))
    setups = (
        (slow, Controller),
        (drpm, lambda: ReactiveTPM(0.3)),
        (drpm, lambda: ReactiveDRPM(drpm.drpm)),
        (wide, lambda: ReactiveDRPM(wide.drpm)),
    )

    def stream():
        return stream_ingest(path, num_disks=3, mapping="lba", chunk_requests=chunk)

    with mock.patch.object(simulator, "VECTOR_MIN_SUBREQUESTS", 1):
        shared = stream()
        replays = [
            Replay(shared, params, make(), open_loop=open_loop)
            for params, make in setups
        ]
        assert (replays[3].drpm is not None) == open_loop
        triples = simulator._stream_chunks(
            shared.layout, shared.directives, shared.iter_chunks()
        )
        for k, triple in enumerate(triples):
            for replay in replays[:: -1 if k % 2 else 1]:
                replay.feed(*triple)
        for replay, (params, make) in zip(replays, setups):
            got = replay.finish()
            alone = simulate(stream(), params, make(), open_loop=open_loop)
            _assert_results_identical(got, alone)
            assert got.execution_time_s.hex() == alone.execution_time_s.hex()
            assert got.responses.total_s.hex() == alone.responses.total_s.hex()
            assert (got.engine, got.engine_forced) == (
                alone.engine, alone.engine_forced,
            )
    assert sum(st.num_rpm_shifts for st in got.disk_stats) > 0
