"""Open-loop replay equivalence: stepwise ⇔ segmented.

Open-loop mode (``simulate(..., open_loop=True)``) issues requests at
their trace arrival times instead of compounding the closed-loop delay
feedback.  Everything the closed-loop differential suites guarantee must
hold here too: both engines, whole and streamed
replays at any chunking, ingested and synthetic and generated traces,
clean and under seeded fault regimes, all produce bit-identical results —
mirroring ``test_stream_equivalence.py``.  Open-loop arrivals queue at
busy disks, so the cases also check that the segmented replays served
sub-requests on the vector kernel's per-disk queues: the small traces run
with the vector gate lowered (:func:`_probe_every_run`), so each
quiescent run opens a window however short it is.

Also here: the acceptance-scale run — a 10⁶-request bursty synthetic
stream replayed through every engine with identical ``DiskStats``.
"""

import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.conftest import _assert_results_identical  # noqa: E402
from strategies import (  # noqa: E402
    directive_rows,
    fault_configs,
    programs,
    synth_configs,
)

from repro.controllers.drpm import ReactiveDRPM
from repro.controllers.tpm import ReactiveTPM
from repro.disksim import simulator
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import (
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.ir.nodes import PowerAction, PowerCall
from repro.layout.files import default_layout
from repro.trace.generator import generate_trace, stream_trace
from repro.trace.ingest import ingest_trace, stream_ingest
from repro.trace.stream import TraceStream
from repro.trace.synth import SynthConfig, synth_stream, synth_trace

ENGINES = ("stepwise", "segmented")

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "fixtures" / "traces" / "small.trace"
)

_SLOW_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _controller(name, params):
    if name == "tpm":
        return ReactiveTPM(params.effective_tpm_threshold_s)
    if name == "drpm":
        return ReactiveDRPM(params.drpm)
    return None


def _replay(trace, params, scheme, engine, **kw):
    ctrl = _controller(scheme, params)
    if ctrl is None:
        return simulate(trace, params, engine=engine, open_loop=True, **kw)
    return simulate(trace, params, ctrl, engine=engine, open_loop=True, **kw)


def _probe_every_run():
    """Open every quiescent run to the vector kernel, however short, so
    the small traces here exercise its queues and not only
    ``Disk.serve``."""
    return mock.patch.object(simulator, "VECTOR_MIN_SUBREQUESTS", 1)


def _vector(run):
    """``run()``'s result and the sub-requests it served on the vector
    kernel."""
    reset_replay_coverage()
    result = run()
    return result, replay_coverage()["subrequests_vector"]


# --------------------------------------------------------------------- #
# Ingested fixture: every engine, every scheme, whole and streamed.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", ["base", "tpm", "drpm"])
def test_ingested_fixture_engines_identical(scheme, assert_results_identical):
    trace = ingest_trace(FIXTURE, num_disks=4)
    params = SubsystemParams(num_disks=4)
    with _probe_every_run():
        runs = [
            _vector(lambda: _replay(trace, params, scheme, eng))
            for eng in ENGINES
        ]
    for other, _ in runs[1:]:
        assert_results_identical(runs[0][0], other)
    assert runs[1][1] > 0


@pytest.mark.parametrize("chunk", [7, 64])
def test_ingested_fixture_streamed_matches_whole(chunk):
    params = SubsystemParams(num_disks=4)
    whole = ingest_trace(FIXTURE, num_disks=4)
    with _probe_every_run():
        res_w = {eng: _replay(whole, params, "base", eng) for eng in ENGINES}
        for eng in ENGINES:
            stream = stream_ingest(FIXTURE, num_disks=4, chunk_requests=chunk)
            res_s, vector = _vector(lambda: _replay(stream, params, "base", eng))
            assert res_s.execution_time_s == res_w[eng].execution_time_s
            assert res_s.disk_stats == res_w[eng].disk_stats
            assert res_s.num_requests == res_w[eng].num_requests
            assert (vector > 0) == (eng != "stepwise")
    assert res_w["stepwise"] == res_w["segmented"]


# --------------------------------------------------------------------- #
# Property: random synthetic workloads × engines × schemes.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(config=synth_configs(), data=st.data())
def test_synth_engines_identical(config, data):
    assert_results_identical = _assert_results_identical
    params = SubsystemParams(num_disks=config.num_disks)
    scheme = data.draw(st.sampled_from(["base", "tpm", "drpm"]))
    trace = synth_trace(config)
    with _probe_every_run():
        runs = [
            _vector(lambda: _replay(trace, params, scheme, eng))
            for eng in ENGINES
        ]
        # Streamed (re-iterable) replay of the same config is
        # bit-identical on stats and timing for every engine.
        streamed = [
            _replay(synth_stream(config), params, scheme, eng)
            for eng in ENGINES
        ]
    results = [result for result, _ in runs]
    for other in results[1:]:
        assert_results_identical(results[0], other)
    for res_s in streamed:
        assert res_s.execution_time_s == results[0].execution_time_s
        assert res_s.disk_stats == results[0].disk_stats
    if scheme == "base":
        assert runs[1][1] > 0


@_SLOW_SETTINGS
@given(config=synth_configs(max_requests=1500))
def test_synth_rechunked_stream_matches(config):
    """Re-splitting one open-loop request sequence into different chunks
    replays bit-identically, response totals included."""
    params = SubsystemParams(num_disks=config.num_disks)
    stream = synth_stream(config)
    cols = synth_trace(config).columns
    n = len(cols)
    rechunked = TraceStream(
        stream.program_name, stream.layout, stream.total_compute_s,
        chunks=lambda: (
            cols.slice(lo, min(lo + 97, n)) for lo in range(0, n, 97)
        ),
    )
    with _probe_every_run():
        plain, vector = _vector(
            lambda: simulate(stream, params, engine="segmented", open_loop=True)
        )
        resplit = simulate(
            rechunked, params, engine="segmented", open_loop=True
        )
    assert plain == resplit
    assert vector > 0


# --------------------------------------------------------------------- #
# Property: generated program traces, open loop, clean and faulted.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_generated_trace_open_loop_engines_identical(data):
    assert_results_identical = _assert_results_identical
    program = data.draw(programs())
    num_disks = data.draw(st.sampled_from([1, 4]))
    layout = default_layout(program.arrays, num_disks=num_disks)
    params = SubsystemParams(num_disks=num_disks)
    trace = generate_trace(program, layout)
    chunk = data.draw(st.sampled_from([1, 13, 256]))
    with _probe_every_run():
        runs = [
            _vector(lambda: simulate(trace, params, engine=eng, open_loop=True))
            for eng in ENGINES
        ]
        # And streamed: any chunking reproduces the whole-trace stats.
        res_s = simulate(
            stream_trace(program, layout, chunk_requests=chunk),
            params,
            engine="segmented",
            open_loop=True,
        )
    results = [result for result, _ in runs]
    for other in results[1:]:
        assert_results_identical(results[0], other)
    if results[0].num_requests:
        assert runs[1][1] > 0
    assert res_s.execution_time_s == results[0].execution_time_s
    assert res_s.disk_stats == results[0].disk_stats


@_SLOW_SETTINGS
@given(data=st.data())
def test_open_loop_under_faults_engines_identical(data):
    """Seeded fault regimes replay bit-identically across engines in open
    loop, exactly as they do closed-loop (whole-trace only: streamed
    replays reject fault plans by contract)."""
    assert_results_identical = _assert_results_identical
    program = data.draw(programs())
    layout = default_layout(program.arrays, num_disks=4)
    params = SubsystemParams(num_disks=4)
    faults = data.draw(fault_configs(allow_null=False))
    trace = generate_trace(program, layout)
    # No vector share is asserted: flagged requests run on ``serve_faulty``,
    # so a trace whose requests are all flagged opens no window.
    with _probe_every_run():
        results = [
            simulate(trace, params, engine=eng, open_loop=True, faults=faults)
            for eng in ENGINES
        ]
    for other in results[1:]:
        assert_results_identical(results[0], other)


# --------------------------------------------------------------------- #
# Trace directives under open loop: cursor clamping is engine-invariant.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ENGINES)
def test_directives_clamp_to_cursor_open_loop(engine, assert_results_identical):
    """Open loop freezes the delay feedback, so a directive's nominal
    time can precede a backlogged disk's cursor; both engines must clamp
    it to the cursor instead of raising, identically."""
    config = SynthConfig(
        num_requests=400, num_disks=2, model="onoff", rate_hz=20000.0,
        seed=3,
    )
    trace = synth_trace(config)
    params = SubsystemParams(num_disks=2)
    tmid = float(trace.columns.nominal_time_s[200])
    levels = params.drpm.levels
    directives = directive_rows(
        (tmid, PowerCall(PowerAction.SET_RPM, 0, rpm=levels[0])),
        (tmid, PowerCall(PowerAction.SPIN_DOWN, 1)),
        (
            tmid + 0.5, PowerCall(PowerAction.SET_RPM, 0, rpm=levels[-1])
        ),
        (tmid + 1.0, PowerCall(PowerAction.SPIN_UP, 1)),
    )
    with_d = trace.with_directives(directives)
    with _probe_every_run():
        res, vector = _vector(
            lambda: simulate(with_d, params, engine=engine, open_loop=True)
        )
    assert res.num_directives == len(directives)
    assert (vector > 0) == (engine != "stepwise")
    ref = simulate(with_d, params, engine="stepwise", open_loop=True)
    assert_results_identical(res, ref)


# --------------------------------------------------------------------- #
# Open vs closed loop: the modes genuinely differ.
# --------------------------------------------------------------------- #
def test_open_loop_differs_from_closed_loop():
    """On a backlogged trace the closed-loop delay feedback stretches
    execution; open loop issues at trace arrivals and finishes sooner."""
    config = SynthConfig(
        num_requests=2000, num_disks=2, model="poisson", rate_hz=50000.0,
        seed=1,
    )
    trace = synth_trace(config)
    params = SubsystemParams(num_disks=2)
    open_res = simulate(trace, params, open_loop=True)
    closed_res = simulate(trace, params)
    assert open_res.execution_time_s < closed_res.execution_time_s


# --------------------------------------------------------------------- #
# Acceptance scale: 10⁶-request bursty synthetic, every engine.
# --------------------------------------------------------------------- #
def test_million_request_bursty_stream_engines_identical():
    config = SynthConfig(
        num_requests=1_000_000, num_disks=8, model="onoff", lba_skew=0.5,
        seed=7,
    )
    params = SubsystemParams(num_disks=8)
    runs = {
        eng: _vector(
            lambda: simulate(
                synth_stream(config), params, engine=eng, open_loop=True
            )
        )
        for eng in ENGINES
    }
    results = {eng: result for eng, (result, _) in runs.items()}
    ref = results["stepwise"]
    assert ref.num_requests == 1_000_000
    # Its bursts queue, and the vector kernel serves every sub-request.
    assert runs["segmented"][1] == 1_000_000
    seg = results["segmented"]
    assert seg.disk_stats == ref.disk_stats
    assert seg.execution_time_s == ref.execution_time_s
    assert seg.responses.count == ref.responses.count
    assert seg.responses.max_s == ref.responses.max_s
