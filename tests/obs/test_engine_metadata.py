"""Engine routing is never silent: result metadata and metrics.

``simulate`` records the engine it actually ran (``SimulationResult.engine``)
and why an auto/requested choice was overridden (``engine_forced``).  Both
fields are ``compare=False`` so result equality — the contract the cache and
the equivalence suite rely on — is unaffected.  Timeline recording is
engine-independent, so a recorder never forces a routing (the old
``timeline-recorder`` reason and its ``RuntimeWarning`` are gone).
"""

from __future__ import annotations

import warnings

import pytest

from repro import obs
from repro.controllers.drpm import ReactiveDRPM
from repro.controllers.tpm import AdaptiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.disksim.timeline import TimelineRecorder
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, Trace
from repro.util.units import KB


def _trace(num_disks=2, num_requests=48):
    layout = SubsystemLayout(
        num_disks=num_disks,
        entries=(FileEntry("A", 1024 * KB, Striping(0, num_disks, 64 * KB), 0),),
    )
    reqs = tuple(
        IORequest(float(i), "A", (i % 16) * 64 * KB, 8 * KB, False)
        for i in range(num_requests)
    )
    return Trace("t", layout, reqs, (), float(num_requests) + 3.0)


@pytest.fixture
def p():
    return SubsystemParams(num_disks=2)


def test_plain_run_reports_segmented_unforced(p):
    res = simulate(_trace(), p)
    assert res.engine == "segmented"
    assert res.engine_forced == ""


def test_auto_routes_tiny_replays_segmented(p):
    # No stream-length crossover: even a 2-request replay runs segmented
    # under ``auto`` and matches the stepwise reference bit for bit.
    res = simulate(_trace(num_requests=2), p)
    assert res.engine == "segmented"
    assert res.engine_forced == ""
    assert res == simulate(_trace(num_requests=2), p, engine="stepwise")


def test_explicit_stepwise_is_a_choice_not_a_fallback(p):
    res = simulate(_trace(), p, engine="stepwise")
    assert res.engine == "stepwise"
    assert res.engine_forced == ""


def test_reactive_controller_forces_stepwise(p):
    # Adaptive TPM observes per-sub-request completions, which a vector
    # window cannot report; it routes to the stepwise driver.
    res = simulate(_trace(), p, AdaptiveTPM(0.5))
    assert res.engine == "stepwise"
    assert res.engine_forced == "reactive-controller"


def test_reactive_drpm_forces_stepwise(p):
    # Reactive DRPM's window heuristic lives only in its completion hook,
    # so it routes stepwise like any other reactive controller.
    res = simulate(_trace(), p, ReactiveDRPM(p.drpm))
    assert res.engine == "stepwise"
    assert res.engine_forced == "reactive-controller"


def test_recorder_no_longer_forces_an_engine(p):
    # Deprecation shim for the old recorder->stepwise forcing: timelines
    # are engine-independent now, so a recorder neither reroutes the
    # replay nor warns, and the stale ``timeline-recorder`` forced reason
    # is gone.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would fail the test
        rec = TimelineRecorder()
        res = simulate(_trace(), p, recorder=rec)
    assert res.engine == "segmented"
    assert res.engine_forced == ""
    assert rec.disks  # and the segmented replay actually recorded


def test_recorder_with_explicit_segmented_is_honoured(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = TimelineRecorder()
        res = simulate(_trace(), p, recorder=rec, engine="segmented")
    assert res.engine == "segmented"
    assert res.engine_forced == ""
    ref = TimelineRecorder()
    simulate(_trace(), p, recorder=ref, engine="stepwise")
    assert {d: rec.segments(d) for d in rec.disks} == {
        d: ref.segments(d) for d in ref.disks
    }


def test_engine_metadata_does_not_break_result_equality(p):
    fast = simulate(_trace(), p)
    slow = simulate(_trace(), p, engine="stepwise")
    assert fast.engine != slow.engine
    assert fast == slow  # engine fields are compare=False


def test_fallbacks_counted_when_observing(p):
    obs.enable()
    simulate(_trace(), p, recorder=TimelineRecorder())
    simulate(_trace(), p, AdaptiveTPM(0.5))
    simulate(_trace(), p)
    # A recorder no longer forces an engine, so the only fallback here is
    # the reactive controller's; the recorder run counts as segmented.
    assert obs.metrics.counter("sim.fallbacks", reason="timeline-recorder") == 0
    assert obs.metrics.counter("sim.fallbacks", reason="reactive-controller") == 1
    assert obs.metrics.counter("sim.replays", engine="segmented", scheme="Base") == 2
    # per-RPM service counts cover both requests' sub-request fan-out
    snap = obs.metrics.snapshot()["counters"]
    rpm_total = sum(
        v for k, v in snap.items() if k.startswith("sim.subrequests{rpm=")
    )
    assert rpm_total > 0
