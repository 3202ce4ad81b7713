"""Timeline Chrome-trace export: per-disk async tracks + power counters."""

from __future__ import annotations

from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.disksim.timeline import TimelineRecorder
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.obs.export import (
    TIMELINE_PID,
    assert_valid_chrome_trace,
    timeline_events,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.recorder import SpanRecorder
from repro.trace.request import IORequest, Trace
from repro.util.units import KB


def _recorded_replay(num_disks=2, n=24):
    layout = SubsystemLayout(
        num_disks=num_disks,
        entries=(
            FileEntry("A", 1024 * KB, Striping(0, num_disks, 64 * KB), 0),
        ),
    )
    reqs = tuple(
        IORequest(float(i), "A", (i % 16) * 64 * KB, 8 * KB, False)
        for i in range(n)
    )
    rec = TimelineRecorder()
    simulate(
        Trace("t", layout, reqs, None, float(n) + 3.0),
        SubsystemParams(num_disks=num_disks),
        recorder=rec,
    )
    return rec


def test_timeline_events_structure():
    rec = _recorded_replay()
    events = timeline_events(rec, program="t", scheme="Base")
    # One async begin/end pair + one counter sample per segment, one
    # thread_name meta per disk plus the process meta.
    total_segments = sum(len(rec.segments(d)) for d in rec.disks)
    begins = [e for e in events if e["ph"] == "b"]
    ends = [e for e in events if e["ph"] == "e"]
    counters = [e for e in events if e["ph"] == "C"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(begins) == len(ends) == len(counters) == total_segments
    assert len(metas) == len(rec.disks) + 1
    assert all(e["pid"] == TIMELINE_PID for e in events)
    # begins and ends pair by (id, name) with end >= begin.
    by_id = {(e["id"], e["name"]): e["ts"] for e in begins}
    for e in ends:
        assert e["ts"] >= by_id[(e["id"], e["name"])]
    # Causes and RPM ride in the begin args.
    assert all(
        {"cause", "rpm", "power_w", "duration_s"} <= set(e["args"])
        for e in begins
    )


def test_timeline_events_validate_and_merge_with_spans():
    rec = _recorded_replay()
    events = timeline_events(rec)
    span_rec = SpanRecorder()
    with span_rec.span("outer"):
        pass
    obj = to_chrome_trace(span_rec, extra_events=events)
    assert_valid_chrome_trace(obj)
    phases = {e["ph"] for e in obj["traceEvents"]}
    assert {"X", "M", "b", "e", "C"} <= phases


def test_validator_rejects_malformed_async_and_counter_events():
    bad = {
        "traceEvents": [
            {"ph": "b", "ts": 1.0, "pid": 1, "tid": 1},  # no name/cat/id
            {"ph": "e", "name": "x", "cat": "c", "id": "1", "pid": 1,
             "tid": 1},  # no ts
            {"ph": "C", "ts": 0.0},  # no name/args
        ]
    }
    problems = validate_chrome_trace(bad)
    assert len(problems) >= 4
    assert any("async event missing 'name'" in p for p in problems)
    assert any("needs numeric ts" in p for p in problems)
    assert any("counter event missing name" in p for p in problems)
