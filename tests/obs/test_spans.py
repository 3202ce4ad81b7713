"""Span recorder: null-object contract, nesting, and Chrome export."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.export import (
    assert_valid_chrome_trace,
    load_and_validate,
    span_names,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.recorder import NULL_SPAN


# --------------------------------------------------------------------- #
# Disabled mode: the null objects must be allocation-free no-ops.
# --------------------------------------------------------------------- #
def test_disabled_span_is_the_shared_null_singleton():
    assert not obs.enabled()
    sp = obs.span("anything", key="value")
    assert sp is NULL_SPAN
    with sp as inner:
        assert inner is NULL_SPAN
        assert inner.set(more=1) is NULL_SPAN
    # events are equally free
    obs.event("nothing", detail=42)


def test_disabled_span_records_nothing():
    with obs.span("phase", a=1):
        with obs.span("nested"):
            pass
    obs.enable()
    assert obs.get_recorder().spans == []


def test_null_span_swallows_no_exceptions():
    with pytest.raises(ValueError):
        with obs.span("failing"):
            raise ValueError("must propagate")


# --------------------------------------------------------------------- #
# Enabled mode: nesting, attributes, error capture.
# --------------------------------------------------------------------- #
def test_span_records_name_duration_and_attrs():
    rec = obs.enable()
    with obs.span("work", program="swim") as sp:
        sp.set(requests=7)
    (span,) = rec.spans
    assert span["name"] == "work"
    assert span["args"] == {"program": "swim", "requests": 7}
    assert span["dur_us"] >= 0
    assert span["ts_us"] > 0
    assert span["depth"] == 0
    assert span["parent"] is None


def test_span_nesting_tracks_parent_and_depth():
    rec = obs.enable()
    with obs.span("outer"):
        with obs.span("middle"):
            with obs.span("inner"):
                pass
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["outer"]["depth"] == 0
    assert by_name["middle"]["parent"] == "outer"
    assert by_name["middle"]["depth"] == 1
    assert by_name["inner"]["parent"] == "middle"
    assert by_name["inner"]["depth"] == 2
    # children close before parents
    names_in_finish_order = [s["name"] for s in rec.spans]
    assert names_in_finish_order == ["inner", "middle", "outer"]


def test_sibling_spans_share_parent():
    rec = obs.enable()
    with obs.span("parent"):
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["first"]["parent"] == "parent"
    assert by_name["second"]["parent"] == "parent"
    assert by_name["second"]["depth"] == 1


def test_exception_is_recorded_and_propagates():
    rec = obs.enable()
    with pytest.raises(RuntimeError):
        with obs.span("doomed"):
            raise RuntimeError("boom")
    (span,) = rec.spans
    assert span["args"]["error"] == "RuntimeError"


def test_events_capture_instants():
    rec = obs.enable()
    obs.event("cache_probe", outcome="hit")
    (ev,) = rec.events
    assert ev["name"] == "cache_probe"
    assert ev["args"] == {"outcome": "hit"}
    assert ev["ts_us"] > 0


# --------------------------------------------------------------------- #
# Chrome trace-event export schema.
# --------------------------------------------------------------------- #
def test_chrome_export_schema_fields():
    rec = obs.enable()
    with obs.span("suite.run", program="swim"):
        with obs.span("sim.replay", scheme="Base"):
            pass
    obs.event("marker", note="here")
    trace = to_chrome_trace(rec, metadata={"run": "test"})

    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"suite.run", "sim.replay"}
    for ev in complete:
        assert isinstance(ev["ts"], (int, float))
        assert isinstance(ev["dur"], (int, float))
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["tid"], int)
        assert ev["cat"] == "repro"
    instants = [e for e in events if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["marker"]
    assert all(e["s"] == "t" for e in instants)
    metadata = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in metadata)
    assert trace["otherData"] == {"run": "test"}
    # contained child starts at or after its parent, within its extent
    by_name = {e["name"]: e for e in complete}
    parent, child = by_name["suite.run"], by_name["sim.replay"]
    assert parent["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1


def test_chrome_export_round_trips_through_file(tmp_path):
    rec = obs.enable()
    with obs.span("trace.generate", program="tiny"):
        pass
    path = write_chrome_trace(tmp_path / "out.trace.json", rec)
    obj = load_and_validate(path)
    assert list(span_names(obj)) == ["trace.generate"]
    # file is plain JSON, loadable without any repro code
    assert json.loads(path.read_text())["traceEvents"]


def test_validator_rejects_malformed_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"no": "traceEvents"}) != []
    bad_event = {"traceEvents": [{"ph": "X", "name": "x", "ts": "soon"}]}
    assert validate_chrome_trace(bad_event) != []
    with pytest.raises(ValueError):
        assert_valid_chrome_trace(bad_event)


def test_non_jsonable_attrs_degrade_to_repr(tmp_path):
    rec = obs.enable()
    with obs.span("odd", obj=object(), seq=(1, 2)):
        pass
    path = write_chrome_trace(tmp_path / "odd.trace.json", rec)
    obj = load_and_validate(path)
    (ev,) = [e for e in obj["traceEvents"] if e.get("ph") == "X"]
    assert ev["args"]["seq"] == [1, 2]
    assert "object" in ev["args"]["obj"]
