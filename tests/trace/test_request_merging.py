"""How requests and directives merge at replay, trace record validation,
and trace-file robustness."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.disksim.timeline import TimelineRecorder
from repro.ir.nodes import PowerAction, PowerCall
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, RequestColumns, Trace
from repro.trace.stream import TraceStream
from repro.trace.tracefile import parse_trace
from repro.util.errors import TraceError
from repro.util.units import KB

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import directive_rows  # noqa: E402


def _layout():
    return SubsystemLayout(
        num_disks=2, entries=(FileEntry("A", 256 * KB, Striping(0, 2, 64 * KB), 0),)
    )


def _req(t):
    return IORequest(t, "A", 0, 512, False)


def _dirs(*times, disk=0):
    return directive_rows(
        *((t, PowerCall(PowerAction.SPIN_DOWN, disk)) for t in times)
    )


def test_merged_orders_by_time():
    """The replay walks requests and directives in one time order: with
    requests at 1 and 3 and spin-downs at 0.5, 2 and 4 on their disk, the
    disk's timeline reads spin-down, serve, spin-down, serve, spin-down
    under both engines."""
    trace = Trace(
        "t",
        _layout(),
        (_req(1.0), _req(3.0)),
        _dirs(0.5, 2.0, 4.0),
        total_compute_s=5.0,
    )
    for engine in ("stepwise", "segmented"):
        rec = TimelineRecorder()
        params = SubsystemParams(num_disks=trace.layout.num_disks)
        result = simulate(trace, params, recorder=rec, engine=engine)
        assert result.num_directives == 3
        kinds = []
        for seg in rec.segments(0):
            if seg.cause.startswith("directive:"):
                kind = seg.cause
            elif seg.state == "active":
                kind = "R"
            else:
                continue
            if not kinds or kinds[-1] != kind:
                kinds.append(kind)
        assert kinds == ["directive:0", "R", "directive:1", "R", "directive:2"]


def _tie_run(tie_time, engine, streamed):
    """Four single-disk requests one second apart, and a
    ``set_RPM(3000)`` on their disk at ``tie_time``; streamed replays use
    2-request chunks."""
    lay = SubsystemLayout(
        num_disks=1, entries=(FileEntry("A", 256 * KB, Striping(0, 1, 64 * KB), 0),)
    )
    requests = tuple(IORequest(float(t), "A", 0, 8 * KB, False) for t in range(4))
    rows = directive_rows((tie_time, PowerCall(PowerAction.SET_RPM, 0, rpm=3000)))
    params = SubsystemParams(num_disks=1)
    if not streamed:
        return simulate(Trace("t", lay, requests, rows, 5.0), params, engine=engine)
    cols = RequestColumns.from_requests(requests)
    chunks = lambda: (cols.slice(lo, lo + 2) for lo in (0, 2))  # noqa: E731
    stream = TraceStream("t", lay, 5.0, chunks, rows)
    return simulate(stream, params, engine=engine)


def test_merged_tie_prefers_directive():
    """The replay merges directives ahead of requests at the same nominal
    time: a ``set_RPM`` at exactly request ``k``'s time serves that request
    at the new level (it waits for the transition and is served at 3000
    RPM), where a call one ulp later leaves it at full speed.  Streamed
    over 2-request chunks, request 1 ends the first chunk and request 2
    starts the second, so the tie sits on a chunk edge, and the streamed
    replay matches the whole-trace one.  Both engines agree."""
    for engine in ("stepwise", "segmented"):
        for k in (1, 2):
            t = float(k)
            tied = _tie_run(t, engine, streamed=False)
            later = _tie_run(np.nextafter(t, np.inf), engine, streamed=False)
            assert tied.num_directives == later.num_directives == 1
            # The tie rule moves only the tied request.
            assert tied.request_responses[:k] == later.request_responses[:k]
            full_speed = later.request_responses[k]
            assert full_speed == pytest.approx(later.request_responses[0])
            assert tied.request_responses[k] > 10 * full_speed
            streamed = _tie_run(t, engine, streamed=True)
            assert streamed.num_directives == 1
            assert streamed.execution_time_s == tied.execution_time_s
            assert streamed.disk_stats == tied.disk_stats
            assert streamed.responses.max_s == tied.responses.max_s


def test_with_directives_rejects_unsorted_rows():
    """``with_directives`` checks the order it is given; it does not sort."""
    trace = Trace("t", _layout(), (_req(1.0),), None, 2.0)
    with pytest.raises(TraceError, match="directive 1: time 0.2 precedes"):
        trace.with_directives(_dirs(3.0, 0.2))
    out = trace.with_directives(_dirs(0.2, 3.0))
    assert out.directives["time"].tolist() == [0.2, 3.0]


def test_unsorted_directives_rejected_directly():
    with pytest.raises(TraceError):
        Trace("t", _layout(), (), _dirs(3.0, 0.2), 2.0)


def test_request_validation():
    with pytest.raises(TraceError):
        IORequest(-1.0, "A", 0, 512, False)
    with pytest.raises(TraceError):
        IORequest(0.0, "A", -1, 512, False)
    with pytest.raises(TraceError):
        IORequest(0.0, "A", 0, 0, False)


@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2000),
            max_size=40,
        ),
        max_size=8,
    )
)
def test_parse_trace_never_crashes_uncontrolled(lines):
    """Fuzz: arbitrary text either parses or raises TraceError/LayoutError —
    never an uncontrolled exception."""
    from repro.util.errors import LayoutError

    text = "\n".join(lines)
    try:
        parse_trace(text, _layout())
    except (TraceError, LayoutError):
        pass


def test_parse_trace_block_outside_files_is_trace_error():
    """A block no file owns is malformed input: a TraceError naming the
    line, not the layout's position-less LayoutError."""
    with pytest.raises(TraceError, match="line 1: block 999999 belongs to no file"):
        parse_trace("0.0 999999 512 R", _layout())
