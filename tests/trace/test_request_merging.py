"""Trace record merging semantics and trace-file robustness."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.nodes import PowerAction, PowerCall
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import DirectiveRecord, IORequest, Trace
from repro.trace.tracefile import parse_trace
from repro.util.errors import TraceError
from repro.util.units import KB


def _layout():
    return SubsystemLayout(
        num_disks=2, entries=(FileEntry("A", 256 * KB, Striping(0, 2, 64 * KB), 0),)
    )


def _req(t):
    return IORequest(t, "A", 0, 512, False)


def _dir(t, disk=0):
    return DirectiveRecord(t, PowerCall(PowerAction.SPIN_DOWN, disk))


def test_merged_orders_by_time():
    trace = Trace(
        "t",
        _layout(),
        ( _req(1.0), _req(3.0) ),
        ( _dir(0.5), _dir(2.0), _dir(4.0) ),
        total_compute_s=5.0,
    )
    kinds = [
        "D" if isinstance(r, DirectiveRecord) else "R" for r in trace.merged()
    ]
    assert kinds == ["D", "R", "D", "R", "D"]


def test_merged_tie_prefers_directive():
    trace = Trace("t", _layout(), (_req(1.0),), (_dir(1.0),), 2.0)
    first, second = list(trace.merged())
    assert isinstance(first, DirectiveRecord)
    assert isinstance(second, IORequest)


def test_with_directives_sorts():
    trace = Trace("t", _layout(), (_req(1.0),), (), 2.0)
    out = trace.with_directives([_dir(3.0), _dir(0.2)])
    times = [d.nominal_time_s for d in out.directives]
    assert times == [0.2, 3.0]


def test_unsorted_directives_rejected_directly():
    with pytest.raises(TraceError):
        Trace("t", _layout(), (), (_dir(3.0), _dir(0.2)), 2.0)


def test_request_validation():
    with pytest.raises(TraceError):
        IORequest(-1.0, "A", 0, 512, False)
    with pytest.raises(TraceError):
        IORequest(0.0, "A", -1, 512, False)
    with pytest.raises(TraceError):
        IORequest(0.0, "A", 0, 0, False)
    with pytest.raises(TraceError):
        DirectiveRecord(-0.1, PowerCall(PowerAction.SPIN_UP, 0))


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
