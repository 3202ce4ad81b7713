"""Directive rows from planner to replay.

A directive stream is a :data:`~repro.trace.request.DIRECTIVE_ROW` array.
One validator guards it wherever it enters: a :class:`Trace` or
:class:`TraceStream` at construction, both ``with_directives`` methods, and
the controller's timed rows inside ``simulate``.
"""

import numpy as np
import pytest

from repro.controllers.base import Controller
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.generator import PLACEMENT_ROW
from repro.trace.request import (
    ACT_SET_RPM,
    ACT_SPIN_DOWN,
    ACT_SPIN_UP,
    DIRECTIVE_ROW,
    IORequest,
    Trace,
)
from repro.trace.stream import TraceStream
from repro.util.errors import TraceError
from repro.util.units import KB


def _layout(num_disks=2):
    entry = FileEntry("A", 1024 * KB, Striping(0, num_disks, 64 * KB), 0)
    return SubsystemLayout(num_disks=num_disks, entries=(entry,))


def _requests(times):
    return tuple(IORequest(t, "A", 0, 8 * KB, False) for t in times)


def _valid():
    return np.array(
        [
            (0.5, ACT_SPIN_DOWN, 1, -1, 0.0),
            (1.0, ACT_SET_RPM, 0, 3000, 10.0),
            (2.0, ACT_SPIN_UP, 1, -1, 0.0),
        ],
        dtype=DIRECTIVE_ROW,
    )


def _edit(field, value, row=1):
    def make():
        rows = _valid()
        rows[field][row] = value
        return rows
    return make


# (id, rows factory, message) — each factory breaks one rule of one row.
_BAD = [
    ("nan-time", _edit("time", np.nan, row=2), "2: time nan is not finite"),
    ("inf-time", _edit("time", np.inf, row=2), "2: time inf is not finite"),
    ("negative-time", _edit("time", -1.0, row=0), r"0: time -1.0 is not finite"),
    ("action-high", _edit("action", 3), "1: action code 3 out of range"),
    ("action-negative", _edit("action", -1), "1: action code -1 out of range"),
    ("negative-disk", _edit("disk", -2), "1: negative disk -2"),
    ("set-rpm-zero", _edit("rpm", 0), "1: set_RPM needs a positive rpm level, got 0"),
    ("set-rpm-none", _edit("rpm", -1), "1: set_RPM needs a positive rpm level, got -1"),
    ("spin-down-rpm", _edit("rpm", 3000, row=0), "0: spin_down/spin_up take no rpm level"),
    ("spin-up-rpm", _edit("rpm", 3000, row=2), "2: spin_down/spin_up take no rpm level"),
    ("out-of-order", _edit("time", 0.25), "1: time 0.25 precedes the previous row's"),
    ("wrong-dtype", lambda: np.zeros(2, PLACEMENT_ROW), "1-D DIRECTIVE_ROW array"),
    ("not-an-array", lambda: [(0.5, ACT_SPIN_DOWN, 1, -1, 0.0)], "1-D DIRECTIVE_ROW array"),
]


@pytest.mark.parametrize(
    "make, message", [case[1:] for case in _BAD], ids=[case[0] for case in _BAD]
)
def test_directive_rows_validated_wherever_they_enter(make, message):
    """One validator, one message, naming the row — for trace and timed
    directives, whole and streamed.  Timed rows are sorted before they
    are checked, so an out-of-order timed stream is not an error."""
    assert _valid().size == 3  # the unedited rows pass everywhere
    lay = _layout()
    trace = Trace("t", lay, _requests([0.0, 1.5]), None, 3.0)
    stream = TraceStream("t", lay, 3.0, lambda: iter(()))
    attach = (
        lambda rows: Trace("t", lay, _requests([0.0]), rows, 3.0),
        lambda rows: TraceStream("t", lay, 3.0, lambda: iter(()), rows),
        trace.with_directives,
        stream.with_directives,
    )
    for entry in attach:
        entry(_valid())
        with pytest.raises(TraceError, match=f"^directive.*{message}"):
            entry(make())

    class Timed(Controller):
        def timed_directives(self):
            return make()

    params = SubsystemParams(num_disks=2)
    if "precedes" in message:
        assert simulate(trace, params, Timed()).num_directives == 3
        return
    with pytest.raises(TraceError, match=f"^timed directive.*{message}"):
        simulate(trace, params, Timed())


def test_timed_rows_are_sorted_before_they_are_checked():
    """The controller's timed rows may come in any order: ``simulate``
    sorts them stably, so only a broken row is rejected."""

    class Unsorted(Controller):
        def timed_directives(self):
            return _valid()[::-1].copy()

    trace = Trace("t", _layout(), _requests([0.0, 1.5]), None, 3.0)
    params = SubsystemParams(num_disks=2)
    res = simulate(trace, params, Unsorted())
    assert res.num_directives == 3
