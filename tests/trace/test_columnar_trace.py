"""Columnar request storage: sharing, laziness, validation, round trips."""

import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, RequestColumns, Trace
from repro.ir.nodes import PowerAction, PowerCall
from repro.util.errors import TraceError
from repro.util.units import KB

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import directive_rows  # noqa: E402


def _layout():
    return SubsystemLayout(
        num_disks=2,
        entries=(
            FileEntry("A", 256 * KB, Striping(0, 2, 64 * KB), 0),
            FileEntry("B", 256 * KB, Striping(0, 2, 64 * KB), 512),
        ),
    )


def _requests():
    return (
        IORequest(0.0, "A", 0, 512, False, nest=0, iteration=0),
        IORequest(0.5, "B", 8192, 1024, True, nest=0, iteration=1),
        IORequest(1.5, "A", 4096, 512, False, nest=1, iteration=0),
    )


def _trace():
    return Trace("t", _layout(), _requests(), None, 5.0)


def _directives(*times):
    return directive_rows(
        *((t, PowerCall(PowerAction.SPIN_DOWN, 0)) for t in times)
    )


def test_object_round_trip_and_columns():
    reqs = _requests()
    tr = Trace("t", _layout(), reqs, None, 5.0)
    assert tr.requests == reqs
    assert tr.num_requests == 3
    cols = tr.columns
    assert cols.nominal_time_s.tolist() == [0.0, 0.5, 1.5]
    assert cols.offset.tolist() == [0, 8192, 4096]
    assert cols.nbytes.tolist() == [512, 1024, 512]
    assert cols.is_write.tolist() == [False, True, False]
    assert tr.request_nests.tolist() == [0, 0, 1]
    assert tr.request_times.tolist() == [0.0, 0.5, 1.5]
    assert cols.array_name_per_request().tolist() == ["A", "B", "A"]


def test_with_directives_shares_columns_and_objects():
    tr = _trace()
    derived = tr.with_directives(_directives(0.25))
    assert derived.columns is tr.columns
    # Materialization is cached on the shared columns: every copy sees the
    # exact same object tuple, built at most once.
    assert derived.requests is tr.requests
    assert derived.directives.tolist() == _directives(0.25).tolist()
    assert tr.directives.size == 0
    assert derived != tr
    assert derived == tr.with_directives(_directives(0.25))


def test_total_bytes_cached():
    tr = _trace()
    assert tr.total_bytes == 512 + 1024 + 512
    assert tr.columns._total_bytes == 2048  # computed once, then cached
    assert tr.total_bytes == 2048


def test_validation_rejects_bad_columns():
    with pytest.raises(TraceError):
        RequestColumns(
            nominal_time_s=[1.0, 0.0],  # regressing times
            array_id=[0, 0],
            offset=[0, 0],
            nbytes=[1, 1],
            is_write=[False, False],
            nest=[0, 0],
            iteration=[0, 0],
            array_names=("A",),
        )
    with pytest.raises(TraceError):
        RequestColumns(
            nominal_time_s=[0.0],
            array_id=[0],
            offset=[-1],  # negative offset
            nbytes=[1],
            is_write=[False],
            nest=[0],
            iteration=[0],
            array_names=("A",),
        )
    with pytest.raises(TraceError):
        RequestColumns(
            nominal_time_s=[0.0],
            array_id=[0],
            offset=[0],
            nbytes=[0],  # empty request
            is_write=[False],
            nest=[0],
            iteration=[0],
            array_names=("A",),
        )
    with pytest.raises(TraceError):
        RequestColumns(
            nominal_time_s=[0.0],
            array_id=[1],  # id beyond the name table
            offset=[0],
            nbytes=[1],
            is_write=[False],
            nest=[0],
            iteration=[0],
            array_names=("A",),
        )


def test_requests_and_columns_are_mutually_exclusive():
    with pytest.raises(TraceError):
        Trace(
            "t",
            _layout(),
            _requests(),
            None,
            5.0,
            columns=RequestColumns.from_requests(_requests()),
        )


def test_equality_across_different_id_spaces():
    """Two column sets naming the same per-request arrays are equal even if
    their id tables were built in different orders."""
    a = RequestColumns(
        nominal_time_s=[0.0, 1.0],
        array_id=[0, 1],
        offset=[0, 0],
        nbytes=[8, 8],
        is_write=[False, False],
        nest=[0, 0],
        iteration=[0, 0],
        array_names=("A", "B"),
    )
    b = RequestColumns(
        nominal_time_s=[0.0, 1.0],
        array_id=[1, 0],
        offset=[0, 0],
        nbytes=[8, 8],
        is_write=[False, False],
        nest=[0, 0],
        iteration=[0, 0],
        array_names=("B", "A"),
    )
    assert a == b
    c = RequestColumns(
        nominal_time_s=[0.0, 1.0],
        array_id=[0, 0],
        offset=[0, 0],
        nbytes=[8, 8],
        is_write=[False, False],
        nest=[0, 0],
        iteration=[0, 0],
        array_names=("A", "B"),
    )
    assert a != c


def test_pickle_drops_materialized_objects():
    tr = _trace()
    _ = tr.requests  # force materialization
    assert tr.columns._objects is not None
    rt = pickle.loads(pickle.dumps(tr))
    assert rt.columns._objects is None  # compact on the wire
    assert rt == tr
    assert rt.requests == tr.requests  # re-materializes on demand


def test_directive_ordering_still_validated():
    with pytest.raises(TraceError):
        Trace("t", _layout(), _requests(), _directives(1.0, 0.0), 5.0)
