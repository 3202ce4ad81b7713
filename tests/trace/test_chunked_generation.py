"""Chunked/streaming trace generation ⇔ the per-line reference walk.

`generate_trace_chunks` must concatenate to exactly
`generate_trace_reference`'s requests — same requests, same buffer-cache
hit/miss counters — for every chunk size and cache regime, because the
streamed replay's bit-identity guarantee rests on the request sequence
being chunking-invariant.  (`generate_trace` joins these same chunks, so
it cannot serve as their oracle.)
`stream_trace` must additionally be *re-iterable* (each pass regenerates
the identical chunks from a fresh carried cache state), and the trace-file
streaming reader must round-trip what `write_trace` wrote.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import programs  # noqa: E402

from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.layout.files import default_layout
from repro.trace.generator import (
    TraceOptions,
    generate_trace,
    generate_trace_chunks,
    generate_trace_reference,
    stream_trace,
)
from repro.trace.request import RequestColumns
from repro.trace.stream import TraceStream
from repro.trace.tracefile import (
    read_trace,
    read_trace_chunks,
    stream_trace_file,
    write_trace,
)
from repro.util.errors import TraceError
from repro.workloads import all_workloads

_SLOW_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_COLUMN_FIELDS = (
    "nominal_time_s",
    "array_id",
    "offset",
    "nbytes",
    "is_write",
    "nest",
    "iteration",
)


def _concat(chunks) -> RequestColumns | None:
    chunks = list(chunks)
    if not chunks:
        return None
    return RequestColumns(
        array_names=chunks[0].array_names,
        **{
            f: np.concatenate([getattr(c, f) for c in chunks])
            for f in _COLUMN_FIELDS
        },
    )


def _assert_columns_identical(a: RequestColumns, b: RequestColumns) -> None:
    assert a.array_names == b.array_names
    assert len(a) == len(b)
    for f in _COLUMN_FIELDS:
        fa, fb = getattr(a, f), getattr(b, f)
        assert fa.dtype == fb.dtype, f
        assert np.array_equal(fa, fb), f


def _assert_matches_reference(got: RequestColumns, ref: RequestColumns) -> None:
    """Every column bit-identical; array ids may be numbered differently
    (the reference numbers arrays in order of first request), so names
    are compared resolved."""
    assert len(got) == len(ref)
    for f in _COLUMN_FIELDS:
        fa, fb = getattr(got, f), getattr(ref, f)
        assert fa.dtype == fb.dtype, f
        if f != "array_id":
            assert np.array_equal(fa, fb), f
    assert np.array_equal(
        got.array_name_per_request(), ref.array_name_per_request()
    )


# --------------------------------------------------------------------- #
# Property: chunked == whole for random programs × cache regimes × sizes.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_chunked_generation_bit_identical(data):
    program = data.draw(programs())
    line = data.draw(st.sampled_from([16, 64, 256]))
    cap_lines = data.draw(st.sampled_from([0, 2, 1 << 20]))
    opts = TraceOptions(
        buffer_cache_bytes=cap_lines * line,
        cache_line_bytes=line,
        max_request_bytes=data.draw(st.sampled_from([32, 4096])),
    )
    layout = default_layout(
        program.arrays, num_disks=data.draw(st.sampled_from([1, 4]))
    )
    chunk_requests = data.draw(st.sampled_from([1, 7, 64, 65536]))

    ref_stats: dict = {}
    ref = generate_trace_reference(program, layout, opts, stats=ref_stats)
    chunk_stats: dict = {}
    chunks = list(
        generate_trace_chunks(
            program, layout, opts,
            chunk_requests=chunk_requests, stats=chunk_stats,
        )
    )
    # The chunk-size contract: every chunk but the last is exactly full.
    for c in chunks[:-1]:
        assert len(c) == chunk_requests
    if chunks:
        assert 0 < len(chunks[-1]) <= chunk_requests
    got = _concat(chunks)
    if got is None:
        assert ref.num_requests == 0
    else:
        _assert_matches_reference(got, ref.columns)
    assert chunk_stats == ref_stats  # cache hits/misses fold exactly


@pytest.mark.parametrize("workload", all_workloads()[:2], ids=lambda w: w.name)
def test_bundled_workload_chunked_identical(workload):
    """Two real Table 2 workloads through an awkward chunk size."""
    layout = default_layout(workload.program.arrays, num_disks=4)
    ref = generate_trace_reference(
        workload.program, layout, workload.trace_options
    )
    got = _concat(
        generate_trace_chunks(
            workload.program, layout, workload.trace_options,
            chunk_requests=1000,
        )
    )
    _assert_matches_reference(got, ref.columns)


# --------------------------------------------------------------------- #
# stream_trace: re-iterability and argument validation.
# --------------------------------------------------------------------- #
def test_stream_trace_is_reiterable(tiny_program, tiny_layout, small_trace_options):
    stream = stream_trace(
        tiny_program, tiny_layout, small_trace_options, chunk_requests=64
    )
    first = _concat(stream.iter_chunks())
    second = _concat(stream.iter_chunks())
    _assert_columns_identical(first, second)
    whole = generate_trace(tiny_program, tiny_layout, small_trace_options)
    _assert_columns_identical(first, whole.columns)
    assert stream.total_compute_s == whole.total_compute_s
    assert stream.program_name == whole.program_name


def test_chunk_requests_must_be_positive(tiny_program, tiny_layout):
    with pytest.raises(TraceError, match="chunk_requests"):
        list(generate_trace_chunks(tiny_program, tiny_layout, chunk_requests=0))


def test_one_shot_stream_guard(tiny_program, tiny_layout, small_trace_options):
    """A TraceStream built from a plain iterable refuses a second pass
    with an actionable error instead of silently yielding nothing."""
    chunks = list(
        generate_trace_chunks(
            tiny_program, tiny_layout, small_trace_options, chunk_requests=64
        )
    )
    stream = TraceStream(
        tiny_program.name, tiny_layout, 0.0, chunks=iter(chunks)
    )
    assert _concat(stream.iter_chunks()) is not None
    with pytest.raises(TraceError, match="one-shot"):
        stream.iter_chunks()


def test_with_directives_rejects_unordered_construction(tiny_layout):
    with pytest.raises(TraceError, match="ordered"):
        TraceStream(
            "p", tiny_layout, 0.0, chunks=lambda: iter(()),
            directives=_two_directives(reverse=True),
        )


def _two_directives(reverse: bool = False):
    from repro.ir.nodes import PowerAction, PowerCall
    from repro.trace.request import DirectiveRecord

    records = (
        DirectiveRecord(0.5, PowerCall(PowerAction.SPIN_DOWN, disk=0)),
        DirectiveRecord(1.5, PowerCall(PowerAction.SPIN_UP, disk=0)),
    )
    return records[::-1] if reverse else records


# --------------------------------------------------------------------- #
# Trace-file streaming reader.
# --------------------------------------------------------------------- #
def test_tracefile_chunked_read_matches_whole(
    tmp_path, tiny_program, tiny_layout, small_trace_options
):
    trace = generate_trace(tiny_program, tiny_layout, small_trace_options)
    path = tmp_path / "t.trace"
    write_trace(trace, path)

    whole = read_trace(path, tiny_layout)
    got = _concat(read_trace_chunks(path, tiny_layout, chunk_requests=17))
    assert got is not None
    assert len(got) == whole.num_requests
    # The chunked reader fixes array-id order to the layout's entry order,
    # so compare the resolved per-request fields, not the raw id columns.
    assert got.materialize() == whole.requests

    streamed = stream_trace_file(path, tiny_layout, chunk_requests=17)
    assert streamed.program_name == tiny_program.name
    params = SubsystemParams(num_disks=tiny_layout.num_disks)
    res_s = simulate(streamed, params, engine="segmented")
    res_w = simulate(whole, params, engine="stepwise")
    assert res_s.execution_time_s == res_w.execution_time_s
    assert res_s.disk_stats == res_w.disk_stats
    assert res_s.num_requests == res_w.num_requests


def test_tracefile_chunked_read_rejects_bad_lines(tmp_path, tiny_layout):
    path = tmp_path / "bad.trace"
    path.write_text("0.0 0 8192\n")  # 3 fields, not 4
    with pytest.raises(TraceError, match="expected 4 fields"):
        list(read_trace_chunks(path, tiny_layout))
