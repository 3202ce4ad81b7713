"""Trace file round-trips in the paper's four-field format, and the one
line parser behind the whole and the chunked readers."""

import numpy as np
import pytest

from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.layout.files import default_layout
from repro.trace.generator import generate_trace
from repro.trace.request import IORequest, RequestColumns, Trace
from repro.trace.tracefile import (
    format_trace,
    parse_trace,
    read_trace,
    read_trace_chunks,
    stream_trace_file,
    write_trace,
)
from repro.util.errors import LayoutError, TraceError
from repro.util.units import KB, s_to_ms
from repro.ir.builder import ProgramBuilder


def _trace():
    b = ProgramBuilder("p")
    A = b.array("A", (8, 1024))
    B = b.array("B", (8, 1024))
    with b.nest("i", 0, 8) as i:
        with b.loop("j", 0, 1024) as j:
            b.stmt(reads=[A[i, j]], writes=[B[i, j]], cycles=100)
    prog = b.build()
    lay = default_layout(prog.arrays, num_disks=4)
    return generate_trace(prog, lay)


def test_format_contains_paper_fields():
    trace = _trace()
    text = format_trace(trace)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == trace.num_requests
    first = lines[0].split()
    assert len(first) == 4
    float(first[0])  # arrival ms
    int(first[1])  # start block
    int(first[2])  # size
    assert first[3] in ("R", "W")


def test_round_trip_preserves_requests():
    trace = _trace()
    back = parse_trace(format_trace(trace), trace.layout)
    assert back.program_name == trace.program_name
    assert back.num_requests == trace.num_requests
    assert back.total_compute_s == pytest.approx(trace.total_compute_s)
    for a, b in zip(trace.requests, back.requests):
        assert (a.array, a.offset, a.nbytes, a.is_write) == (
            b.array,
            b.offset,
            b.nbytes,
            b.is_write,
        )
        assert b.nominal_time_s == pytest.approx(a.nominal_time_s, abs=1e-6)


def test_file_round_trip(tmp_path):
    trace = _trace()
    path = tmp_path / "trace.txt"
    write_trace(trace, path)
    back = read_trace(path, trace.layout)
    assert back.num_requests == trace.num_requests


def test_block_numbers_are_global(tmp_path):
    """B's blocks start after A's, so request lines disambiguate files."""
    trace = _trace()
    text = format_trace(trace)
    blocks = [int(l.split()[1]) for l in text.splitlines() if not l.startswith("#")]
    a_blocks = trace.layout.entry("A").block_range
    b_blocks = trace.layout.entry("B").block_range
    assert any(a_blocks[0] <= b < a_blocks[1] for b in blocks)
    assert any(b_blocks[0] <= b < b_blocks[1] for b in blocks)


def test_format_equals_per_request_rendering():
    """The columnar writer prints exactly what a per-request loop over
    ``IORequest`` objects and ``offset_to_block`` prints."""
    trace = _trace()
    expected = [
        f"{s_to_ms(r.nominal_time_s):.6f} "
        f"{trace.layout.entry(r.array).offset_to_block(r.offset)} "
        f"{r.nbytes} {'W' if r.is_write else 'R'}"
        for r in trace.requests
    ]
    lines = format_trace(trace).splitlines()
    assert lines[2:] == expected


def test_format_builds_no_request_objects(monkeypatch):
    """Writing a generated trace reads its columns: no ``IORequest`` is
    constructed."""
    trace = _trace()
    built = []
    original = IORequest.__post_init__

    def spy(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(IORequest, "__post_init__", spy)
    text = format_trace(trace)
    assert len(text.splitlines()) == trace.num_requests + 2
    assert built == []


def test_format_rejects_offset_outside_its_file():
    trace = _trace()
    size = trace.layout.entry("B").size_bytes
    bad = Trace(
        "t",
        trace.layout,
        (
            IORequest(0.0, "A", 0, 512, False),
            IORequest(1.0, "B", size, 512, True),
        ),
    )
    with pytest.raises(LayoutError, match=f"offset {size} outside file 'B'"):
        format_trace(bad)


def test_parse_rejects_malformed():
    trace = _trace()
    with pytest.raises(TraceError, match="4 fields"):
        parse_trace("1.0 2 3", trace.layout)
    with pytest.raises(TraceError, match="request type"):
        parse_trace("1.0 0 512 X", trace.layout)
    with pytest.raises(TraceError):
        parse_trace("abc 0 512 R", trace.layout)


def test_trace_ordering_enforced():
    trace = _trace()
    with pytest.raises(TraceError, match="ordered"):
        Trace(
            "t",
            trace.layout,
            (
                IORequest(2.0, "A", 0, 512, False),
                IORequest(1.0, "A", 0, 512, False),
            ),
        )


# --------------------------------------------------------------------- #
# Whole and chunked reads: one parser, one set of accepted files.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("chunk_requests", [1, 7, 64])
def test_chunked_read_equals_whole_read(tmp_path, chunk_requests):
    trace = _trace()
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    whole = read_trace(path, trace.layout).columns
    chunks = list(read_trace_chunks(path, trace.layout, chunk_requests))
    assert all(len(c) == chunk_requests for c in chunks[:-1])
    got = RequestColumns.concat(chunks, whole.array_names)
    assert got.array_names == whole.array_names
    for name in ("nominal_time_s", "array_id", "offset", "nbytes",
                 "is_write", "nest", "iteration"):
        a, b = getattr(got, name), getattr(whole, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


_HEADER = "# repro-trace v1 program=p\n# total_compute_ms=5.0\n"


def test_backwards_arrival_across_chunks_is_rejected(tmp_path):
    """Arrivals 2.0 then 1.0 ms, one request per chunk: each chunk alone
    is ordered, so only an order check carried across chunks sees it."""
    trace = _trace()
    path = tmp_path / "back.trace"
    path.write_text(_HEADER + "2.0 0 512 R\n1.0 0 512 R\n")
    with pytest.raises(TraceError, match="line 4: .*ordered"):
        list(read_trace_chunks(path, trace.layout, chunk_requests=1))
    stream = stream_trace_file(path, trace.layout, chunk_requests=1)
    params = SubsystemParams(num_disks=trace.layout.num_disks)
    with pytest.raises(TraceError, match="line 4"):
        simulate(stream, params, open_loop=True)


def _bad_lines(layout):
    a = layout.entry("A")
    past_end = a.block_range[1] - 1
    nowhere = layout.entries[-1].block_range[1] + 10
    return {
        "block-in-no-file": (f"0.5 {nowhere} 512 R", "belongs to no file"),
        "zero-size": ("0.5 0 0 R", "size must be positive"),
        "negative-size": ("0.5 0 -512 W", "size must be positive"),
        "negative-arrival": ("-0.5 0 512 R", "non-negative"),
        "extent-past-end": (f"0.5 {past_end} 65536 R", "past the end"),
    }


def _parse_whole(text, layout, path):
    return parse_trace(text, layout)


def _parse_chunked(text, layout, path):
    path.write_text(text)
    return list(read_trace_chunks(path, layout, chunk_requests=1))


@pytest.mark.parametrize("reader", [_parse_whole, _parse_chunked],
                         ids=["parse_trace", "read_trace_chunks"])
@pytest.mark.parametrize("case", sorted(_bad_lines(_trace().layout)))
def test_bad_request_line_names_its_line(tmp_path, reader, case):
    """Each malformed request is a TraceError naming its line (line 4:
    two header lines and one good request come first), in both reads."""
    layout = _trace().layout
    line, message = _bad_lines(layout)[case]
    text = _HEADER + "0.0 0 512 R\n" + line + "\n"
    with pytest.raises(TraceError, match=f"line 4: .*{message}"):
        reader(text, layout, tmp_path / "bad.trace")


# --------------------------------------------------------------------- #
# The shared unknown-provenance sentinel.
# --------------------------------------------------------------------- #
def test_unknown_position_sentinel_is_unified(tmp_path):
    """Every source of requests without loop-nest provenance — streamed
    trace-file reads, ingested recorded traces, synthetic workloads, and
    bare :class:`IORequest` defaults — uses the one documented
    :data:`repro.trace.request.UNKNOWN_POSITION` sentinel (regression:
    these used to hard-code ``-1`` independently)."""
    import numpy as np

    import repro.trace as trace_pkg
    from repro.trace.ingest import ingest_trace, write_text_records
    from repro.trace.request import UNKNOWN_POSITION
    from repro.trace.synth import SynthConfig, synth_trace
    from repro.trace.tracefile import read_trace_chunks, stream_trace_file

    assert UNKNOWN_POSITION == -1
    assert trace_pkg.UNKNOWN_POSITION is UNKNOWN_POSITION

    # Bare IORequest: unknown provenance by default.
    req = IORequest(0.0, "A", 0, 512, False)
    assert req.nest == UNKNOWN_POSITION
    assert req.iteration == UNKNOWN_POSITION

    # Streamed trace-file reads (the four-field format drops provenance).
    trace = _trace()
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    for cols in read_trace_chunks(path, trace.layout, chunk_requests=64):
        assert (cols.nest == UNKNOWN_POSITION).all()
        assert (cols.iteration == UNKNOWN_POSITION).all()
    stream = stream_trace_file(path, trace.layout, chunk_requests=64)
    chunk = next(iter(stream.iter_chunks()))
    assert (chunk.nest == UNKNOWN_POSITION).all()

    # Ingested recorded traces.
    rec_path = tmp_path / "r.trace"
    write_text_records(
        rec_path, [(0.0, 0, 0, 512, False), (1.0, 1, 16, 4096, True)]
    )
    cols = ingest_trace(rec_path, num_disks=2).columns
    assert (cols.nest == UNKNOWN_POSITION).all()
    assert (cols.iteration == UNKNOWN_POSITION).all()
    assert cols.nest.dtype == np.int64

    # Synthetic workloads.
    cols = synth_trace(SynthConfig(num_requests=32, num_disks=2)).columns
    assert (cols.nest == UNKNOWN_POSITION).all()
    assert (cols.iteration == UNKNOWN_POSITION).all()
