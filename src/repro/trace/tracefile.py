"""Trace file I/O in the paper's four-field format.

Paper §4.1: *"Each I/O request is composed of the four parameters: request
arrival time (in milliseconds), start block number, request size (in
bytes), and request type (read or write)."*  We serialize exactly that,
one request per line::

    # repro-trace v1 program=swim
    0.000000 0 65536 R
    10.250000 128 65536 W

Start blocks are global sector numbers assigned by the
:class:`~repro.layout.files.SubsystemLayout` (each array's file owns a
disjoint block range), so a reader holding the same layout can recover the
(array, byte-offset) pair exactly, enabling lossless round-trips (modulo
directive records, which are an in-memory concept; the paper's simulator
also consumes power calls out-of-band).

Reading has one header reader (the leading ``#`` lines) and one chunk
parser (request lines to :class:`~repro.trace.request.RequestColumns`).
The whole readers (:func:`parse_trace`, :func:`read_trace`) join the
parser's chunks; the streamed ones (:func:`read_trace_chunks`,
:func:`stream_trace_file`) yield them.  Every request line is checked as
it is parsed, against the previous line across chunk boundaries too, and a
bad one raises :class:`~repro.util.errors.TraceError` naming its line — so
a whole read and a chunked read accept exactly the same files and produce
the same requests.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from ..layout.files import SubsystemLayout
from ..util.errors import LayoutError, TraceError
from ..util.units import SECTOR_BYTES, ms_to_s, s_to_ms
from .request import _ORDER_TOL, RequestColumns, Trace, UNKNOWN_POSITION

__all__ = [
    "write_trace",
    "read_trace",
    "read_trace_chunks",
    "stream_trace_file",
    "format_trace",
    "parse_trace",
]

_HEADER_PREFIX = "# repro-trace v1 program="
_COMPUTE_PREFIX = "# total_compute_ms="


def format_trace(trace: Trace) -> str:
    """Render a trace in the paper's text format."""
    buf = io.StringIO()
    _write(trace, buf)
    return buf.getvalue()


def _write(trace: Trace, fh: TextIO) -> None:
    fh.write(f"{_HEADER_PREFIX}{trace.program_name}\n")
    fh.write(f"{_COMPUTE_PREFIX}{s_to_ms(trace.total_compute_s):.6f}\n")
    cols = trace.columns
    entries = {
        int(i): trace.layout.entry(cols.array_names[i])
        for i in np.unique(cols.array_id)
    }
    base = np.zeros(len(cols.array_names), dtype=np.int64)
    size = np.zeros(len(cols.array_names), dtype=np.int64)
    for i, entry in entries.items():
        base[i], size[i] = entry.base_block, entry.size_bytes
    bad = (cols.offset < 0) | (cols.offset >= size[cols.array_id])
    if bad.any():
        # The first out-of-file row raises the per-offset LayoutError.
        i = int(np.argmax(bad))
        entries[int(cols.array_id[i])].offset_to_block(int(cols.offset[i]))
    blocks = base[cols.array_id] + cols.offset // SECTOR_BYTES
    fh.writelines(
        f"{t:.6f} {block} {nbytes} {'W' if w else 'R'}\n"
        for t, block, nbytes, w in zip(
            s_to_ms(cols.nominal_time_s).tolist(),
            blocks.tolist(),
            cols.nbytes.tolist(),
            cols.is_write.tolist(),
        )
    )


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace file to disk."""
    with open(path, "w", encoding="utf-8") as fh:
        _write(trace, fh)


def _read_header(lines: Iterable[str]) -> tuple[str, float]:
    """``(program name, total compute seconds)`` from the comment lines
    before the first request line."""
    program_name = "trace"
    total_compute_s = 0.0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            break
        if line.startswith(_HEADER_PREFIX):
            program_name = line[len(_HEADER_PREFIX):].strip()
        elif line.startswith(_COMPUTE_PREFIX):
            try:
                total_compute_s = ms_to_s(float(line[len(_COMPUTE_PREFIX):]))
            except ValueError as exc:
                raise TraceError(
                    f"line {lineno}: bad total_compute_ms header: {exc}"
                ) from exc
    return program_name, total_compute_s


def _parse_chunks(
    lines: Iterable[str], layout: SubsystemLayout, chunk_requests: int = 65536
) -> Iterator[RequestColumns]:
    """Parse request lines into chunks of ``chunk_requests`` rows (the
    last may be shorter); comment and blank lines are skipped.

    Each line must hold four fields: a finite, non-negative arrival no
    earlier than the previous line's, a block inside some file of
    ``layout``, a positive size whose extent ends inside that file, and
    ``R`` or ``W``.  Array ids follow the layout's entry order, fixed
    across chunks as the streamed replay's seek-continuity carry requires.
    The ``nest``/``iteration`` columns are not part of the four-field
    format and read back as :data:`~repro.trace.request.UNKNOWN_POSITION`.
    """
    if chunk_requests <= 0:
        raise TraceError("chunk_requests must be positive")
    names = tuple(e.array_name for e in layout.entries)
    ids = {name: i for i, name in enumerate(names)}
    rows: list[tuple[float, int, int, int, bool]] = []
    prev = 0.0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            arrival_s = ms_to_s(float(parts[0]))
            block = int(parts[1])
            nbytes = int(parts[2])
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        if parts[3] not in ("R", "W"):
            raise TraceError(f"line {lineno}: bad request type {parts[3]!r}")
        if not 0.0 <= arrival_s < math.inf:
            raise TraceError(
                f"line {lineno}: arrival {parts[0]} ms is not a finite "
                "non-negative time"
            )
        if arrival_s - prev < -_ORDER_TOL:
            raise TraceError(
                f"line {lineno}: arrival {parts[0]} ms precedes the previous "
                "request's; requests must be ordered by arrival time"
            )
        if nbytes <= 0:
            raise TraceError(
                f"line {lineno}: request size must be positive, got {nbytes}"
            )
        try:
            entry = layout.resolve_block(block)
        except LayoutError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        offset = entry.block_to_offset(block)
        if offset + nbytes > entry.size_bytes:
            raise TraceError(
                f"line {lineno}: {nbytes} bytes at block {block} run past the "
                f"end of file {entry.array_name!r} ({entry.size_bytes} bytes)"
            )
        rows.append((arrival_s, ids[entry.array_name], offset, nbytes, parts[3] == "W"))
        prev = arrival_s
        if len(rows) == chunk_requests:
            yield _columns(rows, names)
            rows = []
    if rows:
        yield _columns(rows, names)


def _columns(rows: list[tuple], names: tuple[str, ...]) -> RequestColumns:
    """One chunk's rows as columns; :func:`_parse_chunks` checked them."""
    times, aids, offsets, sizes, writes = zip(*rows)
    unknown = np.full(len(rows), UNKNOWN_POSITION, dtype=np.int64)
    return RequestColumns(
        times, aids, offsets, sizes, writes, unknown, unknown, names,
        validate=False,
    )


def parse_trace(text: str, layout: SubsystemLayout) -> Trace:
    """Parse the text format back into a :class:`Trace` (requires the same
    layout that produced it, to resolve block numbers to files)."""
    lines = text.splitlines()
    program_name, total_compute_s = _read_header(lines)
    return Trace(
        program_name=program_name,
        layout=layout,
        total_compute_s=total_compute_s,
        columns=RequestColumns.concat(
            list(_parse_chunks(lines, layout)),
            tuple(e.array_name for e in layout.entries),
        ),
    )


def read_trace(path: str | Path, layout: SubsystemLayout) -> Trace:
    """Read a trace file written by :func:`write_trace`."""
    return parse_trace(Path(path).read_text(encoding="utf-8"), layout)


def read_trace_chunks(
    path: str | Path, layout: SubsystemLayout, chunk_requests: int = 65536
) -> Iterator[RequestColumns]:
    """Read a trace file as successive :class:`RequestColumns` chunks,
    never holding more than one chunk of parsed requests (plus one file
    line) in memory.  The chunks join to :func:`read_trace`'s columns."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from _parse_chunks(fh, layout, chunk_requests)


def stream_trace_file(
    path: str | Path, layout: SubsystemLayout, chunk_requests: int = 65536
):
    """Open a trace file as a re-iterable
    :class:`~repro.trace.stream.TraceStream`.

    The header (program name, total compute time) is read eagerly; the
    request chunks are re-parsed from disk on every pass, so peak memory
    stays bounded by ``chunk_requests`` regardless of file size.
    """
    from .stream import TraceStream

    with open(path, "r", encoding="utf-8") as fh:
        program_name, total_compute_s = _read_header(fh)
    return TraceStream(
        program_name=program_name,
        layout=layout,
        total_compute_s=total_compute_s,
        chunks=lambda: read_trace_chunks(path, layout, chunk_requests),
    )
