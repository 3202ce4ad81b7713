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
(array, byte-offset) pair exactly — :func:`read_trace` does, enabling
lossless round-trips (modulo directive records, which are an in-memory
concept; the paper's simulator also consumes power calls out-of-band).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from ..layout.files import SubsystemLayout
from ..util.errors import TraceError
from ..util.units import SECTOR_BYTES, ms_to_s, s_to_ms
from .request import IORequest, RequestColumns, Trace, UNKNOWN_POSITION

__all__ = [
    "write_trace",
    "read_trace",
    "read_trace_chunks",
    "stream_trace_file",
    "format_trace",
    "parse_trace",
]

_HEADER_PREFIX = "# repro-trace v1 program="


def format_trace(trace: Trace) -> str:
    """Render a trace in the paper's text format."""
    buf = io.StringIO()
    _write(trace, buf)
    return buf.getvalue()


def _write(trace: Trace, fh: TextIO) -> None:
    fh.write(f"{_HEADER_PREFIX}{trace.program_name}\n")
    fh.write(f"# total_compute_ms={s_to_ms(trace.total_compute_s):.6f}\n")
    for r in trace.requests:
        entry = trace.layout.entry(r.array)
        block = entry.offset_to_block(r.offset)
        kind = "W" if r.is_write else "R"
        fh.write(f"{s_to_ms(r.nominal_time_s):.6f} {block} {r.nbytes} {kind}\n")


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace file to disk."""
    with open(path, "w", encoding="utf-8") as fh:
        _write(trace, fh)


def parse_trace(text: str, layout: SubsystemLayout) -> Trace:
    """Parse the text format back into a :class:`Trace` (requires the same
    layout that produced it, to resolve block numbers to files)."""
    program_name = "trace"
    total_compute_s = 0.0
    requests: list[IORequest] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_HEADER_PREFIX):
                program_name = line[len(_HEADER_PREFIX):].strip()
            elif line.startswith("# total_compute_ms="):
                try:
                    total_compute_s = ms_to_s(float(line.split("=", 1)[1]))
                except ValueError as exc:
                    raise TraceError(f"line {lineno}: {exc}") from exc
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            arrival_ms = float(parts[0])
            block = int(parts[1])
            nbytes = int(parts[2])
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        if parts[3] not in ("R", "W"):
            raise TraceError(f"line {lineno}: bad request type {parts[3]!r}")
        entry = layout.resolve_block(block)
        offset = entry.block_to_offset(block)
        requests.append(
            IORequest(
                nominal_time_s=ms_to_s(arrival_ms),
                array=entry.array_name,
                offset=offset,
                nbytes=nbytes,
                is_write=parts[3] == "W",
            )
        )
    return Trace(
        program_name=program_name,
        layout=layout,
        requests=tuple(requests),
        total_compute_s=total_compute_s,
    )


def read_trace(path: str | Path, layout: SubsystemLayout) -> Trace:
    """Read a trace file written by :func:`write_trace`."""
    return parse_trace(Path(path).read_text(encoding="utf-8"), layout)


# ---------------------------------------------------------------------- #
# Streaming reader — bounded-memory ingestion of large trace files.
# ---------------------------------------------------------------------- #
def read_trace_chunks(
    path: str | Path, layout: SubsystemLayout, chunk_requests: int = 65536
) -> Iterator[RequestColumns]:
    """Read a trace file as successive :class:`RequestColumns` chunks.

    Never holds more than one chunk of parsed requests (plus one file
    line) in memory.  Array ids follow the *layout's* entry order — fixed
    across chunks, as the streamed replay's seek-continuity carry
    requires — rather than :func:`read_trace`'s first-appearance order;
    the resolved per-request fields are identical either way.  The
    ``nest``/``iteration`` columns are not part of the four-field format
    and read back as :data:`~repro.trace.request.UNKNOWN_POSITION` — the
    one shared "no provenance" sentinel, matching :func:`read_trace` and
    the external-trace readers in :mod:`repro.trace.ingest`.
    """
    if chunk_requests <= 0:
        raise TraceError("chunk_requests must be positive")
    names = tuple(e.array_name for e in layout.entries)
    ids = {name: i for i, name in enumerate(names)}

    times: list[float] = []
    aids: list[int] = []
    offs: list[int] = []
    sizes: list[int] = []
    writes: list[bool] = []

    def flush() -> RequestColumns:
        n = len(times)
        cols = RequestColumns(
            nominal_time_s=np.asarray(times, dtype=np.float64),
            array_id=np.asarray(aids, dtype=np.int64),
            offset=np.asarray(offs, dtype=np.int64),
            nbytes=np.asarray(sizes, dtype=np.int64),
            is_write=np.asarray(writes, dtype=bool),
            nest=np.full(n, UNKNOWN_POSITION, dtype=np.int64),
            iteration=np.full(n, UNKNOWN_POSITION, dtype=np.int64),
            array_names=names,
        )
        times.clear(); aids.clear(); offs.clear(); sizes.clear(); writes.clear()
        return cols

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise TraceError(
                    f"line {lineno}: expected 4 fields, got {len(parts)}"
                )
            try:
                arrival_ms = float(parts[0])
                block = int(parts[1])
                nbytes = int(parts[2])
            except ValueError as exc:
                raise TraceError(f"line {lineno}: {exc}") from exc
            if parts[3] not in ("R", "W"):
                raise TraceError(f"line {lineno}: bad request type {parts[3]!r}")
            entry = layout.resolve_block(block)
            times.append(ms_to_s(arrival_ms))
            aids.append(ids[entry.array_name])
            offs.append(entry.block_to_offset(block))
            sizes.append(nbytes)
            writes.append(parts[3] == "W")
            if len(times) >= chunk_requests:
                yield flush()
    if times:
        yield flush()


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

    program_name = "trace"
    total_compute_s = 0.0
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line.startswith("#"):
                break
            if line.startswith(_HEADER_PREFIX):
                program_name = line[len(_HEADER_PREFIX):].strip()
            elif line.startswith("# total_compute_ms="):
                try:
                    total_compute_s = ms_to_s(float(line.split("=", 1)[1]))
                except ValueError as exc:
                    raise TraceError(f"bad total_compute_ms header: {exc}") from exc

    return TraceStream(
        program_name=program_name,
        layout=layout,
        total_compute_s=total_compute_s,
        chunks=lambda: read_trace_chunks(path, layout, chunk_requests),
        directives=(),
    )
