"""External block-I/O trace ingestion.

The repro traces are *generated* from the paper's loop nests; this module
ingests *recorded* traces instead — the bursty, irregular request streams a
real desktop/server disk produces — and normalizes them into the exact
columnar representation (:class:`~repro.trace.request.RequestColumns` /
:class:`~repro.trace.request.Trace`) the replay engines already consume, so
every downstream path (both engines, the streamed bounded-memory replay,
caching, observability) works unchanged.

Two on-disk formats are supported:

* **text** — one request per line, blkparse/CSV style, five
  whitespace- or comma-separated fields::

      # arrival_s device lba nbytes kind
      0.000000 0 2048 8192 R
      0.004210 1 7340032 4096 W

  ``arrival_s`` is the recorded arrival time in seconds, ``device`` the
  originating block device index, ``lba`` the 512-byte logical block
  address, ``nbytes`` the request size, and ``kind`` is ``R`` or ``W``.
  Blank lines and ``#`` comments are skipped.

* **binary** — a packed little-endian stream: the 8-byte magic
  ``RBLKIO1\\n``, a ``<Q`` record count, then one 29-byte
  :data:`RECORD_DTYPE` record per request ``(arrival_s, device, lba,
  nbytes, kind)`` with ``kind`` 0 for read, 1 for write.  The up-front
  count makes truncation detectable: fewer records than promised — or
  trailing bytes past the last record — is a hard
  :class:`~repro.util.errors.TraceError`.

Every reader runs on one columnar block reader: binary records are read
in blocks with positional reads straight into :data:`RECORD_DTYPE` arrays
and validated with vector masks; text is parsed line by line into the same
blocks.  A streamed text trace is parsed exactly once, when the stream is
opened, and spilled in the binary record layout to an anonymous temporary
file, so every replay pass reads binary blocks.

Every malformed input raises :class:`~repro.util.errors.TraceError` with
the offending line/record number — the first bad one in file order;
nothing is ever silently skipped or truncated.  Arrival times must be
finite, non-negative, and non-decreasing (whole-file ingestion can
``sort=True`` instead; the streamed reader is always strict, since sorting
needs the whole file).

Device numbers map onto the simulated subsystem through a *mapping
policy* (:func:`device_layout`): each device becomes one single-disk file
(``dev0``, ``dev1``, ...) preserving its LBA space, and the policy picks
the disk —

* ``"modulo"`` — device ``d`` lives on disk ``d % num_disks``; rescales
  any device count onto any subsystem, round-robin.
* ``"range"`` — contiguous device ranges per disk
  (``d * num_disks // num_devices``); preserves device locality.
* ``"lba"`` — identity (device ``d`` on disk ``d``); requires
  ``num_devices <= num_disks`` and preserves the recorded placement
  exactly.

Ingested requests carry no loop-nest provenance: their
``nest``/``iteration`` columns hold
:data:`~repro.trace.request.UNKNOWN_POSITION`, the same documented
sentinel streamed repro-trace reads use.  Replay of ingested traces is
normally **open-loop** (``simulate(..., open_loop=True)``): issue times
come from the recording, not from the closed-loop compute/IO feedback
chain — see :mod:`repro.disksim.simulator`.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from itertools import islice
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..obs import metrics as _metrics
from ..layout.files import DEFAULT_STRIPE_SIZE, FileEntry, SubsystemLayout
from ..layout.striping import Striping
from ..util.errors import TraceError
from ..util.units import SECTOR_BYTES, bytes_to_sectors
from .request import RequestColumns, Trace, UNKNOWN_POSITION
from .stream import TraceStream

__all__ = [
    "BINARY_MAGIC",
    "IngestScan",
    "MAPPING_POLICIES",
    "RECORD_DTYPE",
    "device_layout",
    "ingest_fingerprint",
    "ingest_trace",
    "read_records",
    "scan_trace",
    "stream_ingest",
    "write_binary_records",
    "write_text_records",
]

#: Leading magic of the binary format (8 bytes).
BINARY_MAGIC = b"RBLKIO1\n"
#: One packed binary record (29 bytes, no padding).  Streamed text traces
#: are spilled in this layout too.
RECORD_DTYPE = np.dtype(
    [("arrival", "<f8"), ("device", "<u4"), ("lba", "<i8"), ("nbytes", "<i8"),
     ("kind", "u1")]
)
_HEADER_BYTES = len(BINARY_MAGIC) + 8
#: Records per block of scans, whole-file reads and text parsing.
_BLOCK_RECORDS = 1 << 14
_U32_MAX = (1 << 32) - 1
_I64_MAX = (1 << 63) - 1

#: Reasons appended to a time-order error.
_ORDERED = "trace must be time-ordered"
_ORDERED_OR_SORT = (
    "trace must be time-ordered; pass sort=True to reorder a whole-file ingest"
)

#: Recognized device→disk mapping policies (see :func:`device_layout`).
MAPPING_POLICIES = ("modulo", "range", "lba")


# ---------------------------------------------------------------------- #
# Record-level parsing
# ---------------------------------------------------------------------- #
def _resolve_format(path: Path, fmt: str) -> str:
    if fmt == "auto":
        with open(path, "rb") as fh:
            head = fh.read(len(BINARY_MAGIC))
        return "binary" if head == BINARY_MAGIC else "text"
    if fmt not in ("text", "binary"):
        raise TraceError(f"unknown trace format {fmt!r}")
    return fmt


def _check_record(
    where: str, arrival: float, lba: int, nbytes: int
) -> None:
    if not isfinite(arrival) or arrival < 0:
        raise TraceError(f"{where}: bad arrival time {arrival!r}")
    if lba < 0:
        raise TraceError(f"{where}: negative LBA {lba}")
    if nbytes <= 0:
        raise TraceError(f"{where}: request size must be positive, got {nbytes}")
    if lba * SECTOR_BYTES + nbytes > _I64_MAX:
        raise TraceError(f"{where}: LBA extent overflows 64 bits")


def _iter_text(path: Path) -> Iterator[tuple[float, int, int, int, bool]]:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 5:
                raise TraceError(
                    f"line {lineno}: expected 5 fields "
                    f"(arrival device lba nbytes R|W), got {len(parts)}"
                )
            try:
                arrival = float(parts[0])
                device = int(parts[1])
                lba = int(parts[2])
                nbytes = int(parts[3])
            except ValueError as exc:
                raise TraceError(f"line {lineno}: {exc}") from exc
            if parts[4] not in ("R", "W"):
                raise TraceError(
                    f"line {lineno}: bad request kind {parts[4]!r} "
                    "(expected R or W)"
                )
            if device < 0:
                raise TraceError(f"line {lineno}: negative device {device}")
            if device > _U32_MAX:
                raise TraceError(f"line {lineno}: device {device} exceeds 32 bits")
            _check_record(f"line {lineno}", arrival, lba, nbytes)
            yield arrival, device, lba, nbytes, parts[4] == "W"


def _check_block(
    recs: np.ndarray, base: int, prev: float, order: str | None
) -> None:
    """Raise on the first invalid record of ``recs`` (record numbers from
    ``base``), checking each one in the per-record order: kind byte,
    arrival, LBA, size, extent, then — when ``order`` names the reason —
    arrival order after ``prev``."""
    arrival, lba, nbytes = recs["arrival"], recs["lba"], recs["nbytes"]
    with np.errstate(invalid="ignore"):
        bad = (recs["kind"] > 1) | ~np.isfinite(arrival) | (arrival < 0)
        bad |= (lba < 0) | (nbytes <= 0)
        bad |= lba > (_I64_MAX - np.maximum(nbytes, 1)) // SECTOR_BYTES
        if order is not None and len(recs):
            bad[0] |= arrival[0] < prev
            bad[1:] |= arrival[1:] < arrival[:-1]
    if not bad.any():
        return
    i = int(np.argmax(bad))
    recno = base + i
    kind = int(recs["kind"][i])
    if kind > 1:
        raise TraceError(
            f"record {recno}: bad request kind byte {kind} "
            "(expected 0=read or 1=write)"
        )
    a = float(arrival[i])
    _check_record(f"record {recno}", a, int(lba[i]), int(nbytes[i]))
    before = prev if i == 0 else float(arrival[i - 1])
    raise TraceError(
        f"record {recno}: arrival {a} precedes previous {before} ({order})"
    )


def _binary_count(fd: int) -> int:
    """Check the binary header; returns the promised record count."""
    head = os.pread(fd, _HEADER_BYTES, 0)
    magic = head[: len(BINARY_MAGIC)]
    if magic != BINARY_MAGIC:
        raise TraceError(
            f"bad binary trace magic {magic!r} (expected {BINARY_MAGIC!r})"
        )
    if len(head) != _HEADER_BYTES:
        raise TraceError("truncated binary trace header")
    return int.from_bytes(head[len(BINARY_MAGIC):], "little")


def _read_blocks(
    fd: int, start: int, count: int, block: int, order: str | None
) -> Iterator[np.ndarray]:
    """Validated blocks of ``count`` packed records at byte ``start`` of
    ``fd``.  Positional reads share no file offset, so a forked process
    can read the same descriptor."""
    size = RECORD_DTYPE.itemsize
    prev = -1.0
    for base in range(0, count, block):
        want = min(block, count - base)
        raw = os.pread(fd, want * size, start + base * size)
        recs = np.frombuffer(raw, RECORD_DTYPE, len(raw) // size)
        _check_block(recs, base, prev, order)
        if len(recs) < want:
            raise TraceError(
                f"truncated binary trace: record {base + len(recs)} of "
                f"{count} is incomplete"
            )
        prev = float(recs["arrival"][-1])
        yield recs
    if os.pread(fd, 1, start + count * size):
        raise TraceError(f"binary trace has trailing bytes after {count} records")


def _text_blocks(path: Path, order: str | None) -> Iterator[np.ndarray]:
    records = _iter_text(path)
    base, prev = 0, -1.0
    while True:
        rows: list = []
        try:
            for rec in islice(records, _BLOCK_RECORDS):
                rows.append(rec)
        finally:
            # On a parse error this still reports an earlier record's
            # ordering error first, as a record-at-a-time reader would.
            recs = np.array(rows, dtype=RECORD_DTYPE)
            _check_block(recs, base, prev, order)
        if not rows:
            return
        prev = float(recs["arrival"][-1])
        base += len(recs)
        yield recs


def _record_blocks(path: Path, fmt: str, order: str | None) -> Iterator[np.ndarray]:
    if fmt == "text":
        yield from _text_blocks(path, order)
        return
    with open(path, "rb") as fh:
        fd = fh.fileno()
        yield from _read_blocks(
            fd, _HEADER_BYTES, _binary_count(fd), _BLOCK_RECORDS, order
        )


def read_records(
    path: str | Path, fmt: str = "auto"
) -> Iterator[tuple[float, int, int, int, bool]]:
    """Iterate validated ``(arrival_s, device, lba, nbytes, is_write)``
    records of one trace file; ``fmt`` is ``"text"``, ``"binary"``, or
    ``"auto"`` (sniff the binary magic)."""
    path = Path(path)
    blocks = _record_blocks(path, _resolve_format(path, fmt), None)
    return (
        rec
        for recs in blocks
        for rec in zip(
            recs["arrival"].tolist(),
            recs["device"].tolist(),
            recs["lba"].tolist(),
            recs["nbytes"].tolist(),
            (recs["kind"] == 1).tolist(),
        )
    )


# ---------------------------------------------------------------------- #
# Serializers (round-trips, fixtures, tests)
# ---------------------------------------------------------------------- #
def write_text_records(path: str | Path, records) -> int:
    """Write ``(arrival_s, device, lba, nbytes, is_write)`` records in the
    text format; returns the record count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# arrival_s device lba nbytes kind\n")
        for arrival, device, lba, nbytes, is_write in records:
            kind = "W" if is_write else "R"
            # repr() is the shortest exact decimal: arrivals survive a
            # text round-trip bit for bit, like the binary format.
            fh.write(f"{arrival!r} {device} {lba} {nbytes} {kind}\n")
            n += 1
    return n


def write_binary_records(path: str | Path, records) -> int:
    """Write records in the binary format; returns the record count."""
    recs = np.fromiter(records, RECORD_DTYPE)
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC + len(recs).to_bytes(8, "little") + recs.tobytes())
    return len(recs)


# ---------------------------------------------------------------------- #
# Device → disk mapping
# ---------------------------------------------------------------------- #
def _disk_of(mapping: str, device: int, num_devices: int, num_disks: int) -> int:
    if mapping == "modulo":
        return device % num_disks
    if mapping == "range":
        return device * num_disks // num_devices
    if mapping == "lba":
        return device
    raise TraceError(
        f"unknown mapping policy {mapping!r} (expected one of "
        f"{', '.join(MAPPING_POLICIES)})"
    )


def device_layout(
    num_devices: int,
    num_disks: int,
    mapping: str = "modulo",
    device_capacity_bytes: int = 0,
) -> SubsystemLayout:
    """Layout mapping ``num_devices`` recorded devices onto ``num_disks``
    simulated disks under one mapping policy.

    Each device becomes one un-striped file ``dev{d}`` of
    ``device_capacity_bytes`` placed whole on the policy's disk, and the
    devices pack consecutively in the global block space — so a record's
    ``(device, lba)`` resolves to byte ``lba * 512`` of file ``dev{d}``
    and the recorded intra-device seek distances are preserved exactly.
    """
    if num_devices < 1:
        raise TraceError(f"num_devices must be >= 1, got {num_devices}")
    if device_capacity_bytes <= 0:
        raise TraceError(
            f"device_capacity_bytes must be positive, got {device_capacity_bytes}"
        )
    if mapping not in MAPPING_POLICIES:
        raise TraceError(
            f"unknown mapping policy {mapping!r} (expected one of "
            f"{', '.join(MAPPING_POLICIES)})"
        )
    if mapping == "lba" and num_devices > num_disks:
        raise TraceError(
            f"mapping 'lba' preserves device placement and needs "
            f"num_devices <= num_disks, got {num_devices} > {num_disks}"
        )
    blocks = bytes_to_sectors(device_capacity_bytes)
    entries = tuple(
        FileEntry(
            array_name=f"dev{d}",
            size_bytes=device_capacity_bytes,
            striping=Striping(
                _disk_of(mapping, d, num_devices, num_disks),
                1,
                DEFAULT_STRIPE_SIZE,
            ),
            base_block=d * blocks,
        )
        for d in range(num_devices)
    )
    return SubsystemLayout(num_disks=num_disks, entries=entries)


# ---------------------------------------------------------------------- #
# Scanning and normalization
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class IngestScan:
    """Summary of one validated pass over a trace file."""

    num_records: int
    num_devices: int
    last_arrival_s: float
    max_extent_bytes: int


def _scan(blocks: Iterable[np.ndarray]) -> IngestScan:
    """Fold validated record blocks into their geometry."""
    n, max_dev, last, max_extent = 0, -1, 0.0, 0
    for recs in blocks:
        n += len(recs)
        max_dev = max(max_dev, int(recs["device"].max()))
        last = max(last, float(recs["arrival"].max()))
        end = recs["lba"] * SECTOR_BYTES + recs["nbytes"]
        max_extent = max(max_extent, int(end.max()))
    return IngestScan(
        num_records=n,
        num_devices=max_dev + 1,
        last_arrival_s=last,
        max_extent_bytes=max_extent,
    )


def scan_trace(path: str | Path, fmt: str = "auto", strict: bool = True) -> IngestScan:
    """One streaming validation pass: record count, device-id span, last
    arrival, and the largest ``lba * 512 + nbytes`` end-of-extent (the
    minimum per-device capacity), in one block of memory at a time.
    ``strict=False`` tolerates out-of-order arrivals (geometry is
    order-independent) and reports the *latest* arrival, for callers that
    will sort the records themselves."""
    path = Path(path)
    fmt = _resolve_format(path, fmt)
    return _scan(_record_blocks(path, fmt, _ORDERED if strict else None))


def _geometry(
    path: Path,
    scan: IngestScan,
    num_devices: int | None,
    device_capacity_bytes: int | None,
) -> tuple[int, int]:
    """Fill in unspecified device count / capacity from a scan."""
    if num_devices is None or device_capacity_bytes is None:
        if scan.num_records == 0:
            raise TraceError(f"trace {path.name!r} contains no requests")
        if num_devices is None:
            num_devices = scan.num_devices
        if device_capacity_bytes is None:
            device_capacity_bytes = scan.max_extent_bytes
    return num_devices, device_capacity_bytes


def _columns(
    recs: np.ndarray, base: int, layout: SubsystemLayout, num_devices: int
) -> RequestColumns:
    """Normalize records ``base...`` into request columns, checking each
    against the declared device count and capacity."""
    capacity = layout.entries[0].size_bytes
    dev_arr = recs["device"].astype(np.int64)
    if dev_arr.size and int(dev_arr.max()) >= num_devices:
        bad = int(np.argmax(dev_arr >= num_devices))
        raise TraceError(
            f"record {base + bad}: device {int(dev_arr[bad])} out of "
            f"range (trace has {num_devices} devices)"
        )
    off_arr = recs["lba"] * SECTOR_BYTES
    size_arr = recs["nbytes"].astype(np.int64)
    over = off_arr + size_arr > capacity
    if over.any():
        bad = int(np.argmax(over))
        raise TraceError(
            f"record {base + bad}: LBA extent "
            f"[{int(off_arr[bad])}, {int(off_arr[bad] + size_arr[bad])}) "
            f"overflows the device capacity of {capacity} bytes"
        )
    n = len(recs)
    return RequestColumns(
        nominal_time_s=recs["arrival"].astype(np.float64),
        array_id=dev_arr,
        offset=off_arr,
        nbytes=size_arr,
        is_write=recs["kind"] == 1,
        nest=np.full(n, UNKNOWN_POSITION, dtype=np.int64),
        iteration=np.full(n, UNKNOWN_POSITION, dtype=np.int64),
        array_names=tuple(e.array_name for e in layout.entries),
    )


def _spilled(blocks: Iterator[np.ndarray], spill) -> Iterator[np.ndarray]:
    """Pass ``blocks`` through, appending each to the ``spill`` file."""
    for recs in blocks:
        spill.write(recs.tobytes())
        yield recs


class _Source:
    """Owner of one stream's open binary-layout file.  Every pass holds it,
    so no pass reads a closed descriptor; it closes the file explicitly
    when the last reference goes, so collection warns of no open file."""

    def __init__(self, fh) -> None:
        self.fh = fh

    def __del__(self) -> None:
        self.fh.close()


def _block_chunks(
    source, start: int, count: int, fmt: str, layout: SubsystemLayout,
    num_devices: int, chunk_requests: int,
):
    """Re-iterable chunk factory of one streamed ingest: each call is one
    pass of ``chunk_requests``-record positional block reads over an open
    binary-layout file (the binary trace itself, or a text trace's spill).
    The factory and every live pass hold the file's owner, so it closes
    once the last of them is gone."""
    owner = _Source(source)

    def chunks() -> Iterator[RequestColumns]:
        base = 0
        fd = owner.fh.fileno()
        for recs in _read_blocks(fd, start, count, chunk_requests, _ORDERED):
            cols = _columns(recs, base, layout, num_devices)
            base += len(cols)
            _metrics.inc("ingest.requests", len(cols), format=fmt)
            _metrics.inc("ingest.chunks", format=fmt)
            yield cols

    return chunks


# ---------------------------------------------------------------------- #
# Public ingestion entry points
# ---------------------------------------------------------------------- #
def ingest_trace(
    path: str | Path,
    num_disks: int,
    fmt: str = "auto",
    mapping: str = "modulo",
    num_devices: int | None = None,
    device_capacity_bytes: int | None = None,
    sort: bool = False,
    program_name: str | None = None,
) -> Trace:
    """Ingest one recorded trace file whole into a :class:`Trace`.

    ``num_devices``/``device_capacity_bytes`` default to the values the
    validation pass infers (highest device id + 1; largest end-of-extent).
    ``sort=True`` stably reorders out-of-order arrivals instead of
    rejecting them (whole-file only — the streamed reader cannot sort).
    ``total_compute_s`` is the last arrival time, so open-loop replay's
    nominal span covers the recording.
    """
    path = Path(path)
    fmt = _resolve_format(path, fmt)
    blocks = list(_record_blocks(path, fmt, None if sort else _ORDERED_OR_SORT))
    if not blocks:
        raise TraceError(f"trace {path.name!r} contains no requests")
    recs = np.concatenate(blocks)
    num_devices, device_capacity_bytes = _geometry(
        path, _scan([recs]), num_devices, device_capacity_bytes
    )
    layout = device_layout(num_devices, num_disks, mapping, device_capacity_bytes)
    if sort:
        recs = recs[np.argsort(recs["arrival"], kind="stable")]
    cols = _columns(recs, 0, layout, num_devices)
    _metrics.inc("ingest.requests", len(cols), format=fmt)
    _metrics.inc("ingest.traces", format=fmt)
    return Trace(
        program_name=program_name or path.stem,
        layout=layout,
        total_compute_s=float(cols.nominal_time_s[-1]),
        columns=cols,
    )


def stream_ingest(
    path: str | Path,
    num_disks: int,
    fmt: str = "auto",
    mapping: str = "modulo",
    num_devices: int | None = None,
    device_capacity_bytes: int | None = None,
    chunk_requests: int = 65536,
    program_name: str | None = None,
) -> TraceStream:
    """Open a recorded trace as a re-iterable bounded-memory
    :class:`~repro.trace.stream.TraceStream`.

    One validation pass fixes the last arrival and, unless given
    explicitly, the device geometry; a text trace is parsed only in that
    pass, which spills its records in the binary layout to an anonymous
    temporary file.  Each :meth:`~repro.trace.stream.TraceStream.iter_chunks`
    pass then reads binary blocks of ``chunk_requests`` records, so peak
    memory stays bounded regardless of trace size.  The chunked and
    whole-file readers produce identical request columns for any valid
    input (enforced by the ingest property tests).
    """
    path = Path(path)
    if chunk_requests <= 0:
        raise TraceError("chunk_requests must be positive")
    fmt = _resolve_format(path, fmt)
    text = fmt == "text"
    source = tempfile.TemporaryFile() if text else open(path, "rb")
    try:
        if text:
            start, blocks = 0, _spilled(_text_blocks(path, _ORDERED), source)
        else:
            fd, start = source.fileno(), _HEADER_BYTES
            blocks = _read_blocks(
                fd, start, _binary_count(fd), _BLOCK_RECORDS, _ORDERED
            )
        scan = _scan(blocks)
        source.flush()
        num_devices, device_capacity_bytes = _geometry(
            path, scan, num_devices, device_capacity_bytes
        )
        layout = device_layout(
            num_devices, num_disks, mapping, device_capacity_bytes
        )
    except BaseException:
        source.close()
        raise
    _metrics.inc("ingest.streams", format=fmt)
    return TraceStream(
        program_name=program_name or path.stem,
        layout=layout,
        total_compute_s=scan.last_arrival_s,
        chunks=_block_chunks(
            source, start, scan.num_records, fmt, layout, num_devices,
            chunk_requests,
        ),
        directives=(),
    )


# ---------------------------------------------------------------------- #
def ingest_fingerprint(
    path: str | Path,
    fmt: str = "auto",
    mapping: str = "modulo",
    num_disks: int = 0,
    num_devices: int | None = None,
    device_capacity_bytes: int | None = None,
) -> str:
    """Content digest of one ingest source + its normalization parameters.

    Hashes the file *bytes* (not the path or mtime) together with every
    parameter that shapes the normalized columns, so a cached replay is
    reused exactly when the same recorded data would normalize the same
    way — feed this into
    :func:`repro.cache.trace_fingerprint`'s ``source`` argument, whose
    code digest covers the parser itself.
    """
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    descriptor = "\x1f".join(
        (
            h.hexdigest(),
            fmt,
            mapping,
            str(num_disks),
            str(num_devices),
            str(device_capacity_bytes),
        )
    )
    return hashlib.sha256(descriptor.encode()).hexdigest()
