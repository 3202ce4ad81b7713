"""Trace generator (paper §4.1).

Walks a program's loop nests in execution order, filters every array
access through the buffer cache, and emits one I/O request per missing byte
run (split at ``max_request_bytes``).  Request arrival times come from the
*actual* cycle model — the generator plays the role of the instrumented
real execution on the paper's Blade1000.

The walk is **columnar** and has one producer,
:func:`generate_trace_chunks`; :func:`generate_trace` is its chunks joined
by :meth:`RequestColumns.concat`, so a whole trace and a streamed one are
the same request sequence by construction.  Per iteration block of a nest:

1. every (outer iteration × reference footprint × contiguous run) *cell*
   of the block is laid out with NumPy broadcasting (the footprint at
   outer value ``v`` is the base footprint shifted by a constant, so the
   per-cell line ranges are one arithmetic expression over the block);
2. the cells expand to a program-ordered **cache-line occurrence
   stream**, which a carried :class:`~repro.trace.buffercache.LRUState`
   filters through LRU semantics — vectorized when caching is off or no
   eviction can happen within the block, and an exact tight-loop LRU
   replay under eviction pressure;
3. the surviving misses are coalesced into maximal line runs, clipped at
   each file's tail, split at ``max_request_bytes`` with one ``arange``,
   and assembled directly into :class:`~repro.trace.request.RequestColumns`
   — no per-request Python objects are ever created.

The output is bit-identical to :func:`generate_trace_reference`, the
retained naive per-line walk (same requests, same hit/miss counters), which
the equivalence test suite enforces.

Directive attachment is separate: :func:`directives_at_positions` converts
a power plan's placement rows (:data:`PLACEMENT_ROW`) to nominal times on
the same timeline, and :meth:`Trace.with_directives` glues them on.  This
lets one base trace be shared by every scheme (Base/TPM/DRPM/oracles see
the same requests; only directive streams differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..analysis.access import NestAccess, analyze_program
from ..analysis.cycles import ProgramTiming, compute_timing
from ..obs import metrics as _metrics
from ..ir.nodes import AccessMode, PowerAction, PowerCall
from ..ir.program import Program
from ..layout.files import SubsystemLayout
from ..util.errors import TraceError
from ..util.units import KB
from .buffercache import BufferCache, LRUState
from .request import DirectiveRecord, IORequest, RequestColumns, Trace

__all__ = [
    "generate_trace",
    "generate_trace_chunks",
    "generate_trace_reference",
    "stream_trace",
    "directives_at_positions",
    "placement_calls",
    "PLACEMENT_ROW",
    "TraceOptions",
]


@dataclass(frozen=True)
class TraceOptions:
    """Knobs of the trace generator."""

    buffer_cache_bytes: int = 8 * 1024 * KB
    cache_line_bytes: int = 8 * KB
    max_request_bytes: int = 64 * KB

    def __post_init__(self) -> None:
        if self.max_request_bytes <= 0:
            raise TraceError("max_request_bytes must be positive")
        if self.cache_line_bytes <= 0:
            raise TraceError("cache_line_bytes must be positive")


#: Row layout of a power plan's call placements, one row per call.  The
#: call executes at outer iteration ``iteration`` (ordinal) of nest
#: ``nest``, ``fraction`` of the way through that iteration's body —
#: fraction 0 is "immediately before the iteration", and any positive
#: fraction is a strip-mined position *after* the iteration's array
#: accesses (the generator stamps a nest iteration's I/O at its start).
#: Ordinal ``trip_count`` (fraction 0) means "right after the nest
#: finishes".  ``action`` indexes :class:`~repro.ir.nodes.PowerAction`;
#: ``disk``, ``rpm`` (``-1`` for ``None``) and ``overhead`` (cycles) are
#: the :class:`~repro.ir.nodes.PowerCall`'s other fields.
PLACEMENT_ROW = np.dtype([
    ("nest", "i8"), ("iteration", "i8"), ("fraction", "f8"),
    ("action", "i1"), ("disk", "i8"), ("rpm", "i8"), ("overhead", "f8"),
])
_ACTIONS = tuple(PowerAction)


def placement_calls(rows: np.ndarray) -> list[PowerCall]:
    """The :class:`PowerCall` of each placement row, in row order."""
    return [
        PowerCall(_ACTIONS[action], disk, None if rpm < 0 else rpm, overhead)
        for action, disk, rpm, overhead in rows[
            ["action", "disk", "rpm", "overhead"]
        ].tolist()
    ]


def _check_accesses(program: Program, accesses: Sequence[NestAccess]) -> None:
    if len(accesses) != len(program.nests):
        raise TraceError("access summaries do not match program nests")


def generate_trace(
    program: Program,
    layout: SubsystemLayout,
    options: TraceOptions | None = None,
    accesses: Sequence[NestAccess] | None = None,
    timing: ProgramTiming | None = None,
    stats: dict | None = None,
) -> Trace:
    """Produce the I/O request trace of ``program`` under ``layout``: the
    chunks of :func:`generate_trace_chunks` joined end to end.

    ``stats``, when given, receives the buffer cache's ``hits``/``misses``
    counters (equivalence tests compare them against the reference path).
    """
    opts = options or TraceOptions()
    with obs.span(
        "trace.generate", program=program.name, disks=layout.num_disks
    ) as sp:
        if accesses is None:
            accesses = analyze_program(program)
        if timing is None:
            timing = compute_timing(program)
        counts = {} if stats is None else stats
        parts = list(
            generate_trace_chunks(
                program, layout, opts,
                accesses=accesses, timing=timing, stats=counts,
            )
        )
        columns = RequestColumns.concat(
            parts, parts[0].array_names if parts else ()
        )
        hits, misses = counts["hits"], counts["misses"]
        num_requests = len(columns)
        sp.set(requests=num_requests, cache_hits=hits, cache_misses=misses)
        _metrics.inc("trace.cache_hits", hits)
        _metrics.inc("trace.cache_misses", misses)
        _metrics.inc("trace.requests", num_requests)
        return Trace(
            program_name=program.name,
            layout=layout,
            directives=(),
            total_compute_s=timing.total_seconds,
            columns=columns,
        )


class _NestPrep:
    """Per-nest geometry of the columnar walk, chunkable by iteration.

    One "cell" is an (outer iteration, footprint, run) triple; a nest's
    cells for any iteration window ``[lo, hi)`` are a pure function of this
    prep (:func:`_cells_for_block`), which is what lets the generator
    materialize the occurrence stream one iteration block at a time.
    """

    __slots__ = (
        "nest_index",
        "aid_base",
        "iter_start",
        "iter_step",
        "trips",
        "start_s",
        "sec_per_iter",
        "nfps",
        "col_start0",
        "col_len",
        "col_shift",
        "col_fp",
        "fp_fid",
        "fp_fsize",
        "fp_write",
    )

    def __init__(self, nest_index, aid_base, iter_start, iter_step, trips,
                 start_s, sec_per_iter, nfps, col_start0, col_len, col_shift,
                 col_fp, fp_fid, fp_fsize, fp_write):
        self.nest_index = nest_index
        self.aid_base = aid_base
        self.iter_start = iter_start
        self.iter_step = iter_step
        self.trips = trips
        self.start_s = start_s
        self.sec_per_iter = sec_per_iter
        self.nfps = nfps
        self.col_start0 = col_start0
        self.col_len = col_len
        self.col_shift = col_shift
        self.col_fp = col_fp
        self.fp_fid = fp_fid
        self.fp_fsize = fp_fsize
        self.fp_write = fp_write

    def vals(self, lo: int, hi: int) -> np.ndarray:
        """Outer iteration values of ordinals ``[lo, hi)``, materialized on
        demand — a nest's value vector is never held whole by the chunked
        generator, keeping its memory independent of trip counts."""
        return self.iter_start + self.iter_step * np.arange(
            lo, hi, dtype=np.int64
        )


class _Cells:
    """Parallel per-cell arrays for one iteration block."""

    __slots__ = ("firsts", "counts", "aid", "time", "arr", "write", "nest",
                 "iter", "fsize")

    def __init__(self, firsts, counts, aid, time, arr, write, nest, iter_,
                 fsize):
        self.firsts = firsts
        self.counts = counts
        self.aid = aid
        self.time = time
        self.arr = arr
        self.write = write
        self.nest = nest
        self.iter = iter_
        self.fsize = fsize


def _prepare_nests(
    layout: SubsystemLayout,
    opts: TraceOptions,
    accesses: Sequence[NestAccess],
    timing: ProgramTiming,
) -> tuple[list[_NestPrep], tuple[str, ...], int]:
    """Resolve every nest's footprints into chunkable column geometry.

    Returns ``(preps, array_names, stride)`` where ``stride`` is the
    (file, line) key stride — one more than the largest line index any
    cell can touch, computed in closed form from the affine extents (the
    per-column line index is linear in the outer value, so its maximum is
    at one of the two iteration endpoints).  A global stride makes cache
    keys identical across iteration blocks, which the carried LRU state
    requires.
    """
    lb = opts.cache_line_bytes
    array_ids: dict[str, int] = {}
    array_names: list[str] = []
    preps: list[_NestPrep] = []
    aid_base = 0
    max_line = 0
    for acc in accesses:
        if acc.nest.trip_count == 0:
            continue
        nt = timing.nest(acc.nest_index)
        prepared = []
        for fp in acc.footprints:
            arr = fp.ref.array
            if arr.memory_resident:
                continue
            ext = fp.base.flat_extents(arr)
            if ext.num_runs == 0:
                continue
            fid = array_ids.get(arr.name)
            if fid is None:
                fid = array_ids[arr.name] = len(array_names)
                array_names.append(arr.name)
            esize = arr.element_size
            prepared.append(
                (
                    fid,
                    ext.starts * esize,
                    ext.lengths * esize,
                    fp.flat_shift_per_outer_iter() * esize,
                    layout.entry(arr.name).size_bytes,
                    fp.ref.mode is AccessMode.WRITE,
                )
            )
        if not prepared:
            continue

        rng = acc.nest.iter_values()
        trips = len(rng)
        nfps = len(prepared)

        start_cols: list[np.ndarray] = []
        len_cols: list[np.ndarray] = []
        shift_cols: list[np.ndarray] = []
        col_fp: list[int] = []
        for f, (fid, starts0, lengths, shift, fsize, is_write) in enumerate(prepared):
            start_cols.append(starts0)
            len_cols.append(lengths)
            shift_cols.append(np.full(starts0.size, shift, dtype=np.int64))
            col_fp.extend([f] * int(starts0.size))
        col_start0 = np.concatenate(start_cols)
        col_len = np.concatenate(len_cols)
        col_shift = np.concatenate(shift_cols)

        # Last touched line per column is linear in the outer value;
        # evaluating both endpoints bounds it for either shift sign.
        for v in (rng.start, rng.start + rng.step * (trips - 1)):
            ends = (col_start0 + col_shift * v + col_len - 1) // lb
            max_line = max(max_line, int(ends.max()))

        preps.append(
            _NestPrep(
                nest_index=acc.nest_index,
                aid_base=aid_base,
                iter_start=rng.start,
                iter_step=rng.step,
                trips=trips,
                start_s=nt.start_s,
                sec_per_iter=nt.seconds_per_iteration,
                nfps=nfps,
                col_start0=col_start0,
                col_len=col_len,
                col_shift=col_shift,
                col_fp=np.asarray(col_fp, dtype=np.int64),
                fp_fid=np.asarray([p[0] for p in prepared], dtype=np.int64),
                fp_fsize=np.asarray([p[4] for p in prepared], dtype=np.int64),
                fp_write=np.asarray([p[5] for p in prepared], dtype=bool),
            )
        )
        aid_base += trips * nfps
    return preps, tuple(array_names), max_line + 1


def _cells_for_block(prep: _NestPrep, lo: int, hi: int, lb: int) -> _Cells:
    """Cells of iterations ``[lo, hi)`` of one nest, in exact walk order
    (iteration, then footprint, then run — a row-major ravel)."""
    vals = prep.vals(lo, hi)
    trips = vals.size
    starts = prep.col_start0[None, :] + prep.col_shift[None, :] * vals[:, None]
    first_mat = starts // lb
    count_mat = (starts + (prep.col_len[None, :] - 1)) // lb - first_mat + 1
    ncols = prep.col_fp.size

    cell_t = np.repeat(np.arange(trips, dtype=np.int64), ncols)
    cell_fp = np.tile(prep.col_fp, trips)
    global_t = lo + cell_t

    return _Cells(
        firsts=first_mat.ravel(),
        counts=count_mat.ravel(),
        aid=prep.aid_base + global_t * prep.nfps + cell_fp,
        time=prep.start_s + global_t * prep.sec_per_iter,
        arr=prep.fp_fid[cell_fp],
        write=prep.fp_write[cell_fp],
        nest=np.full(trips * ncols, prep.nest_index, dtype=np.int64),
        iter_=vals[cell_t],
        fsize=prep.fp_fsize[cell_fp],
    )


def _expand_occurrences(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """Expand cells into the per-line occurrence stream."""
    counts = cells.counts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    occ_cell = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    occ_line = np.repeat(cells.firsts, counts) + within
    return occ_cell, occ_line


def _build_requests(
    miss: np.ndarray,
    occ_cell: np.ndarray,
    occ_line: np.ndarray,
    cells: _Cells,
    lb: int,
    cap_req: int,
    names: tuple[str, ...],
) -> RequestColumns:
    """Misses (at least one) -> coalesced, clipped, size-split request
    columns."""
    idx = np.flatnonzero(miss)

    # Coalesce: a miss run continues while touches are adjacent in the
    # stream (no hit between), lines are consecutive, and the access — one
    # (iteration, footprint) pair, the naive ``access_extents`` call — is
    # the same.  This reproduces the reference coalescing exactly,
    # including duplicate boundary lines breaking a run.
    miss_line = occ_line[idx]
    miss_cell = occ_cell[idx]
    miss_aid = cells.aid[miss_cell]
    nmiss = idx.size
    brk = np.empty(nmiss, dtype=bool)
    brk[0] = True
    if nmiss > 1:
        brk[1:] = (
            (np.diff(idx) != 1) | (np.diff(miss_line) != 1) | (np.diff(miss_aid) != 0)
        )
    run_start = np.flatnonzero(brk)
    run_end = np.append(run_start[1:] - 1, nmiss - 1)
    line0 = miss_line[run_start]
    run_cell = miss_cell[run_start]

    # Cache lines may overhang the file tail; clip (after coalescing, as
    # the reference path does).
    off = line0 * lb
    length = (miss_line[run_end] - line0 + 1) * lb
    fsize = cells.fsize[run_cell]
    keep = off < fsize
    if not keep.all():
        off = off[keep]
        length = length[keep]
        fsize = fsize[keep]
        run_cell = run_cell[keep]
    length = np.minimum(length, fsize - off)

    # Split runs at max_request_bytes: one chunk index per emitted request.
    nchunks = (length + cap_req - 1) // cap_req
    nreq = int(nchunks.sum())
    req_run = np.repeat(np.arange(off.size, dtype=np.int64), nchunks)
    chunk_ord = np.arange(nreq, dtype=np.int64) - np.repeat(
        np.cumsum(nchunks) - nchunks, nchunks
    )
    req_cell = run_cell[req_run]

    return RequestColumns(
        nominal_time_s=cells.time[req_cell],
        array_id=cells.arr[req_cell],
        offset=off[req_run] + chunk_ord * cap_req,
        nbytes=np.minimum(cap_req, length[req_run] - chunk_ord * cap_req),
        is_write=cells.write[req_cell],
        nest=cells.nest[req_cell],
        iteration=cells.iter[req_cell],
        array_names=names,
    )


def generate_trace_chunks(
    program: Program,
    layout: SubsystemLayout,
    options: TraceOptions | None = None,
    chunk_requests: int = 65536,
    accesses: Sequence[NestAccess] | None = None,
    timing: ProgramTiming | None = None,
    stats: dict | None = None,
):
    """Yield the trace of ``program`` as :class:`RequestColumns` chunks —
    the generator's one producer.

    Peak memory is bounded by the iteration-block and chunk sizes instead
    of the trace length: nests are walked one iteration block at a time
    (blocks cut at iteration boundaries, where miss-run coalescing
    provably breaks — the access ordinal changes), the occurrence stream
    of each block is filtered through a carried
    :class:`~repro.trace.buffercache.LRUState`, and finished requests are
    buffered only up to one chunk.  Any ``chunk_requests`` yields the same
    request sequence and the same cache hits/misses.

    Every chunk except the last has exactly ``chunk_requests`` rows.
    ``stats``, when given, receives the cache's ``hits``/``misses``
    totals — populated once the generator is exhausted.
    """
    opts = options or TraceOptions()
    if chunk_requests <= 0:
        raise TraceError("chunk_requests must be positive")
    if accesses is None:
        accesses = analyze_program(program)
    if timing is None:
        timing = compute_timing(program)
    _check_accesses(program, accesses)

    lb = opts.cache_line_bytes
    cap_req = opts.max_request_bytes
    preps, names, stride = _prepare_nests(layout, opts, accesses, timing)
    state = LRUState(opts.buffer_cache_bytes // lb)

    # Aim iteration blocks at a few chunks' worth of line touches;
    # per-iteration touch counts vary by at most one line per run, so the
    # first iteration is a faithful estimate for the whole nest.
    occ_budget = max(chunk_requests, 4096) * 2

    parts: list[RequestColumns] = []
    buffered = 0
    for prep in preps:
        s0 = prep.col_start0 + prep.col_shift * prep.iter_start
        occ0 = int(((s0 + prep.col_len - 1) // lb - s0 // lb + 1).sum())
        block_iters = max(1, occ_budget // max(occ0, 1))
        for lo in range(0, prep.trips, block_iters):
            hi = min(lo + block_iters, prep.trips)
            cells = _cells_for_block(prep, lo, hi, lb)
            occ_cell, occ_line = _expand_occurrences(cells)
            if occ_line.size == 0:
                continue
            keys = cells.arr[occ_cell] * stride + occ_line
            miss = state.filter(keys)
            if not miss.any():
                continue
            cols = _build_requests(
                miss, occ_cell, occ_line, cells, lb, cap_req, names
            )
            if len(cols) == 0:
                continue
            parts.append(cols)
            buffered += len(cols)
            if buffered >= chunk_requests:
                whole = RequestColumns.concat(parts, names)
                pos = 0
                while buffered - pos >= chunk_requests:
                    yield whole.slice(pos, pos + chunk_requests)
                    pos += chunk_requests
                parts = [whole.slice(pos, buffered)] if pos < buffered else []
                buffered -= pos
    if buffered:
        yield RequestColumns.concat(parts, names)
    if stats is not None:
        stats["hits"] = state.hits
        stats["misses"] = state.misses


def stream_trace(
    program: Program,
    layout: SubsystemLayout,
    options: TraceOptions | None = None,
    chunk_requests: int = 65536,
    accesses: Sequence[NestAccess] | None = None,
    timing: ProgramTiming | None = None,
) -> "TraceStream":
    """Produce ``program``'s trace as a re-iterable :class:`TraceStream`.

    Analysis and timing run once, up front; each pass over the stream
    regenerates the request chunks from that geometry with a fresh carried
    cache state, so every replay sees the identical request sequence while
    peak memory stays bounded by the chunk size.  Attach per-scheme
    directive streams with :meth:`TraceStream.with_directives`, exactly as
    with a whole :class:`Trace`.
    """
    from .stream import TraceStream

    opts = options or TraceOptions()
    if accesses is None:
        accesses = analyze_program(program)
    if timing is None:
        timing = compute_timing(program)
    _check_accesses(program, accesses)
    acc = accesses
    tim = timing

    def chunks():
        return generate_trace_chunks(
            program,
            layout,
            opts,
            chunk_requests=chunk_requests,
            accesses=acc,
            timing=tim,
        )

    return TraceStream(
        program_name=program.name,
        layout=layout,
        total_compute_s=timing.total_seconds,
        chunks=chunks,
        directives=(),
    )


def generate_trace_reference(
    program: Program,
    layout: SubsystemLayout,
    options: TraceOptions | None = None,
    accesses: Sequence[NestAccess] | None = None,
    timing: ProgramTiming | None = None,
    stats: dict | None = None,
) -> Trace:
    """The naive per-line reference generator.

    Retained verbatim as the oracle :func:`generate_trace_chunks` (and so
    :func:`generate_trace`) is proven against
    (``tests/trace/test_generator_equivalence.py``): one Python loop per
    outer iteration, per-line LRU filtering through
    :meth:`BufferCache.access_extents`, one :class:`IORequest` object per
    emitted chunk.
    """
    opts = options or TraceOptions()
    if accesses is None:
        accesses = analyze_program(program)
    if timing is None:
        timing = compute_timing(program)
    _check_accesses(program, accesses)

    cache = BufferCache(opts.buffer_cache_bytes, opts.cache_line_bytes)
    requests: list[IORequest] = []
    cap = opts.max_request_bytes

    for acc in accesses:
        nt = timing.nest(acc.nest_index)
        if acc.nest.trip_count == 0:
            continue
        # Pre-compute per-footprint base byte extents and per-iteration shift.
        prepared = []
        for fp in acc.footprints:
            arr = fp.ref.array
            if arr.memory_resident:
                continue
            ext = fp.base.flat_extents(arr)
            if ext.num_runs == 0:
                continue
            esize = arr.element_size
            file_size = layout.entry(arr.name).size_bytes
            prepared.append(
                (
                    fp,
                    arr.name,
                    ext.starts * esize,
                    ext.lengths * esize,
                    fp.flat_shift_per_outer_iter() * esize,
                    file_size,
                )
            )
        for t, v in enumerate(acc.nest.iter_values()):
            t_nominal = nt.iteration_start_s(t)
            for fp, name, starts0, lengths, shift, file_size in prepared:
                starts = starts0 + shift * v
                missing = cache.access_extents(name, starts, lengths)
                if not missing:
                    continue
                is_write = fp.ref.mode is AccessMode.WRITE
                for off, ln in missing:
                    # Cache lines may overhang the file tail; clip.
                    if off >= file_size:
                        continue
                    ln = min(ln, file_size - off)
                    pos = off
                    remaining = ln
                    while remaining > 0:
                        chunk = min(cap, remaining)
                        requests.append(
                            IORequest(
                                nominal_time_s=t_nominal,
                                array=name,
                                offset=pos,
                                nbytes=chunk,
                                is_write=is_write,
                                nest=acc.nest_index,
                                iteration=int(v),
                            )
                        )
                        pos += chunk
                        remaining -= chunk

    if stats is not None:
        stats["hits"] = cache.hits
        stats["misses"] = cache.misses
    return Trace(
        program_name=program.name,
        layout=layout,
        requests=tuple(requests),
        directives=(),
        total_compute_s=timing.total_seconds,
    )


def directives_at_positions(
    rows: np.ndarray, timing: ProgramTiming
) -> list[DirectiveRecord]:
    """Convert placement rows (:data:`PLACEMENT_ROW`) to timed directive
    records, stably sorted by time.

    ``timing`` must be the *actual* timeline (the code executes when the
    program counter reaches the insertion point, regardless of what the
    compiler estimated).  A row naming an unknown nest, an iteration
    outside ``[0, trip_count]``, a fraction outside ``[0, 1]`` or a
    positive fraction of the after-the-nest ordinal raises
    :class:`TraceError` naming the row.
    """
    nests = timing.nests
    nest = rows["nest"]
    iteration = rows["iteration"]
    fraction = rows["fraction"]
    _check_rows((nest < 0) | (nest >= len(nests)), lambda i: (
        f"nest {nest[i]} out of range for {len(nests)} nests"
    ))
    trips = np.array([nt.trip_count for nt in nests], dtype=np.int64)[nest]
    _check_rows((iteration < 0) | (iteration > trips), lambda i: (
        f"iteration {iteration[i]} out of range for nest {nest[i]} with "
        f"{trips[i]} iterations"
    ))
    _check_rows(~((fraction >= 0.0) & (fraction <= 1.0)), lambda i: (
        f"fraction {fraction[i]} outside [0, 1]"
    ))
    fractional = fraction > 0.0
    _check_rows(fractional & (iteration >= trips), lambda i: (
        "fractional placement beyond the last iteration"
    ))
    per_iter = np.array([nt.seconds_per_iteration for nt in nests])[nest]
    # ``NestTiming.iteration_start_s``, then the in-iteration offset.
    t = np.array([nt.start_s for nt in nests])[nest] + iteration * per_iter
    t = np.where(fractional, t + fraction * per_iter, t)
    order = np.argsort(t, kind="stable")
    return [
        DirectiveRecord(nominal_time_s=time, call=call)
        for time, call in zip(t[order].tolist(), placement_calls(rows[order]))
    ]


def _check_rows(bad: np.ndarray, describe) -> None:
    """Raise :class:`TraceError` for the first placement row in ``bad``."""
    hit = np.flatnonzero(bad)
    if hit.size:
        i = int(hit[0])
        raise TraceError(f"placement row {i}: {describe(i)}")
