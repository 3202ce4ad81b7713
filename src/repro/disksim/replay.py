"""Precomputed replay inputs shared across scheme replays.

Every scheme of a suite replays the *same* request stream (only the
directive streams differ — see :meth:`repro.trace.request.Trace.
with_directives`), so everything the simulator's hot loop derives purely
from a request and the layout is invariant across the 7 replays:

* the striping fan-out — which disks a logical request touches and how many
  bytes land on each (``layout.striping(array).per_disk_bytes(...)``,
  already sorted by disk id);
* the seek class of every sub-request — a request that exactly continues
  the last request on a disk needs no repositioning (``seq``); one that
  resumes a file the disk recently streamed pays only a short seek
  (``stream``); anything else pays the full average seek (``full``).
  The classification depends only on the order of requests per disk, which
  is identical in every replay.

A seek class is its ``int8`` code (:data:`SEEK_CLASSES` order) end to end:
``sub_seek`` holds codes, the replay driver hands them to ``Disk.serve``
and to a reactive controller's ``on_request_complete`` as Python ints, and
both the vector kernel and ``Disk`` read the service time from the same
table, ``PowerModel.service_seek_base_s[level, code] + nbytes /
PowerModel.service_rate_bps[level]``.  The names in :data:`SEEK_CLASSES`
are for display and tests.

:class:`ReplayPlan` computes all of it once per trace — **columnar**, as
CSR-style NumPy arrays over the flat sub-request stream:

* ``indptr[i]:indptr[i+1]`` delimits request ``i``'s sub-requests;
* ``sub_disk`` / ``sub_nbytes`` / ``sub_seek`` are the per-sub-request
  target disk, byte count, and seek-class code.

Construction is fully vectorized: the striping fan-out is the closed-form
per-phase stripe count (the array form of ``Striping.per_disk_bytes``),
and the seek classes come from two stable groupings (:func:`_group`:
previous sub-request on the same disk → ``seq``; previous sub-request of
the same (disk, array) → ``stream``) instead of per-request dict updates.

The suite engine builds one plan and passes it to every
:func:`~repro.disksim.simulator.simulate` call; ``simulate`` builds a plan
on the fly when none is supplied, so single-replay callers see no API
change.
"""

from __future__ import annotations

import numpy as np

from ..trace.request import RequestColumns, Trace
from ..util.errors import SimulationError

__all__ = ["ReplayPlan", "SeekCarry", "SEEK_CLASSES", "SEEK_CODES"]

#: Seek classes in code order: the columns of ``PowerModel``'s per-level
#: service-time table are indexed by these codes.
SEEK_CLASSES: tuple[str, ...] = ("seq", "stream", "full")
SEEK_CODES: dict[str, int] = {name: i for i, name in enumerate(SEEK_CLASSES)}


def _group(
    keys: np.ndarray, nkeys: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the positions of ``keys`` (each in ``[0, nkeys)``) by key,
    stably, so each group keeps its positions' order: ``(order, heads,
    glen, present)``, the grouping permutation, and the start in
    ``order`` and length of each present key's group and that key.

    A stable sort's permutation is unique, so it is sorted on the
    narrowest unsigned dtype that holds every key, which NumPy serves
    with an O(n) radix sort up to 16 bits.
    """
    if nkeys <= 1 << 8:
        dtype = np.uint8
    elif nkeys <= 1 << 16:
        dtype = np.uint16
    else:
        dtype = np.int64
    order = np.argsort(keys.astype(dtype, copy=False), kind="stable")
    counts = np.bincount(keys, minlength=nkeys)
    present = np.flatnonzero(counts)
    glen = counts[present]
    return order, np.cumsum(glen) - glen, glen, present


class SeekCarry:
    """Per-disk seek-continuity state threaded across column chunks.

    Both seek rules compare a sub-request with its predecessor in a
    grouping — by disk for ``"seq"``, by (disk, array) for ``"stream"``.
    When one logical stream arrives as chunks, the predecessor of a
    chunk's first sub-request in each group lives in an *earlier* chunk;
    this object carries exactly what the rules need from it: the last
    (array, end-offset) served per disk, and the last end-offset per
    (disk, array).  :meth:`ReplayPlan.for_columns` consumes and updates
    it in place, making the concatenated chunked classification
    byte-identical to the whole-trace one.
    """

    __slots__ = ("disk_last", "stream_last")

    def __init__(self) -> None:
        #: disk -> (array_id, end_offset) of its last sub-request.
        self.disk_last: dict[int, tuple[int, int]] = {}
        #: (disk, array_id) -> end_offset of that stream's last sub-request.
        self.stream_last: dict[tuple[int, int], int] = {}


class ReplayPlan:
    """Columnar per-request hot-loop inputs, computed once per stream.

    Request ``i`` of the trace's columns owns sub-requests
    ``indptr[i]:indptr[i+1]``, sorted by disk id; the replay driver reads
    the flat arrays directly.
    """

    __slots__ = (
        "columns",
        "num_disks",
        "indptr",
        "sub_disk",
        "sub_nbytes",
        "sub_seek",
        "_derived",
    )

    def __init__(
        self,
        columns: RequestColumns,
        num_disks: int,
        indptr: np.ndarray,
        sub_disk: np.ndarray,
        sub_nbytes: np.ndarray,
        sub_seek: np.ndarray,
    ):
        self.columns = columns
        self.num_disks = num_disks
        self.indptr = indptr
        self.sub_disk = sub_disk
        self.sub_nbytes = sub_nbytes
        self.sub_seek = sub_seek
        #: Cache of derived artifacts (list views, per-power-model service
        #: tables) shared by every replay using this plan.
        self._derived: dict = {}

    # ------------------------------------------------------------------ #
    @classmethod
    def for_trace(cls, trace: Trace) -> "ReplayPlan":
        """Precompute the fan-out and seek class of every sub-request.

        Consumes the trace's request *columns* directly — no per-request
        objects are materialized on this path, and no per-request Python
        loop runs: the fan-out and both seek rules are array expressions
        over the whole stream.
        """
        return cls._build(trace.columns, trace.layout, None)

    @classmethod
    def for_columns(
        cls,
        columns: RequestColumns,
        layout,
        carry: SeekCarry | None = None,
    ) -> tuple["ReplayPlan", SeekCarry]:
        """Build a plan for one chunk of a streamed request sequence.

        ``carry`` threads per-disk seek continuity from earlier chunks
        (pass ``None`` for the first chunk); the returned carry — the same
        object, updated in place — goes to the next chunk.  Concatenating
        the per-chunk ``sub_seek`` columns reproduces the whole-trace
        classification byte-for-byte.
        """
        if carry is None:
            carry = SeekCarry()
        return cls._build(columns, layout, carry), carry

    @classmethod
    def _build(
        cls,
        cols: RequestColumns,
        layout,
        carry: SeekCarry | None,
    ) -> "ReplayPlan":
        num_disks = layout.num_disks
        names = cols.array_names
        n = len(cols)
        if n == 0:
            return cls(
                cols,
                num_disks,
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int8),
            )
        aid = cols.array_id
        off = cols.offset
        nb = cols.nbytes
        end = off + nb

        # Striping fan-out: the closed form of Striping.per_disk_bytes,
        # evaluated for all requests at once.  A request spanning stripes
        # ``[first, last]`` touches ``min(span, factor)`` distinct phases,
        # and stripe ``first + j`` is the first in-range stripe of the
        # j-th of them — so a matrix over j (width: the widest request's
        # phase count, never more than the largest factor and typically
        # 1-2) covers every touched phase without enumerating the untouched
        # ones, keeping the cost independent of disk count for small
        # requests.  A phase's share of the extent is its stripe count in
        # range times the stripe size, with the (possibly partial)
        # boundary stripes corrected exactly.
        stripings = [layout.striping(name) for name in names]
        sd = np.array([s.starting_disk for s in stripings], dtype=np.int64)[aid]
        fac = np.array([s.stripe_factor for s in stripings], dtype=np.int64)[aid]
        ss = np.array([s.stripe_size for s in stripings], dtype=np.int64)[aid]
        first = off // ss
        last = (end - 1) // ss
        phases = np.minimum(last - first + 1, fac)
        width = int(phases.max())
        if width == 1:
            # Every request lands on a single phase (one stripe, or a
            # one-disk striping), so the whole extent is that phase's
            # share — no fan-out matrix, no wrap reorder.
            if nb.min() <= 0:
                raise SimulationError("request mapped to no disks")
            sub_disk = sd + first % fac
            sub_nbytes = nb
            indptr = np.arange(n + 1, dtype=np.int64)
            req_of_sub0 = np.arange(n, dtype=np.int64)
            return cls._classify(
                cols, layout, carry, num_disks, names, aid, off, end,
                indptr, sub_disk, sub_nbytes, req_of_sub0,
            )
        j = np.arange(width, dtype=np.int64)[None, :]
        first_c = first[:, None]
        last_c = last[:, None]
        fac_c = fac[:, None]
        ss_c = ss[:, None]
        include = j < phases[:, None]
        lo = first_c + j
        count = np.where(include, (last_c - lo) // fac_c + 1, 0)
        total = count * ss_c
        total = total - np.where(j == 0, off[:, None] - first_c * ss_c, 0)
        hi = lo + (count - 1) * fac_c
        total = total - np.where(
            include & (hi == last_c), (last_c + 1) * ss_c - end[:, None], 0
        )
        include &= total > 0
        counts = include.sum(axis=1)
        if not counts.all():
            raise SimulationError("request mapped to no disks")
        sub_disk = (sd[:, None] + lo % fac_c)[include]
        sub_nbytes = total[include]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Flattening keeps request order but phases in stripe order, which
        # wraps modulo the factor; the engines need per-request sub-requests
        # sorted by disk id.  Requests starting on a phase-0 stripe (the
        # overwhelmingly common aligned case) are already sorted — only
        # re-order when some request actually wraps.
        req_of_sub0 = np.repeat(np.arange(n, dtype=np.int64), counts)
        wrapped = (req_of_sub0[1:] == req_of_sub0[:-1]) & (
            sub_disk[1:] < sub_disk[:-1]
        )
        if wrapped.any():
            by_disk = np.lexsort((sub_disk, req_of_sub0))
            sub_disk = sub_disk[by_disk]
            sub_nbytes = sub_nbytes[by_disk]
        return cls._classify(
            cols, layout, carry, num_disks, names, aid, off, end,
            indptr, sub_disk, sub_nbytes, req_of_sub0,
        )

    @classmethod
    def _classify(
        cls,
        cols: RequestColumns,
        layout,
        carry: SeekCarry | None,
        num_disks: int,
        names,
        aid: np.ndarray,
        off: np.ndarray,
        end: np.ndarray,
        indptr: np.ndarray,
        sub_disk: np.ndarray,
        sub_nbytes: np.ndarray,
        req_of_sub0: np.ndarray,
    ) -> "ReplayPlan":
        # Seek classes.  Per disk, a sub-request whose logical request
        # exactly continues the previous request served by that disk is a
        # stream continuation ("seq"); one resuming the (disk, array)
        # stream after an interruption pays a short seek ("stream");
        # anything else pays the full average seek.  Both rules compare a
        # sub-request with its predecessor in a stable grouping — by disk
        # for "seq", by (disk, array) for "stream" — which :func:`_group`
        # exposes as adjacent elements; a group's head has none.
        m = int(sub_disk.size)
        sub_seek = np.full(m, SEEK_CODES["full"], dtype=np.int8)
        # The disk-order fixup above permutes only within a request, so the
        # request-of-sub map is unchanged by it.
        req_of_sub = req_of_sub0
        if m == len(cols):
            # Single-sub plan: the request-of-sub map is the identity.
            o = off
            e = end
        else:
            o = off[req_of_sub]
            e = end[req_of_sub]

        def adjacent(keys: np.ndarray, nkeys: int):
            """Group the subs by ``keys``: ``(order, eo, oo, hit, heads,
            lasts, present)``, ``eo``/``oo`` the grouped end and begin
            offsets, ``hit`` each sub whose begin is its group
            predecessor's end, ``lasts`` each group's last sub."""
            order, heads, glen, present = _group(keys, nkeys)
            eo = e[order]
            oo = o[order]
            hit = np.empty(m, dtype=bool)
            hit[1:] = eo[:-1] == oo[1:]
            hit[heads] = False
            return order, eo, oo, hit, heads, heads + glen - 1, present

        if m and len(names) == 1:
            # One array: the (disk, array) grouping coincides with the
            # disk grouping and the "stream" adjacency test equals the
            # "seq" test, so a single pass classifies both — "seq" wins
            # every shared hit, exactly as the two-pass assignment order
            # resolves it.  Both carries update so either path continues
            # the classification on later chunks.
            order, eo, oo, hit, heads, lasts, present = adjacent(
                sub_disk, num_disks
            )
            sub_seek[order[hit]] = SEEK_CODES["seq"]
            if carry is not None:
                sl = carry.stream_last
                dl = carry.disk_last
                disks = present.tolist()
                for d_id, p in zip(disks, heads.tolist()):
                    if dl.get(d_id) == (0, oo[p]):
                        sub_seek[order[p]] = SEEK_CODES["seq"]
                for d_id, e_q in zip(disks, eo[lasts].tolist()):
                    sl[(d_id, 0)] = e_q
                    dl[d_id] = (0, e_q)
            return cls(cols, num_disks, indptr, sub_disk, sub_nbytes, sub_seek)

        a = aid[req_of_sub] if m != len(cols) else aid
        if m:
            na = len(names)
            order, eo, oo, hit, heads, lasts, present = adjacent(
                sub_disk * na + a, num_disks * na
            )
            sub_seek[order[hit]] = SEEK_CODES["stream"]
            if carry is not None:
                # Each group's first element has its predecessor in an
                # earlier chunk; the carry holds exactly that predecessor's
                # end offset.  Apply before updating so a one-element group
                # reads the previous chunk, not itself.
                sl = carry.stream_last
                keys = [divmod(k, na) for k in present.tolist()]
                for k, p in zip(keys, heads.tolist()):
                    if sl.get(k) == oo[p]:
                        sub_seek[order[p]] = SEEK_CODES["stream"]
                for k, e_q in zip(keys, eo[lasts].tolist()):
                    sl[k] = e_q

            order, eo, oo, hit, heads, lasts, present = adjacent(
                sub_disk, num_disks
            )
            ao = a[order]
            hit[1:] &= ao[:-1] == ao[1:]
            sub_seek[order[hit]] = SEEK_CODES["seq"]
            if carry is not None:
                dl = carry.disk_last
                disks = present.tolist()
                for d_id, p in zip(disks, heads.tolist()):
                    if dl.get(d_id) == (ao[p], oo[p]):
                        sub_seek[order[p]] = SEEK_CODES["seq"]
                for d_id, q in zip(disks, lasts.tolist()):
                    dl[d_id] = (int(ao[q]), int(eo[q]))

        return cls(cols, num_disks, indptr, sub_disk, sub_nbytes, sub_seek)

    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_subrequests(self) -> int:
        return int(self.sub_disk.size)

    def matches(self, trace: Trace) -> bool:
        """Whether this plan was built for ``trace``'s request stream.

        Directive-bearing copies of a base trace share the same
        :class:`RequestColumns` object, so the common case is an identity
        hit; the equality fallback covers structurally equal streams built
        independently.
        """
        return self.columns is trace.columns or self.columns == trace.columns
