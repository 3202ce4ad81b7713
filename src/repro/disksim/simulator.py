"""Trace-driven replay engine (the paper's DiskSim-like simulator, §4.1).

The application model is synchronous and closed-loop (the paper disables
prefetching and treats array references as blocking accesses):

* the app computes along the trace's *nominal* timeline;
* each logical request fans out to per-disk sub-requests (RAID-0 striping);
  the app blocks until the slowest disk completes;
* every second of response time shifts all later records — which is exactly
  how spin-up waits or low-RPM service turn into execution-time penalty;
* directive records (compiler-inserted calls) execute when the program
  reaches them, i.e. at nominal time plus accumulated delay; oracle
  directives execute at their absolute times.

Execution time is the full compute timeline plus every blocking response;
disk energy is integrated by the :class:`~repro.disksim.disk.Disk` state
machines until the app finishes.

One replay driver (:class:`Replay`, fed chunk by chunk) walks the request
stream merged with the trace and timed (oracle) directive rows
(:data:`~repro.trace.request.DIRECTIVE_ROW`).  Every sub-request outside
a vector window is served by the exact state machine (``Disk.serve``, or
``Disk.serve_faulty`` for a sub-request the fault plan flags), and every
power call goes through :func:`apply_call`, so there is one scalar
implementation of the disk.  At each quiescent run — requests with no
trace directive between them — the driver probes the vectorized kernel
(:func:`_run_vector`: service times as table lookups, one FIFO queue per
disk, :class:`_Queues`, the closed-loop ``delay`` chain as a fixed-point
scan, idle/active accrual in one fused fold, :func:`_fold_disks`).  A
window covers only requests whose disks are all *plain*: no transition in
flight, not in standby, no pending power call or spin-up chain, and no
autonomous spin-down due.  A disk that is not plain is *hot*; requests
touching it are served by ``Disk.serve``.

A scalar run after a probe ends only where disk state can change: at the
next timed directive, at the earliest end of a hot disk's in-flight
transition, at the earliest instant an autonomous spin-down could fire,
right after the request that fires an overdue one, or right after a
fault-flagged request when a window fits before the next one.  Otherwise
it runs to the next trace directive, not for a fixed number of requests.

``engine="segmented"`` (the default) runs the driver with vector windows
on.  ``engine="stepwise"`` is the same driver with them off: every
sub-request runs through ``Disk.serve``.  It is the reference the
equivalence suites compare against, and the route for reactive
controllers (adaptive TPM, closed-loop reactive DRPM), whose
``on_request_complete`` hook observes every sub-request.  Open-loop
reactive DRPM with no directive rows and no fault plan stays segmented:
each disk is then an independent queue whose level changes only at its
own window boundaries, and :func:`_run_drpm` solves each chunk per disk
with the controller's decisions as barriers in the queues.  Timeline
recording is engine-independent: ``Disk`` emits the scalar segments, and
the fused vector accounting emits each window's segments from the arrays
it folds.

Every disk is a FIFO queue: a sub-request starts at the later of its
issue time and the disk's previous completion, the Lindley recursion
``c_j = max(a_j, c_{j-1}) + s_j`` that ``Disk.serve`` evaluates one
request at a time.  Inside a busy period that is a strict left fold from
the period's first arrival, so the kernel finds the period boundaries
(guessed from the recursion's max-plus form, then checked exactly) and
folds each period with ``np.add.accumulate``, bit for bit (:func:`_fifo`);
a disk whose guessed boundary fails its check is served on from there in
order (:func:`_lindley`).  Idle time accrues only between busy periods.
Open-loop replays, whose recorded arrivals routinely queue, therefore
stay on the vector path.  In closed loop queueing is a rounding edge: the
app blocks until the slowest disk of request ``i`` completes, so
``t_exec[i+1] = completion[i] + (nominal[i+1] - nominal[i]) >=
completion[i]`` up to rounding, and with nothing queued a sub-request
starts at its issue time and completes at ``t_exec + svc``.  Where
rounding (or a nominal-time regression within the trace order tolerance)
puts an issue time an ulp before its disk's last completion, the side of
that tie every later request lands on depends on the exact delay bits;
the kernel then serves the rest of the window in stream order with
``Disk.serve``'s arithmetic (:func:`_chain`).
"""

from __future__ import annotations

import logging
import time
from array import array
from bisect import bisect_left, bisect_right
from math import inf

import numpy as np

from .. import obs
from ..obs import metrics as _metrics
from .interface import Controller
from ..power.planner import drpm_window_step
from ..trace.request import (
    ACT_SET_RPM, ACT_SPIN_DOWN, ACT_SPIN_UP, RequestColumns, Trace, check_directives,
)
from ..trace.stream import TraceStream
from ..util.errors import SimulationError
from .disk import Disk, sequential_sum
from .timeline import CAUSE_DRPM_WINDOW, CAUSE_EXTERNAL
from .params import SubsystemParams
from .powermodel import PowerModel
from .replay import ReplayPlan, _group
from .stats import ResponseSummary, SimulationResult

__all__ = [
    "Replay",
    "simulate",
    "apply_call",
    "replay_coverage",
    "reset_replay_coverage",
    "VECTOR_MIN_SUBREQUESTS",
    "ROUTING",
]

logger = logging.getLogger(__name__)

#: Busy-interval sink of a replay: per disk, the start and end times of its
#: serviced sub-requests, as unboxed float64 ``array("d")`` columns.
BusySink = tuple[list[array], list[array]]

#: Clock used to charge directive call overhead (Tm), paper §4.1.
_CLOCK_HZ = 750e6

#: Minimum *sub-request* count (after hot/fault truncation) for the NumPy
#: batch kernel.  The kernel carries ~0.2 ms of fixed array setup per
#: window while ``Disk.serve`` costs about a microsecond per sub, so
#: shorter windows (e.g. single-disk request streams cut every ~24
#: requests by DRPM level directives) stay scalar.
VECTOR_MIN_SUBREQUESTS = 256

#: The default engine's routing rule in manifest-ready form: a segmented
#: replay opens vector windows unless a reactive controller observes every
#: sub-request, except open-loop reactive DRPM with no directive rows and
#: no fault plan, which the vector kernel solves per disk.  The
#: vector-window gate rides along so a run manifest records the full
#: routing policy that produced its numbers.
ROUTING: dict = {
    "rule": (
        "segmented unless the controller is reactive; open-loop reactive "
        "DRPM without directive rows or faults stays segmented"
    ),
    "vector_min_subrequests": VECTOR_MIN_SUBREQUESTS,
}

#: Engine observability: how much of the replay ran on which path.
#: ``replays_segmented`` / ``replays_stepwise`` count replays with vector
#: windows on / off.  ``subrequests_vector`` counts sub-requests served by
#: the vector kernel, ``subrequests_scalar`` those a segmented replay
#: served through ``Disk.serve`` between windows, and
#: ``subrequests_stepwise`` every sub-request of a stepwise replay.
#: ``bailouts`` stays 0: it counted windows that handed a queued request
#: to ``Disk.serve``, which the queue-aware kernel never does, and it is
#: kept while the benchmark reads it.  ``segments_fused`` counts vector
#: windows, all of which run the fused SoA accounting batch
#: (``segments_fused_multirpm``: the subset whose disks held mixed RPM
#: levels).  ``directive_edits`` counts the
#: power calls a segmented replay applies between vector windows.
#:
#: The counters are a plain module-global dict — deliberately: they sit on
#: the hottest loops and a registry indirection is measurable there.  They
#: count in the one process that runs the replays, observability on or
#: off; run manifests record them through :func:`replay_coverage`.
REPLAY_COVERAGE: dict[str, int] = {}


def reset_replay_coverage() -> None:
    """Zero the engine coverage counters."""
    REPLAY_COVERAGE.update(
        replays_segmented=0,
        replays_stepwise=0,
        segments_fused=0,
        segments_fused_multirpm=0,
        subrequests_vector=0,
        subrequests_scalar=0,
        subrequests_stepwise=0,
        bailouts=0,
        directive_edits=0,
    )


reset_replay_coverage()


def replay_coverage() -> dict[str, int]:
    """A snapshot of the engine coverage counters."""
    return dict(REPLAY_COVERAGE)

def apply_call(
    disk: Disk, t: float, action: int, rpm: int, cause: str = CAUSE_EXTERNAL
) -> None:
    """Apply one explicit power-management call to a disk at time ``t``.

    ``action`` and ``rpm`` are a directive row's columns
    (:data:`~repro.trace.request.DIRECTIVE_ROW`).  ``SET_RPM`` is checked
    first: the DRPM-family schemes issue an order of magnitude more calls
    than the TPM family, and all of theirs are RPM shifts.

    ``cause`` tags the resulting transition segment in an attached
    timeline recorder (``"directive:<k>"``/``"oracle:<k>"`` from the
    replay engines, :data:`~repro.disksim.timeline.CAUSE_EXTERNAL` for
    direct callers); it is ignored when no recorder is attached.
    """
    if action == ACT_SET_RPM:
        disk.set_rpm(t, rpm, cause)
    elif action == ACT_SPIN_DOWN:
        disk.spin_down(t, cause)
    elif action == ACT_SPIN_UP:
        disk.spin_up(t, cause)
    else:
        raise SimulationError(f"unknown power action code {action}")


# ---------------------------------------------------------------------- #
# Per-plan derived geometry and per-power-model service tables
# ---------------------------------------------------------------------- #
class _PlanGeometry:
    """List/array views of a plan's CSR columns, cached across replays.

    Everything here is scheme-invariant, so one geometry serves all 7
    replays of a suite (the plan's ``_derived`` cache keeps it alive).
    It holds the plan's columns, not the plan: a back reference would make
    plan and geometry a cycle that only the cyclic collector frees, so a
    dropped plan's list views would outlive it by a collection.
    The views are built in lazy groups — the driver's per-request scans
    need the per-request lists, ``Disk.serve`` the flat per-sub lists, the
    vector kernel the arrays (``counts``/``nbytes_f``) and the per-request
    disk bitmasks — so a replay pays only for the path it takes.
    """

    __slots__ = (
        "_times",
        "_indptr",
        "_sub_disk",
        "_sub_nbytes",
        "_sub_seek",
        "req_times",
        "indptr_l",
        "disk_l",
        "nb_l",
        "seek_l",
        "counts",
        "single_sub",
        "nbytes_f",
        "reqmask",
    )

    def __init__(self, plan: ReplayPlan):
        self._indptr = plan.indptr
        self._sub_disk = plan.sub_disk
        self._sub_nbytes = plan.sub_nbytes
        self._sub_seek = plan.sub_seek
        self._times = plan.columns.nominal_time_s
        self.req_times = None
        self.indptr_l = None
        self.disk_l = None
        self.nb_l = None
        self.seek_l = None
        self.counts = None
        self.single_sub = False
        self.nbytes_f = None
        self.reqmask = None

    def request_lists(self) -> tuple[list, list]:
        """Per-request nominal times and CSR offsets as Python lists, for
        the driver's per-request scans (idempotent, cached).  Lazy so a
        replay that only opens vector windows, which read boundary
        scalars, never pays the O(requests) ``tolist`` conversions."""
        if self.req_times is None:
            self.req_times = self._times.tolist()
            self.indptr_l = self._indptr.tolist()
        return self.req_times, self.indptr_l

    def scalar_views(self) -> tuple[list, list, list]:
        """Per-sub Python lists for ``Disk.serve`` (idempotent, cached).
        Lazy so an all-vector replay never pays the O(subs) ``tolist``
        conversions."""
        if self.disk_l is None:
            self.disk_l = self._sub_disk.tolist()
            self.nb_l = self._sub_nbytes.tolist()
            self.seek_l = self._sub_seek.tolist()
        return self.disk_l, self.nb_l, self.seek_l

    def nbytes_float(self) -> np.ndarray:
        """Per-sub byte counts as float64 (idempotent, cached)."""
        if self.nbytes_f is None:
            self.nbytes_f = self._sub_nbytes.astype(np.float64)
        return self.nbytes_f

    def vector_views(self) -> None:
        """Build the batch-kernel arrays (idempotent, cached)."""
        if self.counts is None:
            indptr = self._indptr
            self.counts = np.diff(indptr)
            self.single_sub = bool(indptr[-1] == indptr.size - 1)
        self.nbytes_float()

    def request_masks(self) -> list:
        """Per-request touched-disk bitmasks (idempotent, cached)."""
        if self.reqmask is None:
            if self._indptr.size > 1:
                bits = np.left_shift(np.int64(1), self._sub_disk)
                self.reqmask = np.bitwise_or.reduceat(
                    bits, self._indptr[:-1]
                ).tolist()
            else:
                self.reqmask = []
        return self.reqmask


def _geometry(plan: ReplayPlan) -> _PlanGeometry:
    geom = plan._derived.get("geom")
    if geom is None:
        geom = _PlanGeometry(plan)
        plan._derived["geom"] = geom
    return geom


class _ServiceTables:
    """Per-sub-request service times at each RPM level, built lazily.

    Row ``level_row[rpm]`` is ``service_seek_base_s[li, code] + nbytes /
    service_rate_bps[li]`` per sub-request: the power model's one service
    table, which ``Disk.serve`` and ``PowerModel.service_time_s`` read
    entry by entry, so every value is bit-equal to theirs.  Cached on the
    plan keyed by (hashable, frozen) power model, so the rows are shared
    across every replay of a suite.
    """

    __slots__ = (
        "base",
        "rate",
        "level_row",
        "_geom",
        "_indptr",
        "_np",
        "_mxnp",
    )

    def __init__(self, pm: PowerModel, geom: _PlanGeometry, plan: ReplayPlan):
        self.base = pm.service_seek_base_s
        self.rate = pm.service_rate_bps
        self.level_row = pm.level_index
        self._geom = (plan.sub_seek, geom.nbytes_float())
        self._indptr = plan.indptr
        self._np: dict[int, np.ndarray] = {}
        self._mxnp: dict[int, np.ndarray] = {}

    def row_np(self, li: int) -> np.ndarray:
        row = self._np.get(li)
        if row is None:
            seek_codes, nbytes_f = self._geom
            row = self.base[li][seek_codes] + nbytes_f / self.rate[li]
            self._np[li] = row
        return row

    def max_row_np(self, li: int) -> np.ndarray:
        """Per-request max service time at one level, whole stream.

        Cached so kernel re-entries after a directive or window cut never
        recompute window maxima (max is order-independent, so the
        full-stream ``maximum.reduceat`` equals any windowed one).
        """
        mx = self._mxnp.get(li)
        if mx is None:
            row = self.row_np(li)
            if row.size:
                mx = np.maximum.reduceat(row, self._indptr[:-1])
            else:
                mx = np.empty(0)
            self._mxnp[li] = mx
        return mx


def _service_tables(plan: ReplayPlan, pm: PowerModel, geom: _PlanGeometry) -> _ServiceTables:
    cache = plan._derived.setdefault("svc", {})
    tables = cache.get(pm)
    if tables is None:
        tables = _ServiceTables(pm, geom, plan)
        cache[pm] = tables
    return tables


# ---------------------------------------------------------------------- #
# Vector kernel
# ---------------------------------------------------------------------- #
def _behind(comp: np.ndarray, heads: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Each grouped sub's predecessor completion on its disk (``seed``,
    the disk's cursor, at a group head)."""
    prev = np.empty_like(comp)
    prev[1:] = comp[:-1]
    prev[heads] = seed
    return prev


def _seg_fold(
    seeds: np.ndarray,
    lanes: list[np.ndarray],
    lens: np.ndarray,
    partials: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Left-fold every lane over consecutive segments: ``seeds[j, p] +
    lane_j[s_0] + lane_j[s_1] + ...`` over segment ``p``'s ``lens[p]``
    values, bit for bit the scalar ``+=`` chain.

    Returns ``(totals, running)``: the ``(lanes, segments)`` totals and,
    with ``partials``, the ``(lanes, values)`` running totals (else
    ``None``).  Segments are bucketed by power-of-two length, and each
    bucket's rows, one per (lane, segment), are packed into one padded
    matrix, seeded in column 0 and run through a single
    ``np.add.accumulate`` along its rows, a strictly sequential fold.
    Each result is read at its segment's own last column, so padding
    never reaches one (an empty segment's total is its seed, bit for
    bit).  A bucket pads to under twice its shortest segment, so evenly
    sized segments make one matrix, which reads the lanes whole.
    """
    nl, P = seeds.shape
    totals = np.empty((nl, P))
    running = np.empty((nl, int(lens.sum()))) if partials else None
    heads = np.cumsum(lens) - lens
    exps = np.frexp(lens)[1]
    for e in np.unique(exps).tolist():
        sel = np.flatnonzero(exps == e)
        B = sel.size
        gl = lens[sel]
        first = np.cumsum(gl) - gl
        stride = int(gl.max()) + 1
        mat = np.zeros((nl * B, stride))
        mat[:, 0] = seeds[:, sel].ravel()
        # A segment's i-th value lands in column i + 1 of its rows.
        row0 = np.arange(B, dtype=np.int64) * stride
        idx = np.arange(int(gl.sum()), dtype=np.int64)
        pos = idx + np.repeat(row0 - first + 1, gl)
        src = slice(None) if B == P else idx + np.repeat(heads[sel] - first, gl)
        blocks = mat.reshape(nl, B * stride)
        for block, lane in zip(blocks, lanes):
            block[pos] = lane[src]
        np.add.accumulate(mat, axis=1, out=mat)
        totals[:, sel] = blocks[:, row0 + gl]
        if partials:
            running[:, src] = blocks[:, pos]
    return totals, running


def _busy_periods(a0: np.ndarray, svc: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Completions of a FIFO queue whose busy periods start where ``st``
    is set: each period is the running left fold of its ``svc`` seeded
    with its first arrival ``a0`` (:func:`_seg_fold`), bit-equal to
    ``Disk.serve``'s ``start + svc`` chain."""
    starts = np.flatnonzero(st)
    lens = np.diff(starts, append=a0.size)
    return _seg_fold(a0[starts][None], [svc], lens, partials=True)[1][0]


def _period_starts(
    a: np.ndarray,
    a0: np.ndarray,
    svc: np.ndarray,
    heads: np.ndarray,
    queued: np.ndarray,
) -> np.ndarray:
    """Guess which subs start a busy period, from the max-plus form of the
    Lindley recursion, ``c_j = S_j + max_{k<=j}(a0_k - S_{k-1})``.

    Only the disks with a sub ``queued`` behind its predecessor's ``a +
    svc`` completion can have a period longer than one sub; ``a0`` is the
    arrival with each disk's first sub raised to its cursor.
    """
    n = a.size
    st = np.ones(n, dtype=bool)
    ends = np.append(heads[1:], n).tolist()
    heads_l = heads.tolist()
    for g in np.flatnonzero(np.logical_or.reduceat(queued, heads)).tolist():
        lo = heads_l[g]
        hi = ends[g]
        s = svc[lo:hi]
        tot = np.cumsum(s)
        c = tot + np.maximum.accumulate(a0[lo:hi] - (tot - s))
        st[lo + 1:hi] = a[lo + 1:hi] >= c[:-1]
    return st


def _fifo(
    a: np.ndarray, svc: np.ndarray, heads: np.ndarray, seed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-disk FIFO service of subs grouped by disk (``heads``).

    Each disk follows the Lindley recursion ``c_j = max(a_j, c_{j-1}) +
    s_j`` from ``c_{-1} = seed``, its cursor: a disk with no transition in
    flight has ``ready_s <= cursor_s``, so ``serve``'s start ``max(t,
    cursor, ready)`` is ``max(t, cursor)``.  Returns ``(start, comp,
    prev, bad)``: service starts, completions, each sub's predecessor
    completion (:func:`_behind`), and ``None`` or the mask of subs whose
    busy-period boundary failed its check.  ``start`` is ``a`` itself
    when nothing queues, the common case, which costs one comparison.

    Inside a busy period ``serve`` computes ``start = c_{j-1}``, a strict
    left fold from the period's first arrival, so exact completions need
    only the period boundaries.  They are guessed from the max-plus form
    ``c_j ~ S_j + max_{k<=j}(a_k - S_{k-1})`` (``S``: the disk's prefix
    sums of service times; :func:`_period_starts`), folded exactly
    (:func:`_busy_periods`), and checked: ``a_j >= c_{j-1}`` where a
    period starts, ``a_j <= c_{j-1}`` inside one.  The guess is off only
    at near-ties, within the rounding of ``S``.  Every value before a
    disk's first failed check is exact; the failed subs are returned in
    ``bad``, and :func:`_lindley` serves each such disk on in order.
    """
    comp = a + svc
    prev = _behind(comp, heads, seed)
    queued = a < prev
    if not queued.any():
        return a, comp, prev, None
    a0 = a.copy()
    a0[heads] = np.maximum(a[heads], seed)
    st = _period_starts(a, a0, svc, heads, queued)
    comp = _busy_periods(a0, svc, st)
    prev = _behind(comp, heads, seed)
    # A tie ``a_j == c_{j-1}`` starts service at the same instant on
    # either side of a boundary, so it fits both.
    bad = np.where(st, a < prev, a > prev)
    bad[heads] = False
    return np.maximum(a, prev), comp, prev, bad if bad.any() else None


def _lindley(
    a: np.ndarray, svc: np.ndarray, heads: np.ndarray, seed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-disk FIFO service of subs grouped by disk, the open-loop
    queue solve: :func:`_fifo`, with each disk whose busy-period check
    failed served on from its first failed sub with ``Disk.serve``'s
    arithmetic (the disks are independent when no delay feeds back).
    Returns ``(start, comp, prev)``."""
    start, comp, prev, bad = _fifo(a, svc, heads, seed)
    if bad is None:
        return start, comp, prev
    ends = np.append(heads[1:], a.size).tolist()
    where = np.flatnonzero(bad)
    groups, first = np.unique(
        np.searchsorted(heads, where, side="right") - 1, return_index=True
    )
    for g, lo in zip(groups.tolist(), where[first].tolist()):
        hi = ends[g]
        c = float(comp[lo - 1])
        st_l = []
        c_l = []
        for t, s in zip(a[lo:hi].tolist(), svc[lo:hi].tolist()):
            if c > t:
                t = c
            c = t + s
            st_l.append(t)
            c_l.append(c)
        start[lo:hi] = st_l
        comp[lo:hi] = c_l
    return start, comp, _behind(comp, heads, seed)


def _chain(
    tn: list,
    delay: float,
    ptr: list,
    grp: list,
    svc: list,
    cur: list,
    tnext: float,
) -> tuple[list, list, list, float]:
    """Serve closed-loop requests in stream order, one sub at a time,
    with ``Disk.serve``'s timing arithmetic on plain floats.

    Request ``i`` (subs ``ptr[i]:ptr[i + 1]``) issues at ``tn[i] +
    delay``; each sub starts at ``max(t, c)``, ``c`` its disk's last
    completion (``cur[grp[j]]``, updated in place); the response is the
    latest completion minus the issue time, and it feeds the delay.
    Stops before the first request issued at or after ``tnext``.  Returns
    the responses, sub starts and completions, and the delay.
    """
    r_out: list = []
    st_out: list = []
    c_out: list = []
    for i in range(len(tn)):
        t = tn[i] + delay
        if t >= tnext:
            break
        latest = t
        for j in range(ptr[i], ptr[i + 1]):
            g = grp[j]
            c = cur[g]
            start = t if t > c else c
            c = start + svc[j]
            cur[g] = c
            st_out.append(start)
            c_out.append(c)
            if c > latest:
                latest = c
        r = latest - t
        r_out.append(r)
        delay += r
    return r_out, st_out, c_out, delay


class _Queues:
    """A vector window's sub-requests as one FIFO queue per disk.

    The subs are grouped by disk with one stable sort (``order``,
    :func:`~repro.disksim.replay._group`), so each disk's subs stay in
    stream order, which its queue requires.  Window-local grouping keeps
    the kernel O(window + disks) (a radix sort on a narrow key); a global
    per-disk index would cost O(disks x requests) to build.  ``present``
    lists the disks the window touches, ``heads``/``glen`` the start and
    length of each one's group, ``seed`` their cursors and ``svc`` the
    grouped service times.  ``counts`` holds each request's sub count and
    ``ptr`` its first sub (both ``None`` when every request has one).
    """

    __slots__ = (
        "order", "heads", "glen", "present", "seed", "svc", "svc_stream",
        "counts", "ptr",
    )

    def __init__(
        self,
        sub_disk: np.ndarray,
        counts: np.ndarray | None,
        svc: np.ndarray,
        disks: list[Disk],
    ):
        self.order, self.heads, self.glen, self.present = _group(
            sub_disk, len(disks)
        )
        self.seed = np.array([disks[d].cursor_s for d in self.present.tolist()])
        self.svc_stream = svc
        self.svc = svc[self.order]
        self.counts = counts
        self.ptr = None if counts is None else np.cumsum(counts) - counts

    def arrivals(self, t_arr: np.ndarray) -> np.ndarray:
        """Each sub's request issue time, grouped by disk."""
        a = t_arr if self.counts is None else np.repeat(t_arr, self.counts)
        return a[self.order]

    def latest(self, comp: np.ndarray) -> np.ndarray:
        """Each request's latest sub completion."""
        stream = np.empty_like(comp)
        stream[self.order] = comp
        if self.ptr is None:
            return stream
        return np.maximum.reduceat(stream, self.ptr)

    def first_request(self, mask: np.ndarray) -> int:
        """The first request holding a sub of the grouped ``mask``."""
        sub = int(self.order[mask].min())
        if self.ptr is None:
            return sub
        return int(np.searchsorted(self.ptr, sub, side="right")) - 1

    def solve(
        self,
        tn: np.ndarray,
        delay: float,
        m: np.ndarray,
        tnext: float,
        open_loop: bool,
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
        """Serve requests with nominal times ``tn`` and per-request maximum
        service times ``m`` from ``delay`` on.

        Returns ``(cut, resp, start, comp, prev, delay)``: the number of
        requests served (all issued before ``tnext``), their responses,
        the grouped subs' service starts, completions and predecessor
        completions (exact for the subs of the first ``cut`` requests), and
        the delay after them.
        """
        w = tn.size
        w_ok = w
        if open_loop:
            # Arrivals come from the trace plus the frozen delay offset,
            # and responses never feed back: one queue solve.
            t_arr = tn + delay
            a = self.arrivals(t_arr)
            start, comp, prev = _lindley(a, self.svc, self.heads, self.seed)
            bad = None
            # A response is the latest sub completion minus the issue
            # time; with nothing queued that is ``t + max svc`` (rounding
            # is monotone), read from the per-request maxima.
            latest = t_arr + m if start is a else self.latest(comp)
            resp = latest - t_arr
            pre = None
        else:
            # Closed-loop delay feedback: each response is rounded before
            # it shifts the next issue time, so the chain is sequential by
            # construction.  Solved bit-exactly without a per-request
            # Python loop by fixed-point iteration: guess the responses,
            # rebuild the delay prefix with ``np.add.accumulate`` (a
            # sequential left fold, bit-equal to the scalar ``+=`` chain),
            # recompute each response from its implied issue time, and
            # repeat until the array stops changing — typically one extra
            # pass, since a response only moves when an upstream rounding
            # flip reaches it.  A fixpoint satisfies the scalar recurrence
            # exactly, and every value before the first break depends only
            # on earlier responses, so the surviving prefix is the scalar
            # loop's prefix bit for bit.  The synchronous app blocks on
            # each request, so the passes assume no queueing, and the
            # settled issue times are then checked against every disk's
            # queue.
            acc = np.empty(w + 1)
            acc[0] = delay
            resp = m
            for _ in range(8):
                acc[1:] = resp
                pre = np.add.accumulate(acc)
                t_arr = tn + pre[:-1]
                new_resp = (t_arr + m) - t_arr
                if np.array_equal(new_resp, resp):
                    break
                resp = new_resp
            else:
                # Still moving after the last pass: the window ends before
                # the first response that changed, and the driver
                # re-enters the kernel for the rest.  Pass ``i`` settles
                # response ``i``, so the prefix is never empty.
                w_ok = int(np.flatnonzero(resp != acc[1:])[0])
            start = a = self.arrivals(t_arr)
            comp = a + self.svc
            prev = _behind(comp, self.heads, self.seed)
            bad = a < prev
            if not bad.any():
                bad = None
        late = np.flatnonzero(t_arr[:w_ok] >= tnext)
        cut = int(late[0]) if late.size else w_ok
        q = cut if bad is None else min(cut, self.first_request(bad))
        if q < cut:
            # From request ``q`` on the arrays above are not the queues':
            # a sub queues.  A closed-loop sub queues only where rounding
            # puts its issue time an ulp or so before its disk's last
            # completion, and the side of that tie each later request
            # lands on depends on the exact delay bits every earlier tie
            # left, a chain no fixpoint settles in a few passes.  The rest
            # of the window is served in stream order instead
            # (:func:`_chain`), from the exact state at ``q``.
            order = self.order
            sq = q if self.ptr is None else int(self.ptr[q])
            done = np.add.reduceat(order < sq, self.heads, dtype=np.int64)
            cur = np.where(
                done > 0, comp[self.heads + np.maximum(done, 1) - 1], self.seed
            )
            grp = np.empty(order.size, dtype=np.int64)
            grp[order] = np.repeat(np.arange(self.heads.size), self.glen)
            tail = np.arange(q, w + 1) if self.ptr is None else np.append(
                self.ptr[q:], order.size
            )
            r_c, st_c, c_c, delay = _chain(
                tn[q:].tolist(),
                float(pre[q]),
                (tail - sq).tolist(),
                grp[sq:].tolist(),
                self.svc_stream[sq:].tolist(),
                cur.tolist(),
                tnext,
            )
            cut = q + len(r_c)
            start_st = np.empty_like(comp)
            start_st[order] = start
            comp_st = np.empty_like(comp)
            comp_st[order] = comp
            start_st[sq:sq + len(st_c)] = st_c
            comp_st[sq:sq + len(c_c)] = c_c
            start = start_st[order]
            comp = comp_st[order]
            prev = _behind(comp, self.heads, self.seed)
            resp = np.concatenate((resp[:q], r_c))
        elif pre is not None:
            delay = float(pre[cut])
        return cut, resp, start, comp, prev, delay

    def commit(
        self,
        nsub: int,
        start: np.ndarray,
        comp: np.ndarray,
        prev: np.ndarray,
        nbytes: np.ndarray,
        disks: list[Disk],
        pm: PowerModel,
        rpm_counts: dict[int, int] | None,
        busy: BusySink | None,
        recorder,
    ) -> None:
        """Accrue the window's first ``nsub`` subs (stream order; their
        :meth:`solve` values) on their disks with :func:`_fold_disks`."""
        order = self.order
        svc = self.svc
        glen = self.glen
        pdisks = [disks[d] for d in self.present.tolist()]
        if nsub < order.size:
            # Each disk keeps a prefix of its group, whose values do not
            # depend on the subs dropped after it.
            keep = order < nsub
            glen = np.add.reduceat(keep, self.heads, dtype=np.int64)
            order = order[keep]
            start = start[keep]
            prev = prev[keep]
            svc = svc[keep]
            comp = comp[keep]
            kept = glen > 0
            if not kept.all():
                glen = glen[kept]
                pdisks = [d for d, kp in zip(pdisks, kept.tolist()) if kp]
        level = pm.level_index
        li_s = np.repeat(
            np.array([level[d.rpm] for d in pdisks], dtype=np.int64), glen
        )
        _fold_disks(
            pdisks, glen, start, prev, svc, comp, nbytes[order], li_s, pm,
            rpm_counts, busy, recorder,
        )


def _fold_disks(
    pdisks: list[Disk],
    glen: np.ndarray,
    td_s: np.ndarray,
    prev_s: np.ndarray,
    svc_s: np.ndarray,
    comp_s: np.ndarray,
    nbytes_s: np.ndarray,
    li_s: np.ndarray,
    pm: PowerModel,
    rpm_counts: dict[int, int] | None,
    busy: BusySink | None,
    recorder,
    shifts: dict[int, list] | None = None,
) -> None:
    """Fused accounting of one vector window over the disks ``pdisks``.

    The per-sub arrays hold those disks' subs grouped by disk, in stream
    order within each disk (``glen[p]`` subs for ``pdisks[p]``): service
    starts ``td_s``, each sub's predecessor completion ``prev_s`` (the
    disk's cursor at its first sub), completions ``comp_s`` from
    :func:`_fifo` and RPM level rows ``li_s`` (``pm.level_index``; a
    reactive DRPM disk changes level mid-window, :func:`_run_drpm`).
    Idle time ``td_s - prev_s`` is exactly ``0.0`` inside a busy period,
    so it accrues only between periods.  Every accrual is a sequential
    left fold per disk — idle and active time and energy, and idle time
    at each level the window touches — and all of them run through
    :func:`_seg_fold`, bit for bit the scalar ``+=`` chains.  The
    disks' ``rpm`` is the caller's to set.

    Busy intervals (``busy`` given) are the per-disk slices of the
    service-start and completion arrays.  Timeline segments (``recorder``
    given) come from the same arrays: per sub, an idle segment from the
    previous completion to the service start (empty inside a busy period,
    and dropped by the recorder), then a service segment whose
    explicit duration is the *table* service time — ``(td + svc) - td``
    differs from ``svc`` in the last bits, and the fold accrued ``svc``.
    ``shifts`` maps a sub to the ``(state, start, end, power, rpm,
    cause)`` transition segments recorded ahead of it.
    """
    P = len(pdisks)
    heads = np.zeros(P, dtype=np.int64)
    np.cumsum(glen[:-1], out=heads[1:])
    dur = td_s - prev_s
    levels = pm.levels
    iw_s = np.array([pm._idle_w_by_level[r] for r in levels])[li_s]
    aw_s = np.array([pm._active_w_by_level[r] for r in levels])[li_s]
    seeds = np.empty((4, P))
    for p, d in enumerate(pdisks):
        st = d.stats
        seeds[0, p] = st.time_s["idle"]
        seeds[1, p] = st.energy_j["idle"]
        seeds[2, p] = st.time_s["active"]
        seeds[3, p] = st.energy_j["active"]
    finals = _seg_fold(
        seeds, [dur, dur * iw_s, svc_s, svc_s * aw_s], glen
    )[0].tolist()
    # The idle time by RPM folds one level the window touches at a time
    # (a DRPM window may touch all of them): the idle durations at that
    # level, zero at the others.
    lo, hi = int(li_s.min()), int(li_s.max())
    for li in range(lo, hi + 1):
        if lo == hi:
            n, idle = li_s.size, dur
        else:
            at = li_s == li
            n = int(np.count_nonzero(at))
            if not n:
                continue
            idle = np.where(at, dur, 0.0)
        rpm = levels[li]
        if rpm_counts is not None:
            rpm_counts[rpm] = rpm_counts.get(rpm, 0) + n
        seed = [[d.stats.idle_time_by_rpm.get(rpm, 0.0) for d in pdisks]]
        totals = _seg_fold(np.array(seed), [idle], glen)[0][0].tolist()
        dmax = np.maximum.reduceat(idle, heads).tolist()
        for p, disk in enumerate(pdisks):
            by_rpm = disk.stats.idle_time_by_rpm
            # A level gains a key only where some idle duration is
            # positive, as ``Disk._settle_idle`` creates it.
            if rpm in by_rpm or dmax[p] > 0:
                by_rpm[rpm] = totals[p]
    lasts = heads + glen - 1
    nbytes_g = np.add.reduceat(nbytes_s, heads).tolist()
    td_last = td_s[lasts].tolist()
    comp_last = comp_s[lasts].tolist()
    glen_l = glen.tolist()
    for p, disk in enumerate(pdisks):
        st = disk.stats
        st.time_s["idle"] = finals[0][p]
        st.energy_j["idle"] = finals[1][p]
        st.time_s["active"] = finals[2][p]
        st.energy_j["active"] = finals[3][p]
        st.num_requests += glen_l[p]
        st.bytes_served += nbytes_g[p]
        disk.last_service_start_s = td_last[p]
        end = comp_last[p]
        disk.cursor_s = end
        disk.ready_s = end
        disk.idle_anchor_s = end
        disk.last_request_end_s = end
        disk._auto_armed = True
    if busy is not None:
        starts, ends = busy
        lo = 0
        for p, disk in enumerate(pdisks):
            hi = lo + glen_l[p]
            starts[disk.disk_id].frombytes(td_s[lo:hi].tobytes())
            ends[disk.disk_id].frombytes(comp_s[lo:hi].tobytes())
            lo = hi
    if recorder is None:
        return
    td_l = td_s.tolist()
    comp_l = comp_s.tolist()
    rec_fn = recorder.record
    prev_l = prev_s.tolist()
    svc_l = svc_s.tolist()
    rpm_l = np.asarray(levels)[li_s].tolist()
    iw_l = iw_s.tolist()
    aw_l = aw_s.tolist()
    shifts = shifts or {}
    lo = 0
    for p, disk in enumerate(pdisks):
        hi = lo + glen_l[p]
        d_id = disk.disk_id
        for i in range(lo, hi):
            for seg in shifts.get(i, ()):
                rec_fn(d_id, *seg)
            t_i = td_l[i]
            rpm_i = rpm_l[i]
            rec_fn(d_id, "idle", prev_l[i], t_i, iw_l[i], rpm_i)
            rec_fn(
                d_id, "active", t_i, comp_l[i], aw_l[i], rpm_i, "", svc_l[i]
            )
        lo = hi


def _run_vector(
    plan: ReplayPlan,
    geom: _PlanGeometry,
    tables: _ServiceTables,
    pm: PowerModel,
    disks: list[Disk],
    ri: int,
    we: int,
    delay: float,
    tnext: float,
    nonplain: int,
    responses: array,
    busy: BusySink | None,
    rpm_counts: dict[int, int] | None = None,
    recorder=None,
    open_loop: bool = False,
) -> tuple[int, float]:
    """Batch-replay requests ``[ri, we)``; all touched disks are plain.

    Every disk is a FIFO queue (:class:`_Queues`), so a request arriving
    while its disk is still busy waits on the vector path exactly as it
    does in ``Disk.serve``.  Returns ``(next_request, delay)``: the window
    stops before the first request issued at or after ``tnext``, and may
    end earlier when the closed-loop delay fixpoint does not settle; the
    driver then re-enters the kernel.  ``busy`` (given iff busy intervals
    are collected) and ``recorder`` receive the window's intervals and
    timeline segments.
    """
    geom.vector_views()
    indptr = plan.indptr
    s0 = int(indptr[ri])
    s1 = int(indptr[we])
    level_row = tables.level_row
    rpm_set = {
        d.rpm
        for d in disks
        if not (nonplain >> d.disk_id) & 1
    }
    rows = {level_row[rpm] for rpm in rpm_set}
    if len(rows) == 1:
        # Common case: every disk the window can touch sits at one RPM
        # level, so the per-sub service times and per-request maxima come
        # from full-stream rows cached across segments and replays.
        li = rows.pop()
        svc_win = tables.row_np(li)[s0:s1]
        m_win = tables.max_row_np(li)[ri:we]
    else:
        per_disk_row = np.array([level_row[d.rpm] for d in disks], dtype=np.int64)
        sub_row = per_disk_row[plan.sub_disk[s0:s1]]
        svc_win = tables.base[sub_row, plan.sub_seek[s0:s1]] + geom.nbytes_f[s0:s1] / tables.rate[sub_row]
        m_win = np.maximum.reduceat(svc_win, plan.indptr[ri:we] - s0)

    queues = _Queues(
        plan.sub_disk[s0:s1],
        None if geom.single_sub else geom.counts[ri:we],
        svc_win,
        disks,
    )
    cut, resp, td_s, comp_s, prev_s, delay = queues.solve(
        plan.columns.nominal_time_s[ri:we], delay, m_win, tnext, open_loop
    )
    if cut == 0:
        return ri, delay
    k = ri + cut
    responses.frombytes(resp[:cut].tobytes())

    wsubs = int(indptr[k]) - s0
    queues.commit(
        wsubs, td_s, comp_s, prev_s, plan.sub_nbytes[s0:s1], disks, pm,
        rpm_counts, busy, recorder,
    )
    cov = REPLAY_COVERAGE
    cov["subrequests_vector"] += wsubs
    cov["segments_fused"] += 1
    if len(rpm_set) > 1:
        cov["segments_fused_multirpm"] += 1
    return k, delay


def _drpm_guess(
    tables: _ServiceTables,
    win: np.ndarray,
    seek: np.ndarray,
    nb: np.ndarray,
    base: np.ndarray,
    nwin: int,
) -> np.ndarray:
    """Each window's sum of service-over-baseline ratios at every level,
    ``(windows, levels)``: the window means a reactive DRPM disk would see
    if each sub's observed service time were its table entry.  Only a
    guess (the exact ``(start + svc) - start`` differs in the last bits,
    and the sum is not folded in order); :func:`_run_drpm` checks every
    decision it implies.  ``sum(seek_base[li, code] / b) + sum(nbytes /
    b) / rate[li]`` needs one pass over the subs, not one per level."""
    inv = 1.0 / base
    ncode = tables.base.shape[1]
    per_code = np.bincount(
        win * ncode + seek, weights=inv, minlength=nwin * ncode
    ).reshape(nwin, ncode)
    per_byte = np.bincount(win, weights=nb * inv, minlength=nwin)
    return per_code @ tables.base.T + per_byte[:, None] / tables.rate


def _accrue_shifts(
    pdisks: list[Disk],
    shifts: list[tuple[int, int, int]],
    cuts: list[int],
    starts: list[float],
    arrivals: list[float],
    pair: dict,
    record: bool,
) -> dict[int, list] | None:
    """Accrue each mid-chunk shift ``(p, from_rpm, to_rpm)`` of
    :func:`_run_drpm` as the next sub's wait does in ``Disk``: the shift
    starts at ``starts[i]`` (``c``, its window's last completion), and
    ``Disk._accrue_transition`` books it in one piece up to ``end`` when
    the next arrival ``a`` is at or past ``end - Disk._EPS``, else from
    ``c`` to ``max(a, c)`` and then to ``end``.  Returns the timeline
    segments for :func:`_fold_disks` to record ahead of each next sub
    (grouped index ``cuts[i]``), or ``None`` without ``record``."""
    segs: dict[int, list] | None = {} if record else None
    for (p, f, t), cut, c, nxt in zip(shifts, cuts, starts, arrivals):
        dur, power = pair[(f, t)]
        end = c + dur
        if c > nxt:
            nxt = c
        st = pdisks[p].stats
        st.num_rpm_shifts += 1
        cur = c
        for x in ((end,) if end <= nxt + Disk._EPS else (nxt, end)):
            d = x - cur if x > cur else 0.0
            st.time_s["rpm_shift"] += d
            st.energy_j["rpm_shift"] += d * power
            if x > cur:
                if record:
                    segs.setdefault(cut, []).append(
                        ("rpm_shift", cur, x, power, t, CAUSE_DRPM_WINDOW)
                    )
                cur = x
    return segs


def _run_drpm(
    plan: ReplayPlan,
    geom: _PlanGeometry,
    tables: _ServiceTables,
    pm: PowerModel,
    disks: list[Disk],
    ctrl,
    delay: float,
    responses: array,
    busy: BusySink | None,
    rpm_counts: dict[int, int] | None,
    recorder=None,
) -> None:
    """Open-loop reactive DRPM over a whole chunk on the vector kernel.

    With the delay frozen every sub issues at its recorded arrival, so each
    disk is an independent FIFO queue whose level changes only at its own
    window boundaries: the controller (``ctrl``, a
    :class:`~repro.controllers.drpm.ReactiveDRPM`) decides after every
    ``window_size`` completions of a disk, at fixed positions of its
    queue.  A decision is a barrier in that queue: the shift starts at the
    window's last completion ``c`` and ends at ``c + dur``
    (``Disk._begin_transition``), and the next sub starts at ``max(a,
    end)``.  The barrier rides in the queue as a pseudo-sub arriving with
    the decision's sub and taking ``dur``, so the queue stays one Lindley
    recursion (:func:`_lindley`), and each sub reads its epoch level's row
    of the one service table.

    The decisions are :func:`~repro.power.planner.drpm_window_step`'s,
    on the exact ``observed = comp - start`` over the max-level row,
    folded per window (:func:`_seg_fold`) from the controller's
    ``_window_sum``/``_window_count``/``_prev_mean`` (read here and
    written back).  They are guessed first from table service times
    (:func:`_drpm_guess`) and then checked against the exact solve; a
    disk whose exact decision differs takes it and is guessed again from
    there, until no decision moves.  Energy accrues per (disk, level
    epoch) in :func:`_fold_disks`, and each shift as
    ``Disk._accrue_transition`` splits it (:func:`_accrue_shifts`).  A
    shift decided at a disk's last sub in the chunk goes through
    ``Disk.set_rpm``, so the next chunk (whose first sub waits it out
    through ``Disk.advance``) and ``finalize`` see the stepwise state.
    """
    drpm = ctrl.drpm
    W = drpm.window_size
    max_rpm = drpm.max_rpm
    levels = pm.levels
    level_row = tables.level_row
    pair = pm._transition_by_pair
    geom.vector_views()
    order, heads, glen, present = _group(plan.sub_disk, len(disks))
    ids = present.tolist()
    pdisks = [disks[d] for d in ids]
    P = len(pdisks)
    S = order.size
    heads_l = heads.tolist()
    glen_l = glen.tolist()
    t_arr = plan.columns.nominal_time_s + delay
    a = (t_arr if geom.single_sub else np.repeat(t_arr, geom.counts))[order]
    # A shift decided at a disk's last sub of the previous chunk is still
    # in flight: its first sub here waits it out as ``Disk.serve`` does.
    for disk, t in zip(pdisks, a[heads].tolist()):
        if disk._transition_end_s is not None:
            c = disk.cursor_s
            disk.advance(t if t > c else c)
            end = disk._transition_end_s
            if end is not None:
                disk.advance(end)
    seed = np.array([d.cursor_s for d in pdisks])
    seek = plan.sub_seek[order]
    nb = geom.nbytes_f[order]
    base = tables.row_np(level_row[max_rpm])[order]
    # Window k of a disk holds its subs at window positions [kW, (k+1)W),
    # counting the completions the controller already holds.
    cnt0 = [ctrl._window_count[d] for d in ids]
    sum0 = np.array([ctrl._window_sum[d] for d in ids])
    cnt0_a = np.array(cnt0, dtype=np.int64)
    posn = np.arange(S, dtype=np.int64) - np.repeat(heads - cnt0_a, glen)
    nwin_a = (glen + cnt0_a - 1) // W + 1
    wbase_a = np.cumsum(nwin_a) - nwin_a
    win = np.repeat(wbase_a, glen) + posn // W
    nwin = int(nwin_a.sum())
    wlen = np.bincount(win, minlength=nwin)
    wseed = np.zeros((1, nwin))
    wseed[0, wbase_a] = sum0
    wbase = wbase_a.tolist()
    ndec = ((glen + cnt0_a) // W).tolist()
    guess = _drpm_guess(tables, win, seek, nb, base, nwin)
    guess[wbase_a] += sum0[:, None]
    guess = (guess / W).tolist()
    L0 = [d.rpm for d in pdisks]
    prev0 = [ctrl._prev_mean[d] for d in ids]

    def chain(p: int, exact: list | None, known: list | None):
        """Disk ``p``'s decision per complete window, its last mean and
        whether a decision differs from ``known``: exact means until the
        first difference, guessed ones after it."""
        rpm = L0[p]
        prev = prev0[p]
        row = wbase[p]
        out = []
        moved = False
        for k in range(ndec[p]):
            if exact is not None:
                mean = exact[row + k]
            else:
                mean = guess[row + k][level_row[rpm]]
            target = drpm_window_step(prev, mean, rpm, drpm)
            if exact is not None and target != known[k]:
                # Later exact means assumed the other decision.
                moved = True
                exact = None
            prev = mean
            if target is not None:
                rpm = target
                if target == max_rpm:
                    prev = None
            out.append(target)
        return out, prev, moved

    targets = [chain(p, None, None)[0] for p in range(P)]
    while True:
        # Epochs: each disk's entry level, then one per mid-chunk shift.
        cuts: list[int] = []
        shifts: list[tuple[int, int, int]] = []
        ep_li: list[int] = []
        last_shift: list[int | None] = [None] * P
        for p in range(P):
            rpm = L0[p]
            ep_li.append(level_row[rpm])
            h = heads_l[p]
            last = glen_l[p] - 1
            for k, target in enumerate(targets[p]):
                if target is None:
                    continue
                q = (k + 1) * W - cnt0[p] - 1
                if q == last:
                    last_shift[p] = target
                else:
                    cuts.append(h + q + 1)
                    shifts.append((p, rpm, target))
                    ep_li.append(level_row[target])
                rpm = target
        cut_a = np.array(cuts, dtype=np.int64)
        mark = np.zeros(S, dtype=np.int64)
        mark[heads] = 1
        mark[cut_a] = 1
        li = np.array(ep_li)[np.cumsum(mark) - 1]
        svc = tables.base[li, seek] + nb / tables.rate[li]
        if cuts:
            tdur = np.array([pair[(f, t)][0] for _, f, t in shifts])
            start, comp, prev = _lindley(
                np.insert(a, cut_a, a[cut_a - 1]),
                np.insert(svc, cut_a, tdur),
                heads + np.searchsorted(cut_a, heads),
                seed,
            )
            real = np.ones(comp.size, dtype=bool)
            real[cut_a + np.arange(cut_a.size)] = False
            start, comp, prev = start[real], comp[real], prev[real]
        else:
            start, comp, prev = _lindley(a, svc, heads, seed)
        sums = _seg_fold(wseed, [(comp - start) / base], wlen)[0][0]
        exact = (sums / W).tolist()
        moved = False
        prev_end = []
        for p in range(P):
            out, last_mean, moved_p = chain(p, exact, targets[p])
            prev_end.append(last_mean)
            if moved_p:
                targets[p] = out
                moved = True
        if not moved:
            break

    segs = _accrue_shifts(
        pdisks, shifts, cuts, comp[cut_a - 1].tolist(), a[cut_a].tolist(),
        pair, recorder is not None,
    )
    _fold_disks(
        pdisks, glen, start, prev, svc, comp, plan.sub_nbytes[order], li,
        pm, rpm_counts, busy, recorder, segs,
    )
    final_li = li[heads + glen - 1].tolist()
    for p, disk in enumerate(pdisks):
        rpm = levels[final_li[p]]
        if rpm != disk.rpm:
            disk.rpm = rpm
            disk._refresh_level_consts(rpm)
        if last_shift[p] is not None:
            disk.set_rpm(disk.cursor_s, last_shift[p], CAUSE_DRPM_WINDOW)
        # The open window, if any, is the one after the last decision.
        d = ids[p]
        k = ndec[p]
        ctrl._window_count[d] = glen_l[p] + cnt0[p] - k * W
        ctrl._window_sum[d] = (
            float(sums[wbase[p] + k]) if ctrl._window_count[d] else 0.0
        )
        ctrl._prev_mean[d] = prev_end[p]

    latest = np.empty(S)
    latest[order] = comp
    if not geom.single_sub:
        latest = np.maximum.reduceat(latest, plan.indptr[:-1])
    responses.frombytes((latest - t_arr).tobytes())
    cov = REPLAY_COVERAGE
    cov["subrequests_vector"] += S
    cov["segments_fused"] += 1
    if li.min() != li.max():
        cov["segments_fused_multirpm"] += 1


# ---------------------------------------------------------------------- #
# Replay driver
# ---------------------------------------------------------------------- #
class Replay:
    """One replay, fed chunk by chunk: :func:`simulate` builds one and
    feeds it every chunk of its trace.

    The constructor takes :func:`simulate`'s arguments, checks them, and
    builds the disks; :meth:`chunks` yields the replay's ``(plan,
    directives, final)`` triples, :meth:`feed` replays one, and
    :meth:`finish` returns the :class:`SimulationResult`.  A replay owns
    all state that crosses chunks: the disks, its controller, the
    closed-loop delay, the timed-directive cursor, the response column and
    its running fold, the busy sinks and the per-RPM sub-request counts.
    A plan keeps only scheme-invariant derived state (geometry lists,
    service tables keyed by power model), so replays of one trace and plan
    without a fault plan can be fed the same triples in turn.

    :meth:`feed` merges the request, trace-directive, and timed (oracle)
    streams inline: all are sorted by time, and a trace directive executes
    ahead of a request at the same nominal time.  Each call reaches its
    disk through :func:`apply_call`.  Every sub-request outside a vector
    window runs through ``Disk.serve`` (``serve_faulty`` when the fault
    plan flags it), with the striping fan-out and seek-class code read
    from the plan's flat per-sub lists, so no ``IORequest`` objects are
    ever materialized.  A reactive controller's ``on_request_complete``
    hook sees every completion the driver serves.

    A segmented replay probes the vector kernel: at the start of each
    quiescent run long enough for a window before the next directive of
    either kind, the driver completes every transition due by the next
    issue time (``Disk.advance(end)``), marks *hot* disks — a transition
    in flight (pending power calls and spin-up chains only exist while one
    is) or standby — and bounds the window at the next timed directive and
    the earliest instant an autonomous spin-down could fire.  An armed
    disk already past its threshold (*overdue*) fires only when next
    served, so it truncates the window at its first touch instead of
    pinning the bound in the past.  The window also ends at the first
    request touching a hot disk and at the next fault-flagged request.
    After a probe, the scalar run ends at that bound, at the earliest hot
    transition end, right after the request that fires an overdue disk, or
    right after a flagged request that leaves room for a window before the
    next one, whichever comes first: only there can a later probe open a
    window this one could not.
    """

    def __init__(
        self,
        trace: Trace | TraceStream,
        params: SubsystemParams,
        controller: Controller | None = None,
        collect_busy_intervals: bool = False,
        recorder=None,
        plan: ReplayPlan | None = None,
        engine: str = "segmented",
        faults=None,
        open_loop: bool = False,
    ) -> None:
        self.trace = trace
        self.streamed = streamed = isinstance(trace, TraceStream)
        if engine not in ("segmented", "stepwise"):
            raise SimulationError(f"unknown replay engine {engine!r}")
        for refused, message in (
            (recorder is not None, "streamed replay cannot attach a timeline "
             "recorder; replay a whole Trace for timelines"),
            (collect_busy_intervals, "streamed replay cannot collect busy "
             "intervals; replay a whole Trace for busy-interval capture"),
            (faults is not None, "streamed replay does not support fault "
             "injection: a fault plan indexes absolute sub-request ordinals "
             "of a whole-trace replay plan"),
            (plan is not None, "streamed replay builds one plan per chunk; "
             "do not pass a whole-trace plan"),
        ):
            if streamed and refused:
                raise SimulationError(message)
        self.ctrl = ctrl = controller or Controller()
        layout = trace.layout
        if layout.num_disks != params.num_disks:
            raise SimulationError(
                f"trace layout has {layout.num_disks} disks, params say {params.num_disks}"
            )
        if not streamed:
            if plan is None:
                plan = ReplayPlan.for_trace(trace)
            elif not plan.matches(trace):
                raise SimulationError(
                    "replay plan was built for a different request stream"
                )
        #: The whole trace's plan; ``None`` for a stream.
        self.plan = plan
        self.fault_plan = fault_plan = None
        if faults is not None:
            from ..faults import FaultPlan

            self.fault_plan = fault_plan = FaultPlan(faults, plan)
        self.pm = pm = PowerModel(params.disk, params.drpm)
        self.disks = disks = [
            Disk(
                i, pm, auto_spindown_threshold_s=ctrl.auto_spindown_threshold_s,
                recorder=recorder, faults=fault_plan,
            )
            for i in range(params.num_disks)
        ]
        ctrl.prepare(len(disks), pm)
        # The base Controller's reactive hook is a no-op; controllers that
        # never override it skip one dispatch per sub-request.
        reactive = type(ctrl).on_request_complete is not Controller.on_request_complete
        self.on_complete = ctrl.on_request_complete if reactive else None

        timed = check_directives(
            ctrl.timed_directives(), "timed directive", sort=True
        )
        directives = trace.directives
        for what, rows in (("directive", directives), ("timed directive", timed)):
            unknown = np.flatnonzero(rows["disk"] >= params.num_disks)
            if unknown.size:
                k = int(unknown[0])
                raise SimulationError(
                    f"{what} {k} targets unknown disk {rows['disk'][k]}"
                )
        # Deadline misses shift pre-activation directives *before* engine
        # dispatch: both engines replay the already-slipped streams, and
        # the requests a slip strands at the pre-directive disk state
        # simply serve there — the graceful-degradation semantics fall out
        # of the ordinary replay rules (low-RPM service for the DRPM
        # family, a reactive spin-up for the TPM family), with the
        # directive honoured late.
        trace_misses: tuple = ()
        timed_misses: tuple = ()
        if fault_plan is not None:
            top_rpm = params.disk.rpm
            directives, trace_misses = fault_plan.delay_directives(
                directives, top_rpm, "trace"
            )
            timed, timed_misses = fault_plan.delay_directives(
                timed, top_rpm, "timed"
            )
        self.directives = directives
        self.trace_misses = trace_misses
        # The timed stream is read once, as lists, for the whole replay.
        self.timed = tuple(
            timed[name].tolist() for name in ("time", "action", "disk", "rpm")
        )
        # Deadline-miss attribution keys: a slipped directive's row carries
        # its *realized* time, so ``(disk, realized_time)`` identifies it
        # in either engine and tags it ``deadline-miss:*`` instead of
        # ``directive:*``/``oracle:*``.  Only kept with a recorder attached.
        self.miss_keys: frozenset | None = None
        if recorder is not None and (trace_misses or timed_misses):
            self.miss_keys = frozenset(
                (d_id, t1) for d_id, _t0, t1 in (*trace_misses, *timed_misses)
            )
        # Every miss counts on its disk; only trace windows also count
        # degraded serves (:meth:`finish`), as oracle windows live on the
        # realized timeline, which nominal coordinates cannot index.
        for d_id, _, _ in (*trace_misses, *timed_misses):
            disks[d_id].stats.num_deadline_misses += 1

        # Engine selection.  Nothing here is silent: every routing away
        # from the requested engine is logged with its reason, recorded in
        # the result's ``engine_forced`` metadata, and counted in
        # ``sim.fallbacks``.
        segmented = engine != "stepwise"
        self.forced = ""
        self.drpm = None
        if segmented and reactive:
            if _solves_drpm(ctrl, open_loop, fault_plan, directives, timed):
                self.drpm = ctrl
            else:
                segmented = False
                self.forced = "reactive-controller"
                logger.debug(
                    "%s/%s: reactive controller %s observes per-sub-request "
                    "completions; routing to the stepwise reference loop",
                    trace.program_name, ctrl.name, type(ctrl).__name__,
                )
        self.engine = "segmented" if segmented else "stepwise"
        REPLAY_COVERAGE["replays_segmented" if segmented else "replays_stepwise"] += 1

        self.open_loop = open_loop
        self.observing = obs.enabled()
        self.rpm_counts: dict[int, int] | None = {} if self.observing else None
        # Time spent in this replay's own feeds: replays fed in turn do not
        # count each other's work.
        self.wall_s = 0.0
        # Responses land in one unboxed column.  A whole trace keeps it
        # (exact p95 and ``request_responses``); a stream folds each chunk's
        # column into a running count, total and max, then reuses it.
        self.responses = array("d")
        self.resp_count = 0
        self.resp_total = self.resp_max = 0.0
        self.busy: BusySink | None = None
        if collect_busy_intervals:
            self.busy = ([array("d") for _ in disks], [array("d") for _ in disks])
        self.delay = 0.0
        self.timed_idx = self.num_directives = 0
        self.num_requests = self.num_chunks = 0

    def chunks(self):
        """This replay's ``(plan, directives, final)`` triples: a whole
        trace is one, with its plan and (fault-shifted) directive stream;
        a stream's come from :func:`_stream_chunks`."""
        if self.streamed:
            return _stream_chunks(
                self.trace.layout, self.directives, self.trace.iter_chunks()
            )
        return ((self.plan, self.directives, True),)

    def feed(self, plan: ReplayPlan, directives: np.ndarray, final: bool) -> None:
        """Replay one chunk: its plan, its share of the directive rows, and
        whether it is the last (``final`` flushes the timed directives due
        after its last request).  Chunks are fed in stream order."""
        t0 = time.perf_counter() if self.observing else 0.0
        geom = _geometry(plan)
        if self.drpm is not None and plan.num_subrequests >= VECTOR_MIN_SUBREQUESTS:
            _run_drpm(
                plan, geom, _service_tables(plan, self.pm, geom), self.pm,
                self.disks, self.drpm, self.delay, self.responses, self.busy,
                self.rpm_counts, self.disks[0].recorder,
            )
        else:
            self._drive(plan, geom, directives, final)
        self.num_requests += plan.num_requests
        self.num_chunks += 1
        if self.streamed:
            # The same left fold, in the same order, as appending every
            # response to one column: ``sequential_sum`` is the ``+=``
            # chain, and max is an exact selection.
            chunk = np.frombuffer(self.responses, dtype=float)
            if chunk.size:
                self.resp_count += chunk.size
                self.resp_total = sequential_sum(self.resp_total, chunk)
                self.resp_max = max(self.resp_max, float(chunk.max()))
            del chunk  # an exported buffer blocks the resize below
            del self.responses[:]
            if self.observing:
                # Live-telemetry feed: a ProgressReporter samples these
                # between chunks (requests replayed so far, chunk count,
                # simulated-time watermark) to derive req/s and ETA.
                _metrics.inc("progress.requests", plan.num_requests)
                _metrics.inc("progress.chunks")
                _metrics.set_gauge(
                    "progress.sim_time_s",
                    round(self.trace.total_compute_s + self.delay, 6),
                )
        if self.observing:
            self.wall_s += time.perf_counter() - t0

    def _drive(self, plan, geom, directives, final) -> None:
        """The driver loop over one chunk (see the class docstring)."""
        disks, pm, on_complete = self.disks, self.pm, self.on_complete
        responses, busy, rpm_counts = self.responses, self.busy, self.rpm_counts
        open_loop, use_vector = self.open_loop, self.engine == "segmented"
        # Built on first use: a replay that only opens vector windows reads
        # its boundary scalars from the arrays and never pays the ``tolist``
        # views (per request, then per sub), a stepwise one never the
        # service tables.
        req_times = plan.columns.nominal_time_s
        indptr_l = plan.indptr
        listed = False
        disk_l = nb_l = seek_l = None
        tables = None
        n = len(req_times)
        t_time, t_action, t_disk, t_rpm = self.timed
        num_timed = len(t_time)
        d_time, d_action, d_disk, d_rpm, d_over = (
            directives[name].tolist()
            for name in ("time", "action", "disk", "rpm", "overhead")
        )
        num_dir_records = len(d_time)
        serves = [d.serve for d in disks]
        # Fault threading: ``flags[ri]`` marks requests with at least one
        # faulty sub-request; those dispatch per-sub to ``serve_faulty`` and
        # end any vector window.  A zero-rate plan materializes no flags
        # (nothing can fault), so the hot loop pays one test per request.
        fp = self.fault_plan
        flags = sub_errors = None
        flagged = ()
        if fp is not None and fp.request_flags is not None:
            flags, sub_errors, flagged = (
                fp.request_flags, fp.sub_errors, fp.flagged_requests
            )
        fr_n = len(flagged)
        fr_idx = 0
        append_response = responses.append
        track = busy is not None or on_complete is not None
        if busy is not None:
            busy_starts = [a.append for a in busy[0]]
            busy_ends = [a.append for a in busy[1]]
        tl_rec = disks[0].recorder if disks else None
        auto_active = use_vector and any(
            d.auto_spindown_threshold_s is not None for d in disks
        )
        # Cause tagging is recorder-only: the closures exist iff a timeline
        # recorder is attached, so the unobserved replay pays one ``is None``
        # test per directive (requests never check).
        _dcause = _tcause = None
        if tl_rec is not None:
            miss = self.miss_keys or frozenset()

            def _dcause(k):
                if (d_disk[k], d_time[k]) in miss:
                    return f"deadline-miss:{k}"
                return f"directive:{k}"

            def _tcause(k):
                if (t_disk[k], t_time[k]) in miss:
                    return f"deadline-miss:oracle:{k}"
                return f"oracle:{k}"
        delay = self.delay
        num_directives = 0
        timed_idx = self.timed_idx
        tnext = t_time[timed_idx] if timed_idx < num_timed else inf
        scalar_subs = 0

        def drain(t: float) -> None:
            # Oracle directives scheduled at or before ``t`` fire at their
            # own absolute times (they were planned against the realized
            # timeline, which a zero-penalty oracle shares with this
            # replay); if replay drifted past the planned instant (the disk
            # was still busy), the call takes effect as soon as the disk is
            # available.
            nonlocal timed_idx, num_directives, tnext
            while timed_idx < num_timed and t_time[timed_idx] <= t:
                k = timed_idx
                target = disks[t_disk[k]]
                t_td = t_time[k]
                c = target.cursor_s
                apply_call(
                    target, t_td if t_td > c else c, t_action[k], t_rpm[k],
                    CAUSE_EXTERNAL if _tcause is None else _tcause(k),
                )
                num_directives += 1
                timed_idx += 1
            tnext = t_time[timed_idx] if timed_idx < num_timed else inf

        ri = 0
        di = 0
        while True:
            # Requests strictly before the next trace directive's nominal
            # time run first.  Nominal times are compared, so the bound is
            # delay-independent; the scan totals O(num_requests) per replay.
            if di < num_dir_records:
                if not listed:
                    req_times, indptr_l = geom.request_lists()
                    listed = True
                dnom = d_time[di]
                bound = ri
                while bound < n and req_times[bound] < dnom:
                    bound += 1
            else:
                bound = n

            while ri < bound:
                t0 = req_times[ri] + delay
                if t0 >= tnext:
                    drain(t0)
                stop = tnext
                due = 0
                # The window must reach VECTOR_MIN_SUBREQUESTS sub-requests
                # before the next trace directive (checked in O(1) here,
                # ahead of the per-disk scan).
                if (
                    use_vector
                    and indptr_l[bound] - indptr_l[ri] >= VECTOR_MIN_SUBREQUESTS
                ):
                    hot = 0
                    vnext = tnext
                    for d, disk in enumerate(disks):
                        end = disk._transition_end_s
                        while end is not None and end <= t0:
                            disk.advance(end)
                            end = disk._transition_end_s
                        if end is not None:
                            hot |= 1 << d
                            if end < stop:
                                stop = end
                        elif disk.standby:
                            hot |= 1 << d
                        elif auto_active:
                            thr = disk.auto_spindown_threshold_s
                            if thr is not None:
                                # Arming sets the anchor at a serve
                                # completion, never earlier, and in-window
                                # serves only push anchors later.
                                if disk._auto_armed:
                                    fd = disk.idle_anchor_s + thr
                                    if fd <= t0:
                                        due |= 1 << d
                                    elif fd < vnext:
                                        vnext = fd
                                elif t0 + thr < vnext:
                                    vnext = t0 + thr
                    if vnext < stop:
                        stop = vnext
                    we = bound
                    if vnext is not inf:
                        # The kernel stops at ``vnext`` itself.
                        cut = bisect_left(req_times, vnext - delay, ri, bound) + 1
                        if cut < we:
                            we = cut
                    hmask = hot | due
                    if hmask and we > ri:
                        reqmask = geom.request_masks()
                        k = ri
                        while k < we and not reqmask[k] & hmask:
                            k += 1
                        we = k
                    if fr_idx < fr_n:
                        while fr_idx < fr_n and flagged[fr_idx] < ri:
                            fr_idx += 1
                        if fr_idx < fr_n and flagged[fr_idx] < we:
                            we = flagged[fr_idx]
                    if indptr_l[we] - indptr_l[ri] >= VECTOR_MIN_SUBREQUESTS:
                        if tables is None:
                            tables = _service_tables(plan, pm, geom)
                        ri0 = ri
                        ri, delay = _run_vector(
                            plan, geom, tables, pm, disks, ri, we, delay,
                            vnext, hot, responses, busy, rpm_counts, tl_rec,
                            open_loop,
                        )
                        # A window that stopped at ``vnext`` or an unsettled
                        # delay fixpoint re-probes; one that reached a hot,
                        # overdue, or flagged request hands over to
                        # ``Disk.serve``.
                        if ri0 < ri < we:
                            continue

                if disk_l is None and ri < bound:
                    disk_l, nb_l, seek_l = geom.scalar_views()
                    if not listed:
                        req_times, indptr_l = geom.request_lists()
                        listed = True
                if due:
                    reqmask = geom.request_masks()
                k = ri
                while k < bound:
                    t = req_times[k] + delay
                    if t >= stop:
                        break
                    completion = t
                    faulty = flags is not None and flags[k]
                    for j in range(indptr_l[k], indptr_l[k + 1]):
                        disk_id = disk_l[j]
                        if faulty and (errs := sub_errors.get(j, 0)):
                            done = disks[disk_id].serve_faulty(
                                t, nb_l[j], seek_l[j], errs
                            )
                        else:
                            done = serves[disk_id](t, nb_l[j], seek_l[j])
                        if rpm_counts is not None:
                            r = disks[disk_id].rpm
                            rpm_counts[r] = rpm_counts.get(r, 0) + 1
                        if track:
                            disk = disks[disk_id]
                            start = disk.last_service_start_s
                            if busy is not None:
                                busy_starts[disk_id](start)
                                busy_ends[disk_id](done)
                            if on_complete is not None:
                                on_complete(
                                    disk, t, start, done, nb_l[j], seek_l[j]
                                )
                        if done > completion:
                            completion = done
                    k += 1
                    response = completion - t
                    append_response(response)
                    if not open_loop:
                        delay += response
                    if due and reqmask[k - 1] & due:
                        break
                    if faulty and use_vector:
                        # Only the flagged request needed ``serve_faulty``:
                        # end the run if a window fits before the next
                        # flagged one.
                        f = bisect_right(flagged, k - 1)
                        nf = flagged[f] if f < fr_n and flagged[f] < bound else bound
                        if indptr_l[nf] - indptr_l[k] >= VECTOR_MIN_SUBREQUESTS:
                            break
                scalar_subs += int(indptr_l[k] - indptr_l[ri])
                ri = k

            if di < num_dir_records:
                k = di
                di += 1
                t_exec = d_time[k] + delay
                if t_exec >= tnext:
                    drain(t_exec)
                target = disks[d_disk[k]]
                if open_loop:
                    # The frozen delay can leave a directive's executed time
                    # behind a backlogged disk; it takes effect as soon as
                    # the disk is available, like a timed call.
                    c = target.cursor_s
                    if t_exec < c:
                        t_exec = c
                apply_call(
                    target, t_exec, d_action[k], d_rpm[k],
                    CAUSE_EXTERNAL if _dcause is None else _dcause(k),
                )
                num_directives += 1
                overhead = d_over[k]
                if overhead and not open_loop:
                    delay += overhead / _CLOCK_HZ
            elif ri >= n:
                break

        # Flush oracle directives scheduled after the last record.
        if final:
            drain(self.trace.total_compute_s + delay)
        cov = REPLAY_COVERAGE
        if use_vector:
            cov["subrequests_scalar"] += scalar_subs
            cov["directive_edits"] += num_directives
        else:
            cov["subrequests_stepwise"] += scalar_subs
        self.delay = delay
        self.timed_idx = timed_idx
        self.num_directives += num_directives

    def finish(self) -> SimulationResult:
        """The replay's result, once the final chunk has been fed."""
        disks = self.disks
        ctrl, fault_plan = self.ctrl, self.fault_plan
        if fault_plan is not None:
            # Deadline-miss and degraded-serve accounting is derived from
            # the (engine-invariant) miss windows and the plan's nominal
            # coordinates, so both engines report identical counters.
            degraded = fault_plan.degraded_counts(self.plan, self.trace_misses)
            for d_id, cnt in degraded.items():
                disks[d_id].stats.num_degraded_serves += cnt

        if self.observing:
            _metrics.inc("sim.replays", engine=self.engine, scheme=ctrl.name)
            if self.forced:
                _metrics.inc("sim.fallbacks", reason=self.forced)
            _metrics.inc("sim.requests", self.num_requests)
            if self.streamed:
                # Retire the live-telemetry count: ``progress.requests``
                # minus ``progress.requests_done`` is the streamed in-flight
                # backlog, so a reporter's (completed + in-flight) total
                # never double-counts a finished streamed replay against
                # ``sim.requests``.
                _metrics.inc("progress.requests_done", self.num_requests)
            _metrics.inc("sim.directives", self.num_directives)
            for rpm, count in self.rpm_counts.items():
                _metrics.inc("sim.subrequests", count, rpm=rpm)
            _metrics.observe("sim.replay_wall_s", self.wall_s, scheme=ctrl.name)
            if fault_plan is not None:
                for name in (
                    "request_errors", "request_retries", "request_timeouts",
                    "spinup_failures", "deadline_misses", "degraded_serves",
                ):
                    total = sum(getattr(d.stats, f"num_{name}") for d in disks)
                    if total:
                        _metrics.inc(f"sim.faults.{name}", total, scheme=ctrl.name)

        end_time = self.trace.total_compute_s + self.delay
        if self.open_loop:
            # With no delay feedback the nominal span can end before the
            # last queued request drains; execution runs to the later of
            # the two.  ``last_request_end_s`` is engine-invariant (both
            # engines leave identical disk state), so the extension
            # preserves bit-identity.
            end_time = max(
                end_time, max((d.last_request_end_s for d in disks), default=0.0)
            )
        for disk in disks:
            disk.finalize(end_time)
        if self.streamed:
            summary = ResponseSummary.from_running(
                self.resp_count, self.resp_total, self.resp_max
            )
            per_request = None
        else:
            per_request = np.frombuffer(self.responses, dtype=float)
            summary = ResponseSummary.from_samples(per_request)
        busy = self.busy
        busy_columns = () if busy is None else tuple(
            (np.frombuffer(s, dtype=float), np.frombuffer(e, dtype=float))
            for s, e in zip(*busy)
        )
        # Disk timelines may exceed the app end (e.g. a trailing
        # transition); execution time is the app's, but energy accounting
        # follows each disk to its own final cursor, so energy==power*time
        # invariants hold.
        return SimulationResult.from_columns(
            busy_columns=busy_columns,
            response_array=per_request,
            scheme=ctrl.name,
            program_name=self.trace.program_name,
            execution_time_s=end_time,
            disk_stats=tuple(d.stats for d in disks),
            responses=summary,
            num_requests=self.num_requests,
            num_directives=self.num_directives,
            engine=self.engine,
            engine_forced=self.forced,
        )


def _stream_chunks(layout, directives: np.ndarray, columns):
    """``(plan, directives, final)`` per chunk of a streamed replay.

    Each chunk gets its own :class:`ReplayPlan` with seek continuity
    threaded via :class:`~repro.disksim.replay.SeekCarry`.  Directive rows
    are partitioned by the replay's tie rule: a chunk executes every
    directive whose nominal time is at or before its last request's
    nominal time and the final chunk takes all leftovers, so the partition
    reproduces the whole-trace replay exactly.  Empty chunks are skipped,
    except that an empty stream still yields one empty final chunk.  One
    chunk of lookahead tells the last chunk apart.

    Every replay fed a chunk is done with it when the next one is asked
    for, so its derived state (geometry lists and service tables, O(chunk)
    each) is freed then, before the next chunk's plan is built: two
    chunks' worth are never alive at once.
    """
    dir_times = directives["time"]
    carry = None
    dlo = 0
    cur = next(columns, None)
    if cur is None:
        cur = RequestColumns.from_requests(())
    while cur is not None:
        nxt = next(columns, None)
        final = nxt is None
        if len(cur) or final:
            plan, carry = ReplayPlan.for_columns(cur, layout, carry)
            if final:
                dhi = directives.size
            else:
                dhi = int(np.searchsorted(
                    dir_times, cur.nominal_time_s[-1], "right"
                ))
            yield plan, directives[dlo:dhi], final
            plan._derived.clear()
            dlo = dhi
        cur = nxt


def _solves_drpm(ctrl, open_loop: bool, fault_plan, directives, timed) -> bool:
    """Whether :func:`_run_drpm` replays ``ctrl``: reactive DRPM's own
    completion hook, open loop, and nothing else that changes a disk's
    state (no fault plan, no trace or timed directive rows, no autonomous
    spin-down)."""
    from ..controllers.drpm import ReactiveDRPM

    return (
        open_loop
        and type(ctrl).on_request_complete is ReactiveDRPM.on_request_complete
        and ctrl.auto_spindown_threshold_s is None
        and fault_plan is None
        and not directives.size
        and not timed.size
    )


# ---------------------------------------------------------------------- #
def simulate(
    trace: Trace | TraceStream,
    params: SubsystemParams,
    controller: Controller | None = None,
    collect_busy_intervals: bool = False,
    recorder=None,
    plan: ReplayPlan | None = None,
    engine: str = "segmented",
    faults=None,
    open_loop: bool = False,
) -> SimulationResult:
    """Replay ``trace`` under ``params`` with an optional controller.

    ``trace`` is a whole :class:`~repro.trace.request.Trace` or a
    :class:`~repro.trace.stream.TraceStream`; either way one
    :class:`Replay` is fed every chunk.  A whole trace is exactly one
    chunk: the ``plan`` (or :meth:`ReplayPlan.for_trace`), the full
    (fault-shifted) directive stream, and a per-request response column,
    so the result carries ``request_responses`` and an exact p95.  A
    stream is replayed chunk by chunk with peak memory bounded by the
    chunk size: each chunk gets its own plan and its share of the
    directives (see :func:`_stream_chunks`), and the replay carries
    everything else across chunks.  Any chunking of the same request
    sequence is therefore bit-identical to the whole-trace replay, and
    both engines agree (the streaming equivalence tests enforce both).
    Streamed response statistics fold as running count/total/max —
    :meth:`ResponseSummary.from_running`, with the 95th percentile
    reported as the documented ``0.0`` sentinel — and per-request
    response columns are not retained.

    Streamed restrictions (each raises :class:`SimulationError` rather
    than degrading silently):

    * no timeline ``recorder`` and no ``collect_busy_intervals`` — both
      are whole-timeline artifacts, unbounded in a bounded-memory replay;
    * no ``faults`` — a fault plan indexes absolute sub-request ordinals
      of a whole-trace replay plan;
    * no caller-supplied ``plan`` — plans are per chunk by construction.

    ``open_loop=True`` issues every request at its recorded trace arrival
    time instead of the closed-loop compute/IO feedback timeline: the
    accumulated delay stays zero, responses and directive overheads never
    shift later arrivals, and a request reaching a busy disk queues behind
    it (``Disk.serve`` starts service at ``max(arrival, cursor, ready)``).
    This is the natural semantics for ingested block-I/O traces
    (``repro.trace.ingest``), whose arrival times were recorded on a real
    system.  Execution time extends to the last request completion when
    that outlives the trace's nominal span.  Both engines, whole or
    streamed, replay open-loop bit-identically.

    ``faults`` optionally supplies a :class:`~repro.faults.FaultConfig`;
    the regime is materialized into a :class:`~repro.faults.FaultPlan`
    against this trace's replay plan *before* the disks are built, so both
    engines consume the same event schedule: pre-activation directives
    slip their deadlines up front (the shifted streams replace the clean
    ones), per-sub-request transient errors route flagged requests through
    the exact retry state machine, and spin-up jitter/failure chains live
    inside :class:`~repro.disksim.disk.Disk`.  A zero-rate config threads
    the same code paths and reproduces the clean result bit-identically.

    ``recorder`` optionally attaches a
    :class:`~repro.disksim.timeline.TimelineRecorder` to every disk,
    capturing the full per-disk state timeline (with per-transition
    decision causes) for inspection/rendering; the captured segments are
    bit-identical whichever engine replays.

    ``plan`` optionally supplies the precomputed per-request fan-out
    (:class:`~repro.disksim.replay.ReplayPlan`); the suite engine builds one
    plan per trace and shares it across all scheme replays.

    Before anything replays, the controller's timed rows are sorted
    stably by time and checked like a trace's directive rows, and a row of
    either stream naming a disk outside the array raises
    :class:`SimulationError` with its index in the whole stream.

    ``engine`` selects the replay path.  There is one driver
    (:class:`Replay`): ``"segmented"`` (the default) runs it with vector
    windows on, ``"stepwise"`` with them off, so every sub-request goes
    through ``Disk.serve`` (the reference the equivalence suites compare
    against).  Both are bit-identical — including any attached timeline
    recorder's segment stream.  A segmented replay falls back to stepwise
    for reactive controllers, whose ``on_request_complete`` hook observes
    every sub-request (``reactive-controller``: adaptive TPM, and reactive
    DRPM in closed loop or with directive rows or a fault plan).  An
    open-loop reactive DRPM replay without either stays segmented: the
    vector kernel solves each chunk per disk, with the controller's window
    decisions (:func:`~repro.power.planner.drpm_window_step`) as barriers
    in the disks' queues (:func:`_run_drpm`); a chunk under
    ``VECTOR_MIN_SUBREQUESTS`` sub-requests runs through ``Disk.serve``
    and the hook.  Reactive TPM has no hook — its autonomous spin-down
    lives in ``Disk`` — so it replays segmented.

    No fallback is silent: each forced routing is logged (DEBUG) with its
    reason and recorded in ``SimulationResult.engine`` /
    ``SimulationResult.engine_forced``.
    """
    replay = Replay(
        trace, params, controller, collect_busy_intervals, recorder, plan,
        engine, faults, open_loop,
    )
    with obs.span(
        "sim.replay", program=trace.program_name, scheme=replay.ctrl.name,
        engine=replay.engine, streamed=replay.streamed,
    ) as sp:
        if replay.forced:
            sp.set(forced=replay.forced)
        if faults is not None:
            sp.set(fault_seed=faults.seed)
        for chunk in replay.chunks():
            replay.feed(*chunk)
        sp.set(
            requests=replay.num_requests, directives=replay.num_directives,
            chunks=replay.num_chunks,
        )
    return replay.finish()
