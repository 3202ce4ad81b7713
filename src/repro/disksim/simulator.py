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

One replay driver (:func:`_replay`) walks the merged request, trace
directive, and timed (oracle) directive stream.  Every sub-request outside
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

``engine="stepwise"`` is the same driver with vector windows off: every
sub-request runs through ``Disk.serve``.  It is the reference the
equivalence suites compare against, and the route for reactive
controllers (reactive DRPM, adaptive TPM), whose ``on_request_complete``
hook observes every sub-request.  Timeline recording is
engine-independent: ``Disk`` emits the scalar segments, and the fused
vector accounting emits each window's segments from the arrays it folds.

Every disk is a FIFO queue: a sub-request starts at the later of its
issue time and the disk's previous completion, the Lindley recursion
``c_j = max(a_j, c_{j-1}) + s_j`` that ``Disk.serve`` evaluates one
request at a time.  Inside a busy period that is a strict left fold from
the period's first arrival, so the kernel finds the period boundaries
(guessed from the recursion's max-plus form, then checked exactly) and
folds each period with ``np.add.accumulate``, bit for bit (:func:`_fifo`).
Idle time accrues only between busy periods.  Open-loop replays, whose
recorded arrivals routinely queue, therefore stay on the vector path.  In
closed loop queueing is a rounding edge: the app blocks until the slowest
disk of request ``i`` completes, so ``t_exec[i+1] = completion[i] +
(nominal[i+1] - nominal[i]) >= completion[i]`` up to rounding, and with
nothing queued a sub-request starts at its issue time and completes at
``t_exec + svc``.  Where rounding (or a nominal-time regression within the
trace order tolerance) puts an issue time an ulp before its disk's last
completion, the side of that tie every later request lands on depends on
the exact delay bits; the kernel then serves the rest of the window in
stream order with ``Disk.serve``'s arithmetic (:func:`_chain`).
"""

from __future__ import annotations

import logging
import time
from array import array
from bisect import bisect_left, bisect_right
from math import inf
from typing import Sequence

import numpy as np

from .. import obs
from ..obs import metrics as _metrics
from .interface import Controller, TimedDirective
from ..ir.nodes import PowerAction, PowerCall
from ..trace.request import RequestColumns, Trace
from ..trace.stream import TraceStream
from ..util.errors import SimulationError
from .disk import Disk, sequential_sum
from .timeline import CAUSE_EXTERNAL
from .params import SubsystemParams
from .powermodel import PowerModel
from .replay import ReplayPlan
from .stats import ResponseSummary, SimulationResult

__all__ = [
    "simulate",
    "apply_call",
    "replay_coverage",
    "reset_replay_coverage",
    "VECTOR_MIN_SUBREQUESTS",
    "AUTO_ROUTING",
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

#: The ``auto`` routing rule in manifest-ready form.  ``auto`` opens vector
#: windows unless a reactive controller observes every sub-request; the
#: vector-window gate rides along so a run manifest records the full
#: routing policy that produced its numbers.
AUTO_ROUTING: dict = {
    "rule": "segmented unless the controller is reactive",
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
    disk: Disk, t: float, call: PowerCall, cause: str = CAUSE_EXTERNAL
) -> None:
    """Apply one explicit power-management call to a disk at time ``t``.

    ``SET_RPM`` is checked first: the DRPM-family schemes issue an order of
    magnitude more calls than the TPM family, and all of theirs are RPM
    shifts.

    ``cause`` tags the resulting transition segment in an attached
    timeline recorder (``"directive:<k>"``/``"oracle:<k>"`` from the
    replay engines, :data:`~repro.disksim.timeline.CAUSE_EXTERNAL` for
    direct callers); it is ignored when no recorder is attached.
    """
    action = call.action
    if action is PowerAction.SET_RPM:
        assert call.rpm is not None
        disk.set_rpm(t, call.rpm, cause)
    elif action is PowerAction.SPIN_DOWN:
        disk.spin_down(t, cause)
    elif action is PowerAction.SPIN_UP:
        disk.spin_up(t, cause)
    else:  # pragma: no cover - enum is exhaustive
        raise SimulationError(f"unknown power action {call.action}")


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
    The views are built in lazy groups — ``Disk.serve`` needs only the
    flat per-sub lists, the vector kernel the arrays (``counts``/
    ``nbytes_f``) and the per-request disk bitmasks — so a replay pays
    only for the path it takes.
    """

    __slots__ = (
        "_indptr",
        "_sub_disk",
        "_sub_nbytes",
        "_sub_seek",
        "req_times",
        "indptr_l",
        "disk_l",
        "nb_l",
        "seek_name_l",
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
        self.req_times = plan.columns.nominal_time_s.tolist()
        self.indptr_l = plan.indptr.tolist()
        self.disk_l = None
        self.nb_l = None
        self.seek_name_l = None
        self.counts = None
        self.single_sub = False
        self.nbytes_f = None
        self.reqmask = None

    def scalar_views(self) -> tuple[list, list, list]:
        """Per-sub Python lists for ``Disk.serve`` (idempotent, cached).
        Lazy so an all-vector replay never pays the O(subs) ``tolist``
        conversions."""
        if self.disk_l is None:
            from .replay import SEEK_CLASSES

            self.disk_l = self._sub_disk.tolist()
            self.nb_l = self._sub_nbytes.tolist()
            self.seek_name_l = [
                SEEK_CLASSES[c] for c in self._sub_seek.tolist()
            ]
        return self.disk_l, self.nb_l, self.seek_name_l

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

    Row ``level_row[rpm]`` of the underlying table is
    ``fl(seek_s + latency) + nbytes / rate`` per sub-request — operand
    association identical to ``PowerModel.service_time_s``'s fast path,
    so every entry is bit-equal to the scalar computation.  Cached on the
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


def _busy_periods(a0: np.ndarray, svc: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Completions of a FIFO queue whose busy periods start where ``st``
    is set.

    A period is one left fold seeded with its first arrival ``a0``.  The
    periods are bucketed by power-of-two length, so each bucket is one
    zero-padded matrix (a row per period, the seed in column 0) run
    through a single ``np.add.accumulate`` along its rows — a strictly
    sequential fold, bit-equal to ``Disk.serve``'s ``start + svc`` chain —
    with padding under twice the subs.
    """
    n = a0.size
    starts = np.flatnonzero(st)
    lens = np.diff(starts, append=n)
    exps = np.frexp(lens - 1)[1]
    comp = np.empty(n)
    for e in np.unique(exps).tolist():
        sel = exps == e
        first = starts[sel]
        glen = lens[sel]
        width = int(glen.max()) + 1
        mat = np.zeros((first.size, width))
        mat[:, 0] = a0[first]
        off = np.arange(int(glen.sum())) - np.repeat(np.cumsum(glen) - glen, glen)
        src = np.repeat(first, glen) + off
        flat = np.repeat(np.arange(first.size) * width + 1, glen) + off
        cells = mat.ravel()
        cells[flat] = svc[src]
        np.add.accumulate(mat, axis=1, out=mat)
        comp[src] = cells[flat]
    return comp


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
    ``bad``, and the caller serves the rest of the window in stream order
    (:func:`_chain`).
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


def _chain(
    tn: list,
    delay: float,
    ptr: list,
    grp: list,
    svc: list,
    cur: list,
    tnext: float,
    open_loop: bool,
) -> tuple[list, list, list, float]:
    """Serve requests in stream order, one sub at a time, with
    ``Disk.serve``'s timing arithmetic on plain floats.

    Request ``i`` (subs ``ptr[i]:ptr[i + 1]``) issues at ``tn[i] +
    delay``; each sub starts at ``max(t, c)``, ``c`` its disk's last
    completion (``cur[grp[j]]``, updated in place); the response is the
    latest completion minus the issue time, and in closed loop it feeds
    the delay.  Stops before the first request issued at or after
    ``tnext``.  Returns the responses, sub starts and completions, and
    the delay.
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
        if not open_loop:
            delay += r
    return r_out, st_out, c_out, delay


class _Queues:
    """A vector window's sub-requests as one FIFO queue per disk.

    The subs are grouped by disk with one stable argsort (``order``), so
    each disk's subs stay in stream order, which its queue requires.
    Window-local grouping keeps the kernel O(window log window); a global
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
        order = np.argsort(sub_disk, kind="stable")
        bounds = np.searchsorted(
            sub_disk[order], np.arange(len(disks) + 1, dtype=np.int64)
        )
        glen_all = np.diff(bounds)
        present = np.flatnonzero(glen_all)
        self.order = order
        self.heads = bounds[present]
        self.glen = glen_all[present]
        self.present = present
        self.seed = np.array([disks[d].cursor_s for d in present.tolist()])
        self.svc_stream = svc
        self.svc = svc[order]
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
            start, comp, prev, bad = _fifo(a, self.svc, self.heads, self.seed)
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
            # a busy-period boundary failed its check (open loop), or a
            # sub queues (closed loop).  A closed-loop sub queues only where
            # rounding puts its issue time an ulp or so before its disk's
            # last completion, and the side of that tie each later request
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
            r_c, st_c, c_c, delay_c = _chain(
                tn[q:].tolist(),
                delay if pre is None else float(pre[q]),
                (tail - sq).tolist(),
                grp[sq:].tolist(),
                self.svc_stream[sq:].tolist(),
                cur.tolist(),
                tnext,
                open_loop,
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
            if pre is not None:
                delay = delay_c
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
        _fold_disks(
            pdisks, glen, start, prev, svc, comp, nbytes[order], pm,
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
    pm: PowerModel,
    rpm_counts: dict[int, int] | None,
    busy: BusySink | None,
    recorder,
) -> None:
    """Fused accounting of one vector window over the disks ``pdisks``.

    The per-sub arrays hold those disks' subs grouped by disk, in stream
    order within each disk (``glen[p]`` subs for ``pdisks[p]``): service
    starts ``td_s``, each sub's predecessor completion ``prev_s`` (the
    disk's cursor at its first sub) and completions ``comp_s`` from
    :func:`_fifo`.  Idle time ``td_s - prev_s`` is exactly ``0.0`` inside
    a busy period, so it accrues only between periods.  Every
    per-disk accrual is a sequential left fold over that disk's subs, so
    all five folds x all disks of similar load are packed into one
    zero-padded matrix — one row per (disk, accumulator), seeded with the
    current totals in column 0 — and run through a single
    ``np.add.accumulate`` along the rows: padding zeros are bitwise no-ops
    on the non-negative accumulators, so the row ends equal the scalar
    ``+=`` chains bit for bit.  A disk's RPM is constant across the window
    (plain disks only change level at directive boundaries, which close
    windows), so each disk's idle/active power broadcasts along its row.

    Busy intervals (``busy`` given) are the per-disk slices of the
    service-start and completion arrays.  Timeline segments (``recorder``
    given) come from the same arrays: per sub, an idle segment from the
    previous completion to the service start (empty inside a busy period,
    and dropped by the recorder), then a service segment whose
    explicit duration is the *table* service time — ``(td + svc) - td``
    differs from ``svc`` in the last bits, and the fold accrued ``svc``.
    """
    P = len(pdisks)
    heads = np.zeros(P, dtype=np.int64)
    np.cumsum(glen[:-1], out=heads[1:])
    dur = td_s - prev_s
    rpm_p = [d.rpm for d in pdisks]
    iw_p = [pm._idle_w_by_level[r] for r in rpm_p]
    aw_p = [pm._active_w_by_level[r] for r in rpm_p]
    seeds = np.empty(5 * P)
    for p, d in enumerate(pdisks):
        st = d.stats
        seeds[p] = st.time_s["idle"]
        seeds[P + p] = st.energy_j["idle"]
        seeds[2 * P + p] = st.time_s["active"]
        seeds[3 * P + p] = st.energy_j["active"]
        seeds[4 * P + p] = st.idle_time_by_rpm.get(rpm_p[p], 0.0)
    iw_a = np.array(iw_p)
    aw_a = np.array(aw_p)
    finals = np.empty(5 * P)
    # Disks are bucketed by power-of-two sub count, so a bucket's rows pad
    # to under twice the subs of its shortest disk: one bucket, and one
    # matrix, when the disks are evenly loaded.
    exps = np.frexp(glen)[1]
    for e in np.unique(exps).tolist():
        sel = np.flatnonzero(exps == e)
        B = sel.size
        gl = glen[sel]
        first = np.cumsum(gl) - gl
        stride = int(gl.max()) + 1
        lanes = (np.arange(5)[:, None] * P + sel).ravel()
        mat = np.zeros((5 * B, stride))
        mat[:, 0] = seeds[lanes]
        # Scatter the two time lanes (a disk's i-th sub lands in column
        # i + 1 of its row), then derive the energy and per-RPM lanes
        # densely: each element of a per-disk power broadcast is the exact
        # ``dur * w`` product the scalar path computes, and padding stays
        # zero.
        idx = np.arange(int(gl.sum()), dtype=np.int64)
        pos = idx + np.repeat(np.arange(B, dtype=np.int64) * stride - first + 1, gl)
        if B == P:
            dur_b, svc_b = dur, svc_s
        else:
            src = idx + np.repeat(heads[sel] - first, gl)
            dur_b, svc_b = dur[src], svc_s[src]
        flat = mat.ravel()
        flat[pos] = dur_b
        flat[pos + 2 * B * stride] = svc_b
        idle = mat[:B, 1:]
        act = mat[2 * B:3 * B, 1:]
        np.multiply(idle, iw_a[sel][:, None], out=mat[B:2 * B, 1:])
        np.multiply(act, aw_a[sel][:, None], out=mat[3 * B:4 * B, 1:])
        mat[4 * B:, 1:] = idle
        np.add.accumulate(mat, axis=1, out=mat)
        finals[lanes] = mat[:, -1]
    idle_t = finals[:P].tolist()
    idle_e = finals[P:2 * P].tolist()
    act_t = finals[2 * P:3 * P].tolist()
    act_e = finals[3 * P:4 * P].tolist()
    rpm_tm = finals[4 * P:].tolist()
    lasts = heads + glen - 1
    dmax = np.maximum.reduceat(dur, heads).tolist()
    nbytes_g = np.add.reduceat(nbytes_s, heads).tolist()
    td_last = td_s[lasts].tolist()
    comp_last = comp_s[lasts].tolist()
    glen_l = glen.tolist()
    for p, disk in enumerate(pdisks):
        st = disk.stats
        st.time_s["idle"] = idle_t[p]
        st.energy_j["idle"] = idle_e[p]
        st.time_s["active"] = act_t[p]
        st.energy_j["active"] = act_e[p]
        by_rpm = st.idle_time_by_rpm
        rpm_d = rpm_p[p]
        if rpm_d in by_rpm or dmax[p] > 0:
            by_rpm[rpm_d] = rpm_tm[p]
        st.num_requests += glen_l[p]
        st.bytes_served += nbytes_g[p]
        disk.last_service_start_s = td_last[p]
        end = comp_last[p]
        disk.cursor_s = end
        disk.ready_s = end
        disk.idle_anchor_s = end
        disk.last_request_end_s = end
        disk._auto_armed = True
        if rpm_counts is not None:
            rpm_counts[rpm_d] = rpm_counts.get(rpm_d, 0) + glen_l[p]
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
    lo = 0
    for p, disk in enumerate(pdisks):
        hi = lo + glen_l[p]
        d_id = disk.disk_id
        rpm_d = rpm_p[p]
        iw = iw_p[p]
        aw = aw_p[p]
        for i in range(lo, hi):
            t_i = td_l[i]
            rec_fn(d_id, "idle", prev_l[i], t_i, iw, rpm_d)
            rec_fn(d_id, "active", t_i, comp_l[i], aw, rpm_d, "", svc_l[i])
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
    responses: array | _ResponseFold,
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
    indptr_l = geom.indptr_l
    s0 = indptr_l[ri]
    s1 = indptr_l[we]
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
    fold = getattr(responses, "fold_array", None)
    if fold is None:
        responses.frombytes(resp[:cut].tobytes())
    else:
        fold(resp[:cut])

    wsubs = indptr_l[k] - s0
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


# ---------------------------------------------------------------------- #
# Replay driver
# ---------------------------------------------------------------------- #
def _replay(
    plan: ReplayPlan,
    disks: list[Disk],
    pm: PowerModel,
    on_complete,
    timed: Sequence[TimedDirective],
    directives: Sequence,
    total_compute_s: float,
    responses: array | _ResponseFold,
    busy: BusySink | None,
    rpm_counts: dict[int, int] | None,
    fault_plan,
    delay0: float,
    timed_idx0: int,
    finalize: bool,
    miss_keys: frozenset | None,
    open_loop: bool,
    use_vector: bool,
) -> tuple[int, float, float, int]:
    """Replay one chunk; returns ``(num_directives, end_time, delay,
    timed_idx)``.

    The request, trace-directive, and timed (oracle) streams are merged
    inline: all are sorted by time, and a trace directive executes ahead
    of a request at the same nominal time.  Every sub-request outside a
    vector window runs through ``Disk.serve`` (``serve_faulty`` when the
    fault plan flags it), with the striping fan-out and seek class read
    from the scheme-invariant plan's flat per-sub lists, so no
    ``IORequest`` objects are ever materialized.  ``on_complete`` (the
    reactive controller hook, stepwise only) sees every completion.

    ``use_vector`` turns the vector probe on (segmented replay): at the
    start of each quiescent run long enough for a window before the next
    directive of either kind, the driver completes every transition due
    by the next issue time (``Disk.advance(end)``), marks *hot* disks — a
    transition in flight (pending power calls and spin-up chains only
    exist while one is) or standby — and bounds the window at the next
    timed directive and the earliest instant an autonomous spin-down could
    fire.  An armed disk already past its threshold (*overdue*) fires only
    when next served, so it truncates the window at its first touch
    instead of pinning the bound in the past.  The window also ends at the
    first request touching a hot disk and at the next fault-flagged
    request.  After a probe, the scalar run ends at that bound, at the
    earliest hot transition end, right after the request that fires an
    overdue disk, or right after a flagged request that leaves room for a
    window before the next one, whichever comes first: only there can a
    later probe open a window this one could not.

    ``open_loop=True`` freezes the delay at ``delay0``: issue times come
    straight from the trace (recorded arrival times) instead of the
    closed-loop compute/IO feedback chain, and neither responses nor
    directive overheads shift later arrivals.  Queueing at a busy disk is
    still modeled exactly — :meth:`Disk.serve` starts each sub-request at
    ``max(arrival, cursor, ready)``, and the vector kernel's per-disk
    FIFO queues compute the same starts in batch.

    ``miss_keys`` (only supplied when a timeline recorder is attached)
    holds the ``(disk, realized_time)`` keys of fault-plan deadline
    misses so slipped directives are attributed ``deadline-miss:*``
    instead of ``directive:*``/``oracle:*``.

    ``delay0``/``timed_idx0`` seed the closed-loop delay and the oracle
    directive cursor carried over from the previous chunk (``0.0``/``0``
    for the first); ``finalize=False`` skips the trailing timed-directive
    flush so the next chunk continues the same timeline.  A whole trace
    is a single chunk with ``finalize=True``.  All other cross-chunk state
    lives in the ``Disk`` objects.
    """
    num_disks = len(disks)
    geom = _geometry(plan)
    req_times = geom.req_times
    indptr_l = geom.indptr_l
    # Built on first use: an all-vector replay never pays the O(subs)
    # ``tolist`` views, a stepwise one never the service tables.
    disk_l = nb_l = seek_name_l = None
    tables = None
    n = len(req_times)
    num_dir_records = len(directives)
    num_timed = len(timed)
    timed_times = [td.time_s for td in timed]
    serves = [d.serve for d in disks]
    # Fault threading: ``flags[ri]`` marks requests with at least one
    # faulty sub-request; those dispatch per-sub to ``serve_faulty`` and
    # end any vector window.  A zero-rate plan materializes no flags
    # (nothing can fault), so the hot loop pays one test per request.
    if fault_plan is not None and fault_plan.request_flags is not None:
        flags = fault_plan.request_flags
        sub_errors = fault_plan.sub_errors
        flagged = fault_plan.flagged_requests
    else:
        flags = None
        sub_errors = None
        flagged = ()
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
        miss = miss_keys or frozenset()

        def _dcause(k, record):
            if (record.call.disk, record.nominal_time_s) in miss:
                return f"deadline-miss:{k}"
            return f"directive:{k}"

        def _tcause(k, td):
            if (td.call.disk, td.time_s) in miss:
                return f"deadline-miss:oracle:{k}"
            return f"oracle:{k}"
    delay = delay0
    num_directives = 0
    timed_idx = timed_idx0
    tnext = timed_times[timed_idx] if timed_idx < num_timed else inf
    scalar_subs = 0

    def drain(t: float) -> None:
        # Oracle directives scheduled at or before ``t`` fire at their own
        # absolute times (they were planned against the realized
        # timeline, which a zero-penalty oracle shares with this replay);
        # if replay drifted past the planned instant (the disk was still
        # busy), the call takes effect as soon as the disk is available.
        nonlocal timed_idx, num_directives, tnext
        while timed_idx < num_timed and timed_times[timed_idx] <= t:
            td = timed[timed_idx]
            target = disks[td.call.disk]
            t_td = td.time_s
            c = target.cursor_s
            apply_call(
                target, t_td if t_td > c else c, td.call,
                CAUSE_EXTERNAL if _tcause is None else _tcause(timed_idx, td),
            )
            num_directives += 1
            timed_idx += 1
        tnext = timed_times[timed_idx] if timed_idx < num_timed else inf

    ri = 0
    di = 0
    while True:
        # Requests strictly before the next trace directive's nominal time
        # run first.  Nominal times are compared, so the bound is
        # delay-independent; the scan totals O(num_requests) per replay.
        if di < num_dir_records:
            dnom = directives[di].nominal_time_s
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
            # before the next trace directive (checked in O(1) here, ahead
            # of the per-disk scan).
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
                        plan, geom, tables, pm, disks, ri, we, delay, vnext,
                        hot, responses, busy, rpm_counts, tl_rec, open_loop,
                    )
                    # A window that stopped at ``vnext`` or an unsettled
                    # delay fixpoint re-probes; one that reached a hot,
                    # overdue, or flagged request hands over to
                    # ``Disk.serve``.
                    if ri0 < ri < we:
                        continue

            if disk_l is None and ri < bound:
                disk_l, nb_l, seek_name_l = geom.scalar_views()
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
                            t, nb_l[j], seek_name_l[j], errs
                        )
                    else:
                        done = serves[disk_id](t, nb_l[j], seek_name_l[j])
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
                                disk, t, start, done, nb_l[j], seek_name_l[j]
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
                    # Only the flagged request needed ``serve_faulty``: end
                    # the run if a window fits before the next flagged one.
                    f = bisect_right(flagged, k - 1)
                    nf = flagged[f] if f < fr_n and flagged[f] < bound else bound
                    if indptr_l[nf] - indptr_l[k] >= VECTOR_MIN_SUBREQUESTS:
                        break
            scalar_subs += indptr_l[k] - indptr_l[ri]
            ri = k

        if di < num_dir_records:
            rec = directives[di]
            di += 1
            t_exec = rec.nominal_time_s + delay
            if t_exec >= tnext:
                drain(t_exec)
            call = rec.call
            if not 0 <= call.disk < num_disks:
                raise SimulationError(
                    f"directive {di - 1} targets unknown disk {call.disk}"
                )
            if open_loop:
                # The frozen delay can leave a directive's executed time
                # behind a backlogged disk; it takes effect as soon as the
                # disk is available, like a timed call.
                c = disks[call.disk].cursor_s
                if t_exec < c:
                    t_exec = c
            apply_call(
                disks[call.disk], t_exec, call,
                CAUSE_EXTERNAL if _dcause is None else _dcause(di - 1, rec),
            )
            num_directives += 1
            if call.overhead_cycles and not open_loop:
                delay += call.overhead_cycles / _CLOCK_HZ
        elif ri >= n:
            break

    # Flush oracle directives scheduled after the last record.
    end_time = total_compute_s + delay
    if finalize:
        drain(end_time)
    cov = REPLAY_COVERAGE
    if use_vector:
        cov["subrequests_scalar"] += scalar_subs
        cov["directive_edits"] += num_directives
    else:
        cov["subrequests_stepwise"] += scalar_subs
    return num_directives, end_time, delay, timed_idx


class _ResponseFold:
    """Response sink folding count/total/max on the fly.

    Stands in for the per-request response column during streamed replay:
    the driver's scalar path ``append``s floats (the ``+=`` fold is the
    scalar chain itself) and the vector kernel hands whole windows to
    :meth:`fold_array` (``sequential_sum`` is bit-equal to that chain;
    max is an order-independent exact selection), so no response column
    is ever materialized.
    """

    __slots__ = ("count", "total", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def append(self, r: float) -> None:
        self.count += 1
        self.total += r
        if r > self.max:
            self.max = r

    def fold_array(self, arr: np.ndarray) -> None:
        if arr.size:
            self.count += int(arr.size)
            self.total = sequential_sum(self.total, arr)
            m = float(arr.max())
            if m > self.max:
                self.max = m


def _stream_chunks(layout, directives: Sequence, columns):
    """``(plan, directives, final)`` per chunk of a streamed replay.

    Each chunk gets its own :class:`ReplayPlan` with seek continuity
    threaded via :class:`~repro.disksim.replay.SeekCarry`.  Directive
    records are partitioned by the merged-stream tie rule: a chunk
    executes every directive whose nominal time is at or before its last
    request's nominal time and the final chunk takes all leftovers, so the
    partition reproduces the whole-trace merge exactly.  Empty chunks are
    skipped, except that an empty stream still yields one empty final
    chunk.  One chunk of lookahead tells the last chunk apart.
    """
    dir_times = [d.nominal_time_s for d in directives]
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
                dhi = len(directives)
            else:
                dhi = bisect_right(
                    dir_times, float(cur.nominal_time_s[-1]), dlo
                )
            yield plan, directives[dlo:dhi], final
            dlo = dhi
        cur = nxt


# ---------------------------------------------------------------------- #
def simulate(
    trace: Trace | TraceStream,
    params: SubsystemParams,
    controller: Controller | None = None,
    collect_busy_intervals: bool = False,
    recorder=None,
    plan: ReplayPlan | None = None,
    engine: str = "auto",
    faults=None,
    open_loop: bool = False,
) -> SimulationResult:
    """Replay ``trace`` under ``params`` with an optional controller.

    ``trace`` is a whole :class:`~repro.trace.request.Trace` or a
    :class:`~repro.trace.stream.TraceStream`, and both run one replay
    loop over chunks.  A whole trace is exactly one chunk: the ``plan``
    (or :meth:`ReplayPlan.for_trace`), the full (fault-shifted) directive
    stream, and a per-request response column, so the result carries
    ``request_responses`` and an exact p95.  A stream is replayed chunk by
    chunk with peak memory bounded by the chunk size: each chunk gets its
    own plan and its share of the directives (see :func:`_stream_chunks`).
    Between chunks the closed-loop delay and the oracle-directive cursor
    carry over; all other cross-chunk state lives in the ``Disk`` state
    machines (and in a reactive controller's own fields).  Any chunking of the same request sequence is therefore
    bit-identical to the whole-trace replay, and both engines agree (the
    streaming equivalence tests enforce both).  Streamed response
    statistics fold as running count/total/max —
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
    against this trace's replay plan *before* engine dispatch, so both
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

    ``engine`` selects the replay path.  There is one driver
    (:func:`_replay`): ``"segmented"`` runs it with vector windows on,
    ``"stepwise"`` with them off, so every sub-request goes through
    ``Disk.serve`` (the reference the equivalence suites compare
    against), and ``"auto"`` (default) is segmented whenever it applies.
    Both are bit-identical — including any attached timeline recorder's
    segment stream.  Any engine other than ``"stepwise"`` falls back to
    stepwise replay for reactive controllers, whose
    ``on_request_complete`` hook observes every sub-request
    (``reactive-controller``: reactive DRPM and adaptive TPM).  Reactive
    TPM has no hook — its autonomous spin-down lives in ``Disk`` — so it
    replays segmented.  ``"auto"`` therefore means segmented unless the
    controller is reactive.

    No fallback is silent: each forced routing is logged (DEBUG) with its
    reason and recorded in ``SimulationResult.engine`` /
    ``SimulationResult.engine_forced``.
    """
    streamed = isinstance(trace, TraceStream)
    if engine not in ("auto", "stepwise", "segmented"):
        raise SimulationError(f"unknown replay engine {engine!r}")
    if streamed:
        if recorder is not None:
            raise SimulationError(
                "streamed replay cannot attach a timeline recorder; "
                "replay a whole Trace for timelines"
            )
        if collect_busy_intervals:
            raise SimulationError(
                "streamed replay cannot collect busy intervals; "
                "replay a whole Trace for busy-interval capture"
            )
        if faults is not None:
            raise SimulationError(
                "streamed replay does not support fault injection: a fault "
                "plan indexes absolute sub-request ordinals of a whole-trace "
                "replay plan"
            )
        if plan is not None:
            raise SimulationError(
                "streamed replay builds one plan per chunk; do not pass a "
                "whole-trace plan"
            )
    ctrl = controller or Controller()
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
    fault_plan = None
    if faults is not None:
        from ..faults import FaultPlan

        fault_plan = FaultPlan(faults, plan)
    pm = PowerModel(params.disk, params.drpm)
    disks = [
        Disk(
            i,
            pm,
            auto_spindown_threshold_s=ctrl.auto_spindown_threshold_s,
            recorder=recorder,
            faults=fault_plan,
        )
        for i in range(params.num_disks)
    ]
    ctrl.prepare(len(disks), pm)
    # The base Controller's reactive hook is a no-op; skipping the call for
    # controllers that never override it saves one dispatch per sub-request.
    reactive = type(ctrl).on_request_complete is not Controller.on_request_complete

    timed: Sequence[TimedDirective] = sorted(
        ctrl.timed_directives(), key=lambda d: d.time_s
    )
    for k, td in enumerate(timed):
        if not 0 <= td.call.disk < params.num_disks:
            raise SimulationError(
                f"timed directive {k} targets unknown disk {td.call.disk}"
            )
    # Deadline misses shift pre-activation directives *before* engine
    # dispatch: both engines replay the already-slipped streams, and the
    # requests a slip strands at the pre-directive disk state simply serve
    # there — the graceful-degradation semantics fall out of the ordinary
    # replay rules (low-RPM service for the DRPM family, a reactive
    # spin-up for the TPM family), with the directive honoured late.
    directives = trace.directives
    trace_misses: tuple = ()
    timed_misses: tuple = ()
    if fault_plan is not None:
        top_rpm = params.disk.rpm
        directives, trace_misses = fault_plan.delay_trace_directives(
            directives, top_rpm
        )
        timed, timed_misses = fault_plan.delay_timed_directives(timed, top_rpm)
    # Deadline-miss attribution keys: slipped directives are rebuilt with
    # their *realized* time, so ``(disk, realized_time)`` identifies them
    # in either engine.  Only materialized when a recorder is attached.
    miss_keys: frozenset | None = None
    if recorder is not None and (trace_misses or timed_misses):
        miss_keys = frozenset(
            (d_id, t1) for d_id, _t0, t1 in (*trace_misses, *timed_misses)
        )

    # ------------------------------------------------------------------ #
    # Engine selection.  Nothing here is silent: every routing away from
    # the requested/auto engine is logged with its reason, recorded in the
    # result's ``engine_forced`` metadata, and counted in ``sim.fallbacks``.
    segmented = engine != "stepwise"
    forced = ""
    if segmented and reactive:
        segmented = False
        forced = "reactive-controller"
        logger.debug(
            "%s/%s: reactive controller %s observes per-sub-request "
            "completions; routing to the stepwise reference loop",
            trace.program_name, ctrl.name, type(ctrl).__name__,
        )
    engine_used = "segmented" if segmented else "stepwise"

    observing = obs.enabled()
    rpm_counts: dict[int, int] | None = {} if observing else None
    t_replay0 = time.perf_counter() if observing else 0.0

    # Per-kind sinks: a whole trace keeps every response (exact p95 and
    # ``request_responses``) in an unboxed column; a stream folds them as
    # it goes.
    responses: array | _ResponseFold
    if streamed:
        responses = _ResponseFold()
        span_attrs: dict = {"streamed": True}
    else:
        responses = array("d")
        span_attrs = {
            "requests": plan.num_requests,
            "subrequests": plan.num_subrequests,
        }
    busy: BusySink | None = None
    if collect_busy_intervals:
        busy = ([array("d") for _ in disks], [array("d") for _ in disks])
    on_complete = ctrl.on_request_complete if reactive else None
    delay = 0.0
    timed_idx = 0
    num_directives = 0
    num_requests = 0
    num_chunks = 0
    REPLAY_COVERAGE["replays_segmented" if segmented else "replays_stepwise"] += 1

    with obs.span(
        "sim.replay",
        program=trace.program_name,
        scheme=ctrl.name,
        engine=engine_used,
        **span_attrs,
    ) as sp:
        if forced:
            sp.set(forced=forced)
        if fault_plan is not None:
            sp.set(fault_seed=faults.seed)
        if not streamed:
            chunks = ((plan, directives, True),)
        else:
            chunks = _stream_chunks(layout, directives, trace.iter_chunks())
        for plan_c, dirs_c, final in chunks:
            nd, end_time, delay, timed_idx = _replay(
                plan_c, disks, pm, on_complete, timed, dirs_c,
                trace.total_compute_s, responses, busy,
                rpm_counts, fault_plan, delay,
                timed_idx, final, miss_keys, open_loop, segmented,
            )
            num_directives += nd
            num_requests += plan_c.num_requests
            num_chunks += 1
            if streamed:
                if observing:
                    # Live-telemetry feed: a ProgressReporter samples
                    # these between chunks (requests replayed so far,
                    # chunk count, simulated-time watermark) to derive
                    # req/s and ETA.
                    _metrics.inc("progress.requests", plan_c.num_requests)
                    _metrics.inc("progress.chunks")
                    _metrics.set_gauge("progress.sim_time_s", round(end_time, 6))
                # Break the plan <-> _PlanGeometry reference cycle so the
                # chunk's plan, geometry lists, and service tables are
                # freed by refcounting the moment ``plan_c`` rebinds.  Left
                # to the cyclic GC, dozens of chunks' worth of O(chunk)
                # derived state pile up between gen-2 collections and the
                # streamed peak grows with trace length instead of staying
                # bounded.  Only per-chunk plans built here are cleared: a
                # caller's plan keeps its derived state for the next replay.
                plan_c._derived.clear()
        if streamed:
            sp.set(
                requests=num_requests, directives=num_directives,
                chunks=num_chunks,
            )
        else:
            sp.set(directives=num_directives)

    if fault_plan is not None:
        # Deadline-miss and degraded-serve accounting is derived from the
        # (engine-invariant) miss windows and the plan's nominal
        # coordinates, so both engines report identical counters.  Oracle
        # (absolute-time) windows count misses only: their times live on
        # the realized timeline, which nominal coordinates cannot index.
        for d_id, _, _ in trace_misses:
            disks[d_id].stats.num_deadline_misses += 1
        for d_id, _, _ in timed_misses:
            disks[d_id].stats.num_deadline_misses += 1
        for d_id, cnt in fault_plan.degraded_counts(plan, trace_misses).items():
            disks[d_id].stats.num_degraded_serves += cnt

    if observing:
        _metrics.inc("sim.replays", engine=engine_used, scheme=ctrl.name)
        if forced:
            _metrics.inc("sim.fallbacks", reason=forced)
        _metrics.inc("sim.requests", num_requests)
        if streamed:
            # Retire the live-telemetry count: ``progress.requests`` minus
            # ``progress.requests_done`` is the streamed in-flight
            # backlog, so a reporter's (completed + in-flight) total never
            # double-counts a finished streamed replay against
            # ``sim.requests``.
            _metrics.inc("progress.requests_done", num_requests)
        _metrics.inc("sim.directives", num_directives)
        if rpm_counts:
            for rpm, count in rpm_counts.items():
                _metrics.inc("sim.subrequests", count, rpm=rpm)
        _metrics.observe(
            "sim.replay_wall_s", time.perf_counter() - t_replay0,
            scheme=ctrl.name,
        )
        if fault_plan is not None:
            stats_list = [d.stats for d in disks]
            for metric, total in (
                ("sim.faults.request_errors",
                 sum(s.num_request_errors for s in stats_list)),
                ("sim.faults.request_retries",
                 sum(s.num_request_retries for s in stats_list)),
                ("sim.faults.request_timeouts",
                 sum(s.num_request_timeouts for s in stats_list)),
                ("sim.faults.spinup_failures",
                 sum(s.num_spinup_failures for s in stats_list)),
                ("sim.faults.deadline_misses",
                 len(trace_misses) + len(timed_misses)),
                ("sim.faults.degraded_serves",
                 sum(s.num_degraded_serves for s in stats_list)),
            ):
                if total:
                    _metrics.inc(metric, total, scheme=ctrl.name)

    if open_loop:
        # With no delay feedback the nominal span can end before the last
        # queued request drains; execution runs to the later of the two.
        # ``last_request_end_s`` is engine-invariant (both engines leave
        # identical disk state), so the extension preserves bit-identity.
        end_time = max(
            end_time, max((d.last_request_end_s for d in disks), default=0.0)
        )
    for disk in disks:
        disk.finalize(end_time)
    if streamed:
        summary = ResponseSummary.from_running(
            responses.count, responses.total, responses.max
        )
        per_request = None
    else:
        per_request = np.frombuffer(responses, dtype=float)
        summary = ResponseSummary.from_samples(per_request)
    busy_columns = () if busy is None else tuple(
        (np.frombuffer(s, dtype=float), np.frombuffer(e, dtype=float))
        for s, e in zip(*busy)
    )
    # Disk timelines may exceed the app end (e.g. a trailing transition);
    # execution time is the app's, but energy accounting follows each disk
    # to its own final cursor, so energy==power*time invariants hold.
    return SimulationResult.from_columns(
        busy_columns=busy_columns,
        response_array=per_request,
        scheme=ctrl.name,
        program_name=trace.program_name,
        execution_time_s=end_time,
        disk_stats=tuple(d.stats for d in disks),
        responses=summary,
        num_requests=num_requests,
        num_directives=num_directives,
        engine=engine_used,
        engine_forced=forced,
    )
