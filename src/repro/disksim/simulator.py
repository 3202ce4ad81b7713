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

Two replay engines produce bit-identical results:

* **stepwise** — the reference per-sub-request state machine:
  ``Disk.serve`` once per sub-request, directives merged inline.
* **segmented** — maintains a per-disk *mirror* of the fields the request
  path reads and writes (cursor, ready, idle anchor, RPM, standby flag,
  one in-flight transition, per-state time/energy partial sums) and
  replays the merged stream against it.  Power directives are
  *segment-boundary state edits*: between kernel windows the directive
  mutates the mirror exactly as ``Disk.set_rpm``/``spin_down``/
  ``spin_up`` would, so IDRPM/CMTPM/CMDRPM replays stay batched instead
  of ending a segment.  Windows with no disk in a mirrored-busy or
  exact-routed state run the vectorized kernel (service maxima as table
  lookups, closed-loop ``delay`` as a short scan, idle/active accrual in
  one fused fold); windows touching a busy disk run a scalar mirror loop
  that resolves the in-flight transition inline.  Reactive DRPM's window
  heuristic runs on the scalar mirror via :func:`repro.power.planner.
  drpm_window_step`.  Only genuinely entangled cases escape to the exact
  ``Disk`` methods — a directive landing inside a transition, an
  auto-spindown falling due, a standby wake, a spin-up fault, or queued
  deferred work (see :attr:`Disk.mirrorable`) — and each escape is
  counted by reason in :func:`replay_coverage` and the
  ``sim.fallbacks{reason}`` metric.  Timeline recording is
  engine-independent: the mirror edits and scalar accruals emit the same
  :class:`~repro.disksim.timeline.Segment` stream the stepwise recorder
  produces, bit for bit, and the fused vector accounting emits each
  window's segments from the arrays it folds.

Within a quiescent segment the synchronous model guarantees every
sub-request starts exactly at its issue time: the app blocks until the
*slowest* disk of request ``i`` completes, so
``t_exec[i+1] = completion[i] + (nominal[i+1] - nominal[i]) >=
completion[i] >= cursor`` of every disk.  Service start collapses to
``t_exec``, completion to ``t_exec + max_d svc_d`` (rounding is monotone,
so the max over per-disk completions equals the completion of the max
service time), and the per-disk idle gap to ``t_exec - prev_completion``
— the exact floating-point expressions the stepwise path evaluates,
batched.  The rare rounding edge where a nominal-time regression (the
trace order tolerance) makes ``t_exec`` land *before* the previous
completion is detected per request and bailed to ``Disk.serve``.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left, bisect_right
from itertools import repeat
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
from .diskarray import STATE_INDEX, STATE_NAMES, DiskArray
from .timeline import (
    CAUSE_DRPM_WINDOW,
    CAUSE_EXTERNAL,
)
from .params import SubsystemParams
from .powermodel import PowerModel
from .replay import ReplayPlan
from .stats import BusyInterval, ResponseSummary, SimulationResult

__all__ = [
    "simulate",
    "apply_call",
    "replay_coverage",
    "reset_replay_coverage",
    "VECTOR_MIN_REQUESTS",
    "VECTOR_MIN_SUBREQUESTS",
    "AUTO_ROUTING",
]

logger = logging.getLogger(__name__)

#: Clock used to charge directive call overhead (Tm), paper §4.1.
_CLOCK_HZ = 750e6

#: Residency-bank row indices for the states the kernels touch inline.
_I_IDLE = STATE_INDEX["idle"]
_I_ACTIVE = STATE_INDEX["active"]
_I_STANDBY = STATE_INDEX["standby"]

#: Minimum quiescent-run length (in requests) before the NumPy batch
#: kernel is even considered; the binding gate is
#: :data:`VECTOR_MIN_SUBREQUESTS` on the truncated window.
VECTOR_MIN_REQUESTS = 64

#: Minimum *sub-request* count (after hot/fault truncation) for the NumPy
#: batch kernel.  The kernel carries ~0.2 ms of fixed array setup per
#: window while the scalar mirror serves a sub in ~1 µs, so the measured
#: crossover sits near 300 subs on this container; shorter windows (e.g.
#: single-disk request streams cut every ~24 requests by DRPM level
#: directives) run the scalar mirror, which has no setup cost.
VECTOR_MIN_SUBREQUESTS = 256

#: Maximum scalar-window length (in requests) while timed directives are
#: pending.  Deferral keeps serving disks the due directives do not touch,
#: so without a cap one due directive on an idle disk could pin the whole
#: remaining stream to the scalar kernel; every ``cap`` requests the
#: driver drains and re-probes for a vector window instead.
DEFER_WINDOW_REQUESTS = 128

#: The ``auto`` routing rule in manifest-ready form.  Directives are
#: boundary edits, so no engine-level crossover remains: ``auto`` is
#: segmented unless a reactive controller observes every sub-request.
#: The in-kernel vector/scalar crossovers (see docs/performance.md) ride
#: along so a run manifest records the full routing policy that produced
#: its numbers.
AUTO_ROUTING: dict = {
    "rule": "segmented unless the controller is reactive",
    "vector_min_requests": VECTOR_MIN_REQUESTS,
    "vector_min_subrequests": VECTOR_MIN_SUBREQUESTS,
    "defer_window_requests": DEFER_WINDOW_REQUESTS,
}

#: Engine observability: how much of the replay ran on which path.
#: ``subrequests_stepwise`` counts sub-requests served through the exact
#: ``Disk.serve`` state machine (the whole replay for stepwise routing;
#: per-sub escapes for segmented replays), ``subrequests_vector`` /
#: ``subrequests_scalar`` count the batched kernels, and ``bailouts``
#: counts per-request vector-kernel exits on the rounding guard.
#: ``segments_fused`` counts vector windows served by the fused SoA
#: accounting batch, which serves every vector window
#: (``segments_fused_multirpm``: the subset fused while the subsystem
#: held mixed RPM levels).
#: ``segments_scalar`` counts *maximal* scalar-kernel runs — directive
#: boundary edits (``directive_edits``) and per-sub escapes do not close a
#: segment, only a vector run does.  ``fallback_*`` keys count the per-sub
#: and per-call escapes to the exact state machine by reason;
#: ``directive_mid_service`` counts calls clamped to a mirror cursor (the
#: call landed while the disk was busy); ``windows_scalar_short_run``
#: counts windows too short for the vector kernel.
#:
#: The counters are a plain module-global dict — deliberately: they sit on
#: the hottest loops and a registry indirection is measurable there.  The
#: contract is single-process: pool workers each accumulate their own copy,
#: and :func:`simulate` additionally mirrors per-replay deltas into
#: ``repro.obs.metrics`` (prefix ``sim.coverage.``) when observability is
#: enabled, which *is* drained and merged across workers.
REPLAY_COVERAGE: dict[str, int] = {}


def reset_replay_coverage() -> None:
    """Zero the engine coverage counters."""
    REPLAY_COVERAGE.update(
        replays_segmented=0,
        replays_stepwise=0,
        segments_vector=0,
        segments_fused=0,
        segments_fused_multirpm=0,
        segments_scalar=0,
        subrequests_vector=0,
        subrequests_scalar=0,
        subrequests_stepwise=0,
        bailouts=0,
        directive_edits=0,
        directive_mid_service=0,
        windows_scalar_short_run=0,
        fallback_transition_entangled=0,
        fallback_auto_spindown=0,
        fallback_spinup_fault=0,
        fallback_standby_wake=0,
        fallback_fault_flagged=0,
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


_REACTIVE_DRPM_TYPE = None


def _reactive_drpm_type():
    """The :class:`ReactiveDRPM` class, imported lazily and cached —
    :mod:`repro.controllers` imports this package, so a module-top import
    would cycle."""
    global _REACTIVE_DRPM_TYPE
    if _REACTIVE_DRPM_TYPE is None:
        from ..controllers.drpm import ReactiveDRPM

        _REACTIVE_DRPM_TYPE = ReactiveDRPM
    return _REACTIVE_DRPM_TYPE


# ---------------------------------------------------------------------- #
# Per-plan derived geometry and per-power-model service tables
# ---------------------------------------------------------------------- #
class _PlanGeometry:
    """List/array views of a plan's CSR columns, cached across replays.

    Everything here is scheme-invariant, so one geometry serves all 7
    replays of a suite (the plan's ``_derived`` cache keeps it alive).
    The views are built in lazy groups — the stepwise engine needs only
    the flat per-sub lists, while the segmented driver additionally needs
    the vector-kernel arrays (``counts``/``nbytes_f``) and the per-request
    disk bitmasks — so sweep points replayed purely stepwise never pay
    for the batch-engine views.
    """

    __slots__ = (
        "_plan",
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
        self._plan = plan
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
        """Per-sub Python lists for the scalar kernels (idempotent,
        cached).  Lazy so an all-vector replay never pays the O(subs)
        ``tolist`` conversions."""
        if self.disk_l is None:
            from .replay import SEEK_CLASSES

            plan = self._plan
            self.disk_l = plan.sub_disk.tolist()
            self.nb_l = plan.sub_nbytes.tolist()
            self.seek_name_l = [
                SEEK_CLASSES[c] for c in plan.sub_seek.tolist()
            ]
        return self.disk_l, self.nb_l, self.seek_name_l

    def nbytes_float(self) -> np.ndarray:
        """Per-sub byte counts as float64 (idempotent, cached)."""
        if self.nbytes_f is None:
            self.nbytes_f = self._plan.sub_nbytes.astype(np.float64)
        return self.nbytes_f

    def vector_views(self) -> None:
        """Build the batch-kernel arrays (idempotent, cached)."""
        if self.counts is None:
            self.counts = np.diff(self._plan.indptr)
            plan = self._plan
            self.single_sub = bool(plan.indptr[-1] == plan.num_requests)
        self.nbytes_float()

    def request_masks(self) -> list:
        """Per-request touched-disk bitmasks (idempotent, cached)."""
        if self.reqmask is None:
            plan = self._plan
            if plan.num_requests:
                bits = np.left_shift(np.int64(1), plan.sub_disk)
                self.reqmask = np.bitwise_or.reduceat(
                    bits, plan.indptr[:-1]
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
        "idle_w",
        "active_w",
        "_geom",
        "_indptr",
        "_np",
        "_list",
        "_mx",
        "_mxnp",
    )

    def __init__(self, pm: PowerModel, geom: _PlanGeometry, plan: ReplayPlan):
        self.base = pm.service_seek_base_s
        self.rate = pm.service_rate_bps
        self.level_row = pm.level_index
        self.idle_w = pm._idle_w_by_level
        self.active_w = pm._active_w_by_level
        self._geom = (plan.sub_seek, geom.nbytes_float())
        self._indptr = plan.indptr
        self._np: dict[int, np.ndarray] = {}
        self._list: dict[int, list] = {}
        self._mx: dict[int, list] = {}
        self._mxnp: dict[int, np.ndarray] = {}

    def row_np(self, li: int) -> np.ndarray:
        row = self._np.get(li)
        if row is None:
            seek_codes, nbytes_f = self._geom
            row = self.base[li][seek_codes] + nbytes_f / self.rate[li]
            self._np[li] = row
        return row

    def row_list(self, li: int) -> list:
        row = self._list.get(li)
        if row is None:
            row = self.row_np(li).tolist()
            self._list[li] = row
        return row

    def max_row_np(self, li: int) -> np.ndarray:
        """Per-request max service time at one level, whole stream.

        Cached so kernel re-entries after a directive or bailout never
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

    def max_row_list(self, li: int) -> list:
        """List view of :meth:`max_row_np` (idempotent, cached)."""
        mx = self._mx.get(li)
        if mx is None:
            mx = self.max_row_np(li).tolist()
            self._mx[li] = mx
        return mx


def _service_tables(plan: ReplayPlan, pm: PowerModel, geom: _PlanGeometry) -> _ServiceTables:
    cache = plan._derived.setdefault("svc", {})
    tables = cache.get(pm)
    if tables is None:
        tables = _ServiceTables(pm, geom, plan)
        cache[pm] = tables
    return tables


# ---------------------------------------------------------------------- #
# Stepwise engine (reference)
# ---------------------------------------------------------------------- #
def _replay_stepwise(
    plan: ReplayPlan,
    disks: list[Disk],
    ctrl: Controller,
    reactive: bool,
    timed: Sequence[TimedDirective],
    directives: Sequence,
    total_compute_s: float,
    responses: list[float],
    busy: list[list[BusyInterval]],
    collect_busy_intervals: bool,
    rpm_counts: dict[int, int] | None,
    fault_plan,
    delay0: float,
    timed_idx0: int,
    finalize: bool,
    miss_keys: frozenset | None,
    open_loop: bool,
) -> tuple[int, float, float, int]:
    """Reference per-sub-request replay of one chunk; returns
    ``(num_directives, end_time, delay, timed_idx)``.

    ``open_loop=True`` freezes the delay at ``delay0``: issue times come
    straight from the trace (recorded arrival times) instead of the
    closed-loop compute/IO feedback chain, and neither responses nor
    directive overheads shift later arrivals.  Queueing at a busy disk is
    still modeled exactly — :meth:`Disk.serve` starts each sub-request at
    ``max(arrival, cursor, ready)``.

    ``miss_keys`` (only supplied when a timeline recorder is attached)
    holds the ``(disk, realized_time)`` keys of fault-plan deadline
    misses so slipped directives are attributed ``deadline-miss:*``
    instead of ``directive:*``/``oracle:*``.

    ``delay0``/``timed_idx0`` seed the closed-loop delay and the oracle
    directive cursor carried over from the previous chunk (``0.0``/``0``
    for the first); ``finalize=False`` skips the trailing timed-directive
    flush so the next chunk continues the same timeline.  A whole trace
    is a single chunk with ``finalize=True``.

    The request, directive, and timed (oracle) streams are merged inline
    (all are sorted by time; ties execute the directive first) so the hot
    loop needs no generator or per-record isinstance dispatch; with no
    timed directives the oracle drain is one failed comparison.  The striping
    fan-out and seek class of every sub-request come precomputed from the
    (scheme-invariant) replay plan as flat per-sub lists; the only
    per-request field the loop reads is the nominal time, taken straight
    from the trace's columns so no IORequest objects are ever
    materialized here.
    """
    num_disks = len(disks)
    geom = _geometry(plan)
    req_times = geom.req_times
    indptr_l = geom.indptr_l
    disk_l, nb_l, seek_name_l = geom.scalar_views()
    num_requests = len(req_times)
    num_dir_records = len(directives)
    serves = [d.serve for d in disks]
    # Fault threading: ``flags[ri]`` marks requests with at least one
    # faulty sub-request; those dispatch per-sub to ``serve_faulty``.  A
    # zero-rate plan materializes no flags (nothing can fault), so the hot
    # loop pays one ``is not None`` test per request.
    if fault_plan is not None and fault_plan.request_flags is not None:
        flags = fault_plan.request_flags
        sub_errors = fault_plan.sub_errors
    else:
        flags = None
        sub_errors = None
    append_response = responses.append
    on_complete = ctrl.on_request_complete if reactive else None
    track = collect_busy_intervals or reactive
    # Cause tagging is recorder-only: the closures exist iff a timeline
    # recorder is attached, so the unobserved replay pays one ``is None``
    # test per directive (requests never check).
    _dcause = _tcause = None
    if disks and disks[0].recorder is not None:
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
    num_timed = len(timed)
    timed_times = [td.time_s for td in timed]
    timed_idx = timed_idx0
    ri = 0
    di = 0
    while ri < num_requests or di < num_dir_records:
        if di < num_dir_records and (
            ri >= num_requests or directives[di].nominal_time_s <= req_times[ri]
        ):
            rec = directives[di]
            di += 1
            t_exec = rec.nominal_time_s + delay
            # Oracle directives scheduled before this point fire first,
            # at their own absolute times (they were planned against
            # the realized timeline, which a zero-penalty oracle shares
            # with this replay).
            while timed_idx < num_timed and timed_times[timed_idx] <= t_exec:
                td = timed[timed_idx]
                target = disks[td.call.disk]
                # If replay drifted past the planned instant (the disk
                # was still busy), the call takes effect as soon as the
                # disk is available.
                t_td = td.time_s
                c = target.cursor_s
                if _tcause is not None:
                    apply_call(
                        target, t_td if t_td > c else c, td.call,
                        _tcause(timed_idx, td),
                    )
                else:
                    apply_call(target, t_td if t_td > c else c, td.call)
                num_directives += 1
                timed_idx += 1
            call = rec.call
            if not 0 <= call.disk < num_disks:
                raise SimulationError(
                    f"directive targets unknown disk {call.disk}"
                )
            if open_loop:
                # The frozen delay can leave a directive's executed
                # time behind a backlogged disk; it takes effect as
                # soon as the disk is available, like a timed call.
                c = disks[call.disk].cursor_s
                if t_exec < c:
                    t_exec = c
            if _dcause is not None:
                apply_call(
                    disks[call.disk], t_exec, call, _dcause(di - 1, rec)
                )
            else:
                apply_call(disks[call.disk], t_exec, call)
            num_directives += 1
            if call.overhead_cycles and not open_loop:
                delay += call.overhead_cycles / _CLOCK_HZ
            continue

        t_exec = req_times[ri] + delay
        while timed_idx < num_timed and timed_times[timed_idx] <= t_exec:
            td = timed[timed_idx]
            target = disks[td.call.disk]
            t_td = td.time_s
            c = target.cursor_s
            if _tcause is not None:
                apply_call(
                    target, t_td if t_td > c else c, td.call,
                    _tcause(timed_idx, td),
                )
            else:
                apply_call(target, t_td if t_td > c else c, td.call)
            num_directives += 1
            timed_idx += 1

        completion = t_exec
        faulty = flags is not None and flags[ri]
        for j in range(indptr_l[ri], indptr_l[ri + 1]):
            disk_id = disk_l[j]
            if faulty and (errs := sub_errors.get(j, 0)):
                done = disks[disk_id].serve_faulty(
                    t_exec, nb_l[j], seek_name_l[j], errs
                )
            else:
                done = serves[disk_id](t_exec, nb_l[j], seek_name_l[j])
            if rpm_counts is not None:
                r = disks[disk_id].rpm
                rpm_counts[r] = rpm_counts.get(r, 0) + 1
            if track:
                disk = disks[disk_id]
                start = disk.last_service_start_s
                if collect_busy_intervals:
                    busy[disk_id].append(BusyInterval(disk_id, start, done))
                if on_complete is not None:
                    on_complete(
                        disk, t_exec, start, done, nb_l[j], seek_name_l[j]
                    )
            if done > completion:
                completion = done
        ri += 1
        response = completion - t_exec
        append_response(response)
        if not open_loop:
            delay += response

    # Flush oracle directives scheduled after the last record.
    end_time = total_compute_s + delay
    if finalize:
        while timed_idx < num_timed and timed_times[timed_idx] <= end_time:
            td = timed[timed_idx]
            target = disks[td.call.disk]
            if _tcause is not None:
                apply_call(
                    target, max(td.time_s, target.cursor_s), td.call,
                    _tcause(timed_idx, td),
                )
            else:
                apply_call(target, max(td.time_s, target.cursor_s), td.call)
            num_directives += 1
            timed_idx += 1
    return num_directives, end_time, delay, timed_idx


# ---------------------------------------------------------------------- #
# Segmented engine kernels
# ---------------------------------------------------------------------- #
def _fold_disks(
    pdisks: list[Disk],
    glen: np.ndarray,
    td_s: np.ndarray,
    svc_s: np.ndarray,
    comp_s: np.ndarray,
    nbytes_s: np.ndarray,
    tables: _ServiceTables,
    rpm_counts: dict[int, int] | None,
    busy: list[list[BusyInterval]] | None,
    recorder,
) -> None:
    """Fused accounting of one vector window over the disks ``pdisks``.

    The per-sub arrays hold those disks' subs grouped by disk, in stream
    order within each disk (``glen[p]`` subs for ``pdisks[p]``).  Every
    per-disk accrual is a sequential left fold over that disk's subs, so
    all five folds x all disks are packed into one zero-padded matrix —
    one row per (disk, accumulator), seeded with the current totals in
    column 0 — and run through a single ``np.add.accumulate`` along the
    rows: padding zeros are bitwise no-ops on the non-negative
    accumulators, so the row ends equal the scalar ``+=`` chains bit for
    bit.  A disk's RPM is constant across the window (plain disks only
    change level at directive boundaries, which close windows), so each
    disk's idle/active power broadcasts along its row.

    Busy intervals (``busy`` given) and timeline segments (``recorder``
    given) come from the same arrays: per sub, an idle segment from the
    previous completion to the issue time, then a service segment whose
    explicit duration is the *table* service time — ``(td + svc) - td``
    differs from ``svc`` in the last bits, and the fold accrued ``svc``.
    """
    P = len(pdisks)
    n = td_s.size
    heads = np.zeros(P, dtype=np.int64)
    np.cumsum(glen[:-1], out=heads[1:])
    prev_s = np.empty(n)
    prev_s[1:] = comp_s[:-1]
    prev_s[heads] = [d.cursor_s for d in pdisks]
    dur = td_s - prev_s
    if float(dur.min()) < 0:
        raise SimulationError("negative accounting duration in batch")
    rpm_p = [d.rpm for d in pdisks]
    iw_p = [tables.idle_w[r] for r in rpm_p]
    aw_p = [tables.active_w[r] for r in rpm_p]
    seeds = np.empty(5 * P)
    for p, d in enumerate(pdisks):
        st = d.stats
        seeds[p] = st.time_s["idle"]
        seeds[P + p] = st.energy_j["idle"]
        seeds[2 * P + p] = st.time_s["active"]
        seeds[3 * P + p] = st.energy_j["active"]
        seeds[4 * P + p] = st.idle_time_by_rpm.get(rpm_p[p], 0.0)
    stride = int(glen.max()) + 1
    mat = np.zeros((5 * P, stride))
    mat[:, 0] = seeds
    # Scatter the two time lanes (disk p's i-th sub lands in column
    # i + 1 of row p), then derive the energy and per-RPM lanes densely:
    # each element of a per-disk power broadcast is the exact ``dur * w``
    # product the scalar path computes, and padding stays zero.
    pos = np.arange(n, dtype=np.int64) + np.repeat(
        np.arange(P, dtype=np.int64) * stride - heads + 1, glen
    )
    flat = mat.ravel()
    flat[pos] = dur
    flat[pos + 2 * P * stride] = svc_s
    idle = mat[:P, 1:]
    act = mat[2 * P:3 * P, 1:]
    np.multiply(idle, np.array(iw_p)[:, None], out=mat[P:2 * P, 1:])
    np.multiply(act, np.array(aw_p)[:, None], out=mat[3 * P:4 * P, 1:])
    mat[4 * P:, 1:] = idle
    np.add.accumulate(mat, axis=1, out=mat)
    finals = mat[:, -1]
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
    if busy is None and recorder is None:
        return
    td_l = td_s.tolist()
    comp_l = comp_s.tolist()
    if recorder is not None:
        rec_fn = recorder.record
        prev_l = prev_s.tolist()
        svc_l = svc_s.tolist()
    lo = 0
    for p, disk in enumerate(pdisks):
        hi = lo + glen_l[p]
        d_id = disk.disk_id
        if busy is not None:
            busy[d_id].extend(
                map(BusyInterval, repeat(d_id), td_l[lo:hi], comp_l[lo:hi])
            )
        if recorder is not None:
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
    disks: list[Disk],
    ri: int,
    we: int,
    delay: float,
    tnext: float,
    pc0: float,
    nonplain: int,
    responses: list[float],
    busy: list[list[BusyInterval]] | None,
    rpm_counts: dict[int, int] | None = None,
    recorder=None,
    open_loop: bool = False,
) -> tuple[int, float, bool]:
    """Batch-replay requests ``[ri, we)``; all touched disks are plain.

    Returns ``(next_request, delay, bailed)``; ``bailed`` means request
    ``next_request`` overlaps a previous completion (rounding guard) and
    must continue on the scalar kernel, which models queueing exactly.
    A window may also end early without a bail (the delay fixpoint did
    not settle, see below); the driver then re-enters the kernel.
    ``busy`` (given iff busy intervals are collected) and ``recorder``
    receive the window's intervals and timeline segments.
    """
    geom.vector_views()
    indptr_l = geom.indptr_l
    s0 = indptr_l[ri]
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
        svc_full = tables.row_np(li)
        m_win = tables.max_row_np(li)[ri:we]
    else:
        s1 = indptr_l[we]
        per_disk_row = np.array([level_row[d.rpm] for d in disks], dtype=np.int64)
        sub_row = per_disk_row[plan.sub_disk[s0:s1]]
        svc_win = tables.base[sub_row, plan.sub_seek[s0:s1]] + geom.nbytes_f[s0:s1] / tables.rate[sub_row]
        svc_full = None
        m_win = np.maximum.reduceat(svc_win, plan.indptr[ri:we] - s0)

    w = we - ri
    if w == 0:
        return ri, delay, False
    # Closed-loop delay feedback: each response is rounded before it
    # shifts the next issue time, so the chain is sequential by
    # construction.  Solved bit-exactly without a per-request Python
    # loop by fixed-point iteration: guess the responses, rebuild the
    # delay prefix with ``np.add.accumulate`` (a sequential left fold,
    # bit-equal to the scalar ``+=`` chain), recompute each response
    # from its implied issue time, and repeat until the array stops
    # changing — typically one extra pass, since a response only moves
    # when an upstream rounding flip reaches it.  A fixpoint satisfies
    # the scalar recurrence exactly, and every value before the first
    # break/bail depends only on earlier responses, so the surviving
    # prefix is the scalar loop's prefix bit for bit.
    tn_win = plan.columns.nominal_time_s[ri:we]
    acc = np.empty(w + 1)
    acc[0] = delay
    w_ok = w
    if open_loop:
        # Open-loop: arrivals come from the trace plus the frozen delay
        # offset; responses never feed back.  Accumulating exact zeros
        # keeps ``pre``/``delay`` handling identical to the closed-loop
        # path, and the overlap guard below still bails any request that
        # arrives before a previous completion (queueing) to the scalar
        # kernel, which models it exactly.
        acc[1:] = 0.0
        pre = np.add.accumulate(acc)
        t_arr = tn_win + pre[:-1]
        comp = t_arr + m_win
        resp = comp - t_arr
    else:
        resp = m_win
        for _ in range(8):
            acc[1:] = resp
            pre = np.add.accumulate(acc)
            t_arr = tn_win + pre[:-1]
            comp = t_arr + m_win
            new_resp = comp - t_arr
            if np.array_equal(new_resp, resp):
                break
            resp = new_resp
        else:
            # Still moving after the last pass.  Every response before
            # the first one that changed was fed back unchanged, so that
            # prefix (and its issue times) satisfies the recurrence
            # exactly; the window ends there and the driver re-enters the
            # kernel for the rest.  Pass ``i`` settles response ``i``, so
            # the prefix is never empty.
            w_ok = int(np.flatnonzero(resp != acc[1:])[0])
    pcs = np.empty(w)
    pcs[0] = pc0
    pcs[1:] = comp[:-1]
    stop = np.flatnonzero(((t_arr >= tnext) | (t_arr < pcs))[:w_ok])
    if stop.size:
        cut = int(stop[0])
        # The scalar loop checks the window boundary before the overlap
        # guard: only a pure overlap violation bails.
        bailed = bool(t_arr[cut] < tnext)
    else:
        cut = w_ok
        bailed = False
    if cut == 0:
        if bailed:
            REPLAY_COVERAGE["bailouts"] += 1
        return ri, delay, bailed
    k = ri + cut
    delay = float(pre[cut])
    fold = getattr(responses, "fold_array", None)
    if fold is None:
        responses.extend(resp[:cut].tolist())
    else:
        fold(resp[:cut])
    t_win = t_arr[:cut]

    sk = indptr_l[k]
    # Single-sub plans (every request maps to one disk) need no fan-out
    # of issue times; ``t_win`` is read-only downstream so aliasing is
    # safe.
    rep_t = t_win if geom.single_sub else np.repeat(t_win, geom.counts[ri:k])
    # Group the window's subs by disk with one stable argsort — stable
    # keeps each disk's subs in stream order, which the per-disk
    # completion chain requires.  Window-local grouping keeps the kernel
    # O(window log window); a global per-disk index would cost
    # O(disks x requests) to build.
    wdisk = plan.sub_disk[s0:sk]
    worder = np.argsort(wdisk, kind="stable")
    wbounds = np.searchsorted(
        wdisk[worder], np.arange(plan.num_disks + 1, dtype=np.int64)
    )
    wsubs = sk - s0
    glen_all = np.diff(wbounds)
    present = np.flatnonzero(glen_all)
    glen = glen_all[present]
    widx = worder + s0
    td_s = rep_t[worder]
    svc_s = svc_full[widx] if svc_full is not None else svc_win[worder]
    comp_s = td_s + svc_s
    nbytes_s = plan.sub_nbytes[widx]
    pdisks = [disks[d_id] for d_id in present.tolist()]
    P = len(pdisks)
    if 5 * P * (int(glen.max()) + 1) <= 24 * wsubs + 4096:
        _fold_disks(
            pdisks, glen, td_s, svc_s, comp_s, nbytes_s, tables,
            rpm_counts, busy, recorder,
        )
    else:
        # A skewed window (one disk holding most subs) would pad every
        # row to the longest disk's length; fold one disk at a time so
        # memory stays O(window).
        lo = 0
        for p, gl in enumerate(glen.tolist()):
            hi = lo + gl
            _fold_disks(
                pdisks[p:p + 1], glen[p:p + 1], td_s[lo:hi], svc_s[lo:hi],
                comp_s[lo:hi], nbytes_s[lo:hi], tables, rpm_counts, busy,
                recorder,
            )
            lo = hi
    cov = REPLAY_COVERAGE
    cov["segments_vector"] += 1
    cov["subrequests_vector"] += wsubs
    cov["segments_fused"] += 1
    if len(rpm_set) > 1:
        cov["segments_fused_multirpm"] += 1
    if bailed:
        cov["bailouts"] += 1
    return k, delay, bailed


# ---------------------------------------------------------------------- #
# Segmented engine driver
# ---------------------------------------------------------------------- #
def _replay_segmented(
    plan: ReplayPlan,
    disks: list[Disk],
    pm: PowerModel,
    timed: Sequence[TimedDirective],
    directives: Sequence,
    total_compute_s: float,
    responses: list[float],
    busy: list[list[BusyInterval]],
    collect_busy_intervals: bool,
    rpm_counts: dict[int, int] | None,
    fault_plan,
    drpm,
    delay0: float,
    timed_idx0: int,
    finalize: bool,
    drpm_carry: tuple[list, list, list] | None,
    miss_keys: frozenset | None,
    open_loop: bool,
) -> tuple[int, float, float, int]:
    """Segmented replay of one chunk; returns
    ``(num_directives, end_time, delay, timed_idx)``.

    ``open_loop=True`` freezes the delay at ``delay0`` exactly as in
    :func:`_replay_stepwise` — arrivals come from the trace, responses and
    directive overheads never shift later records, and the vector kernel's
    overlap guard bails queued-up arrivals to the scalar mirror, which
    models the queueing exactly.

    ``delay0``/``timed_idx0``/``finalize`` carry the timeline across
    chunks exactly as in :func:`_replay_stepwise`; ``drpm_carry`` (given
    iff ``drpm`` is) holds the mirror's reactive-DRPM window accumulators
    ``(dw_sum, dw_cnt, dw_prev)`` so a window spanning a chunk boundary
    keeps folding (the lists are mutated in place and reused by the next
    chunk).  The DiskArray mirror itself is per-call: it syncs to the
    ``Disk`` objects before returning, which carry all cross-chunk state.

    The driver walks the merged request/directive stream like the stepwise
    engine, batching quiescent runs through the vector kernel and everything
    else through the persistent per-disk *mirror* — flat locals performing
    ``Disk.serve``'s exact arithmetic without per-sub method dispatch.

    Power directives are *boundary edits*: a call that does not overlap an
    in-flight service updates the mirror's (state, RPM, pending-transition)
    image directly — the exact settle/begin-transition arithmetic of
    ``Disk.set_rpm``/``spin_down``/``spin_up`` — so DRPM- and TPM-family
    replays stay on the batched path instead of ending a segment.  Only
    genuinely entangled calls fall through to the exact state machine
    (flush → ``apply_call`` → re-mirror), with the reason counted per kind
    in the coverage counters:

    * ``fallback_transition_entangled`` — the call lands inside an
      in-flight transition (the state machine parks it in
      ``_pending_action``, whose completion chaining the mirror does not
      model);
    * ``fallback_auto_spindown`` — the disk runs an autonomous spin-down
      policy, so ``advance``'s fire check must arbitrate the edit;
    * ``fallback_spinup_fault`` — the spin-up would draw a fault (jittered
      retry chains live in ``Disk``);
    * ``fallback_standby_wake`` — a request found the disk spun down (the
      serve-path spin-up, including its fault draws, runs exactly);
    * ``fallback_fault_flagged`` — the sub-request carries transient
      errors (``serve_faulty`` replays every retry on ``Disk.serve``).

    A mirror transition is *serveable*: a request that arrives while a
    mirror-initiated spin-up or RPM shift is in flight waits it out with
    the slow-path arithmetic (partial accrual, completion, idle settle at
    the new level) without leaving the batched path.

    When ``drpm`` (a :class:`~repro.disksim.params.DRPMParams`) is given,
    the reactive-DRPM window heuristic runs on the scalar mirror: the
    per-sub normalized-response fold and the window-boundary level
    decision (:func:`repro.power.planner.drpm_window_step`) are applied as
    boundary edits, so reactive DRPM does not route stepwise under
    ``auto``.  Such replays never enter the vector kernel.
    """
    num_disks = len(disks)
    geom = _geometry(plan)
    tables = _service_tables(plan, pm, geom)
    req_times = geom.req_times
    indptr_l = geom.indptr_l
    # Scalar-kernel views materialize on first use: an all-vector replay
    # (the common wide-subsystem case) never pays their O(subs) tolist
    # cost, and a replay with no hot disks never builds the masks.
    disk_l: list | None = None
    nb_l: list | None = None
    seek_name_l: list | None = None
    reqmask: list | None = None
    n = len(req_times)
    num_dir_records = len(directives)
    num_timed = len(timed)
    serves = [d.serve for d in disks]
    append_response = responses.append
    # Timeline recording: segments are emitted straight from the mirror
    # edits, scalar accruals and fused vector windows, bit-identical to
    # the stepwise recorder's output.  ``recording`` is hoisted so the
    # unobserved replay pays one local-bool test per emission site.
    tl_rec = disks[0].recorder if disks else None
    recording = tl_rec is not None
    rec_seg = tl_rec.record if recording else None
    _dcause = _tcause = None
    if recording:
        miss = miss_keys or frozenset()

        def _dcause(kk, record):
            if (record.call.disk, record.nominal_time_s) in miss:
                return f"deadline-miss:{kk}"
            return f"directive:{kk}"

        def _tcause(kk, td):
            if (td.call.disk, td.time_s) in miss:
                return f"deadline-miss:oracle:{kk}"
            return f"oracle:{kk}"
    cov = REPLAY_COVERAGE
    # High-frequency coverage counters accumulate in locals (one dict op
    # per replay instead of several per window/directive).
    seg_scalar_c = 0
    subs_scalar_c = 0
    subs_step_c = 0
    short_run_c = 0
    dir_edits_c = 0
    collect = collect_busy_intervals
    counting = rpm_counts is not None
    delay = delay0
    num_directives = 0
    timed_idx = timed_idx0
    tnext = timed[timed_idx].time_s if timed_idx < num_timed else inf
    ri = 0
    di = 0
    # Deferred timed directives: a timed call is an absolute-time,
    # zero-overhead edit on exactly one disk, so it commutes with serves
    # on every other disk.  Instead of closing the window at ``tnext``,
    # the scalar kernel accumulates the due-but-unapplied directives'
    # target set (``pend_mask``, scanned up to ``pidx``) and keeps
    # serving until a request actually touches one of those disks; the
    # next return to the driver drains them, in time order, before any
    # other mirror activity.  ``pidx``/``pend_mask`` reset at each drain.
    pidx = 0
    pend_mask = 0

    # Fault threading: flagged sub-requests run through ``serve_faulty``
    # (the exact retry state machine); *clean* sub-requests of a flagged
    # request still take the mirror fast path — the stepwise loop also
    # dispatches per sub-request.  The vector kernel (whole-request
    # batches) truncates its window at the next flagged request.
    if fault_plan is not None and fault_plan.request_flags is not None:
        flags = fault_plan.request_flags
        sub_errors = fault_plan.sub_errors
        flagged = fault_plan.flagged_requests
    else:
        flags = None
        sub_errors = None
        flagged = []
    fr_n = len(flagged)
    fr_idx = 0
    have_flags = flags is not None

    # Transition constants for mirror boundary edits — the exact values
    # ``_start_spin_down``/``_start_spin_up``/``_start_rpm_shift`` compute.
    standby_w = pm.standby_power_w
    tr_pair = pm._transition_by_pair
    sd_dur = pm.spin_down_time_s
    sd_pw = pm.spin_down_energy_j / sd_dur if sd_dur > 0 else 0.0
    su_dur = pm.spin_up_time_s
    su_pw = pm.spin_up_energy_j / su_dur if su_dur > 0 else 0.0

    level_row = tables.level_row
    row_list = tables.row_list
    idle_w_by = tables.idle_w
    active_w_by = tables.active_w
    stats_l = [d.stats for d in disks]

    #: Reactive TPM: any disk may autonomously spin down after its idleness
    #: threshold.  The scalar kernel performs the exact due check per
    #: sub-request (``advance``'s fire condition) and routes due serves
    #: through the state machine; the vector kernel has no per-sub check,
    #: so its windows are bounded at the earliest possible fire instant
    #: (see ``vnext`` below) where the scalar kernel takes over.
    auto_active = any(d.auto_spindown_threshold_s is not None for d in disks)

    # In-kernel reactive DRPM (see docstring).  The baseline row is the
    # full-speed service-time table row — bit-equal to the
    # ``pm.service_time_s(nbytes, max_rpm, seek)`` memo the controller
    # keeps, so the fold reproduces its control signal exactly.  Its
    # window boundaries close on per-disk completion counts, so reactive
    # DRPM runs on the scalar mirror end to end: every reactive-DRPM
    # replay of the paper and trace workloads has windows too short
    # (``window_size x num_disks`` subs) for the vector kernel to pay.
    drpm_on = drpm is not None
    if drpm_on:
        from ..power.planner import drpm_window_step as drpm_step

        drpm_wsize = drpm.window_size
        drpm_max = drpm.max_rpm
        drpm_top_row = row_list(level_row[drpm_max])
        dw_sum, dw_cnt, dw_prev = drpm_carry
    use_vector = not drpm_on
    busy_v = busy if collect else None

    # Persistent columnar mirror: a :class:`DiskArray` holds flat per-disk
    # columns of the serve state (cursors, RPM-level rows, the residency
    # bank) plus the fields boundary edits touch (pending transition,
    # standby bookkeeping).  A row is flushed back to its ``Disk`` only
    # when something else needs the object current — an entangled call, an
    # exact serve, the vector kernel, or the end of replay — and refreshed
    # lazily afterwards (the sync contract lives in
    # :mod:`repro.disksim.diskarray`).  The columns are bound to locals so
    # the kernel loops index the shared list objects directly.
    da = DiskArray(disks, row_list, level_row, idle_w_by, active_w_by, auto_active)
    bank = da.bank
    m_valid = da.valid
    m_cur = da.cur
    m_rdy = da.rdy
    bank_time = bank.time
    bank_energy = bank.energy
    m_idle_t = bank_time[_I_IDLE]
    m_idle_e = bank_energy[_I_IDLE]
    m_act_t = bank_time[_I_ACTIVE]
    m_act_e = bank_energy[_I_ACTIVE]
    m_sb_t = bank_time[_I_STANDBY]
    m_sb_e = bank_energy[_I_STANDBY]
    m_brpm = bank.level_bucket
    m_anyidle = bank.level_touched
    m_n = da.n_served
    m_b = da.b_served
    m_last = da.last_start
    m_lre = da.last_end
    m_rpm = da.rpm
    m_svc = da.svc
    m_iw = da.iw
    m_aw = da.aw
    m_thr = da.thr
    m_anchor = da.anchor
    m_armed = da.armed
    m_tr_end = da.tr_end
    m_tr_pw = da.tr_pw
    m_tr_si = da.tr_si
    m_tr_sb = da.tr_sb
    m_tr_rpm = da.tr_rpm
    m_tr_cause = da.tr_cause
    m_standby = da.standby
    m_sb_since = da.sb_since
    m_last_sb = da.last_sb
    m_spseq = da.spseq
    m_dirty = da.dirty
    _refresh = da.refresh
    _flush = da.flush
    _complete_m = da.complete_transition
    _begin = da.begin_transition
    # ``hot = exact_mask | busy_mask`` is re-read from the DiskArray after
    # any call that can change routing (refresh/complete/begin) — a stale
    # local would misroute subs past the slow path.
    hot = 0
    fired = 0
    # Mirrors start unrefreshed; the only later bulk invalidation is the
    # flush-all before a vector window, which re-raises this flag so the
    # scalar kernel's refresh scan can be skipped everywhere else.
    mirrors_stale = True
    # A "scalar segment" is a maximal run of mirror-kernel requests: only
    # the vector kernel closes one (directive edits and per-sub escapes do
    # not), so the vector:scalar segment ratio measures real coverage.
    seg_open = False

    def _edit(dk: int, t: float, call, clamp: bool, cause: str = "") -> None:
        """Apply one power call as a mirror boundary edit at time ``t``.

        ``clamp`` marks timed (oracle) calls, which take effect at the
        disk's cursor if replay drifted past the planned instant; trace
        calls keep ``advance``'s backwards-time guard instead.  ``cause``
        tags the transition segment when a timeline recorder is attached.
        """
        nonlocal dir_edits_c
        bit = 1 << dk
        if not m_valid[dk] and not da.exact_mask & bit:
            _refresh(dk)
        if da.exact_mask & bit:
            target = disks[dk]
            if clamp or open_loop:
                c = target.cursor_s
                if c > t:
                    t = c
            apply_call(target, t, call, cause or CAUSE_EXTERNAL)
            _refresh(dk)
            return
        action = call.action
        is_rpm = action is PowerAction.SET_RPM
        if is_rpm and call.rpm not in level_row:
            raise SimulationError(f"unsupported RPM level {call.rpm}")
        c = m_cur[dk]
        if t < c:
            if not clamp and not open_loop and t < c - 1e-9:
                raise SimulationError(
                    f"disk {dk}: advance to {t} precedes cursor {c}"
                )
            cov["directive_mid_service"] += 1
            t = c
        # Entanglement checks — these are the only calls that leave the
        # batched path.
        reason = None
        e = m_tr_end[dk]
        if m_thr[dk] is not None:
            reason = "auto_spindown"
        elif e is not None:
            if e > t + 1e-9:
                reason = "transition_entangled"
            else:
                # Due transition: complete it first, exactly as the
                # ``advance(t)`` prologue of every power call would.  The
                # completion may land within EPS past ``t``; the cursor
                # then stays at the completion instant.
                _complete_m(dk)
                c = m_cur[dk]
                if t < c:
                    t = c
        if (
            reason is None
            and action is PowerAction.SPIN_UP
            and m_standby[dk]
            and fault_plan is not None
            and fault_plan.spinup_fault(dk, m_spseq[dk]) is not None
        ):
            reason = "spinup_fault"
        if reason is not None:
            cov["fallback_" + reason] += 1
            _flush(dk)
            target = disks[dk]
            if clamp:
                c2 = target.cursor_s
                if c2 > t:
                    t = c2
            apply_call(target, t, call, cause or CAUSE_EXTERNAL)
            _refresh(dk)
            return
        # Settle the base state from the mirror cursor to the call instant
        # (``_settle_idle``'s arithmetic), then dispatch.
        if t > c:
            dur = t - c
            if m_standby[dk]:
                m_sb_t[dk] += dur
                m_sb_e[dk] += dur * standby_w
                if recording:
                    rec_seg(dk, "standby", c, t, standby_w, 0)
            else:
                m_idle_t[dk] += dur
                m_idle_e[dk] += dur * m_iw[dk]
                m_brpm[dk] += dur
                m_anyidle[dk] = True
                if recording:
                    rec_seg(dk, "idle", c, t, m_iw[dk], m_rpm[dk])
            m_cur[dk] = t
        m_dirty[dk] = True
        if is_rpm:
            if m_standby[dk]:
                raise SimulationError(
                    f"disk {dk}: set_RPM while spun down is invalid"
                )
            tgt = call.rpm
            if tgt != m_rpm[dk]:
                dur_pw = tr_pair[(m_rpm[dk], tgt)]
                stats_l[dk].num_rpm_shifts += 1
                _begin(
                    dk, t, dur_pw[0], dur_pw[1], "rpm_shift", tgt, False,
                    cause,
                )
        elif action is PowerAction.SPIN_DOWN:
            if not m_standby[dk]:
                stats_l[dk].num_spin_downs += 1
                _begin(dk, t, sd_dur, sd_pw, "spin_down", None, True, cause)
        else:  # SPIN_UP
            if m_standby[dk]:
                stats_l[dk].num_spin_ups += 1
                since = m_sb_since[dk]
                if since is not None:
                    m_last_sb[dk] = t - since if t > since else 0.0
                    m_sb_since[dk] = None
                if fault_plan is not None:
                    m_spseq[dk] += 1
                _begin(dk, t, su_dur, su_pw, "spin_up", None, False, cause)
        dir_edits_c += 1

    def _sub_slow(d: int, j: int, t: float, errs: int) -> float:
        """Serve sub-request ``j`` on a hot (or faulty) disk at ``t``.

        A faultless mirror transition not headed to standby is waited out
        in mirror — the serve slow path's exact arithmetic (partial
        accrual, completion, idle settle at the new level, then service at
        ``max(t, ready, cursor)``).  Everything else flushes and runs the
        state machine, re-mirroring afterwards.
        """
        nonlocal fired
        if (
            errs == 0
            and m_valid[d]
            and m_tr_end[d] is not None
            and not m_tr_sb[d]
        ):
            e = m_tr_end[d]
            c = m_cur[d]
            ta = t if t > c else c
            if e > ta + 1e-9:
                # Mid-transition: partial accrual to the issue time, then
                # completion at the transition end (``advance(ta)`` +
                # ``advance(end)``, two sequential adds).
                dur = ta - c if ta > c else 0.0
                si = m_tr_si[d]
                bank_time[si][d] += dur
                bank_energy[si][d] += dur * m_tr_pw[d]
                if recording and ta > c:
                    rec_seg(
                        d, STATE_NAMES[si], c, ta, m_tr_pw[d],
                        m_tr_rpm[d] or m_rpm[d], m_tr_cause[d],
                    )
                if ta > c:
                    m_cur[d] = ta
                _complete_m(d)
            else:
                # Due: complete, then settle idle to the issue time at the
                # post-transition level.
                _complete_m(d)
                c2 = m_cur[d]
                if ta > c2:
                    dur = ta - c2
                    m_idle_t[d] += dur
                    m_idle_e[d] += dur * m_iw[d]
                    m_brpm[d] += dur
                    m_anyidle[d] = True
                    if recording:
                        rec_seg(d, "idle", c2, ta, m_iw[d], m_rpm[d])
                    m_cur[d] = ta
            start = t
            r = m_rdy[d]
            if r > start:
                start = r
            c3 = m_cur[d]
            if c3 > start:
                start = c3
            svc = m_svc[d][j]
            done = start + svc
            m_act_t[d] += svc
            m_act_e[d] += svc * m_aw[d]
            if recording:
                rec_seg(d, "active", start, done, m_aw[d], m_rpm[d], "", svc)
            m_cur[d] = done
            m_rdy[d] = done
            m_anchor[d] = done
            m_armed[d] = True
            m_last[d] = start
            m_lre[d] = done
            m_n[d] += 1
            m_b[d] += nb_l[j]
            if counting:
                r2 = m_rpm[d]
                rpm_counts[r2] = rpm_counts.get(r2, 0) + 1
            if collect:
                busy[d].append(BusyInterval(d, start, done))
        else:
            if m_valid[d]:
                _flush(d)
                if errs == 0:
                    cov["fallback_standby_wake"] += 1
            if errs:
                cov["fallback_fault_flagged"] += 1
                done = disks[d].serve_faulty(t, nb_l[j], seek_name_l[j], errs)
            else:
                done = serves[d](t, nb_l[j], seek_name_l[j])
            fired += 1
            disk = disks[d]
            start = disk.last_service_start_s
            if counting:
                r2 = disk.rpm
                rpm_counts[r2] = rpm_counts.get(r2, 0) + 1
            if collect:
                busy[d].append(BusyInterval(d, start, done))
            _refresh(d)
        if drpm_on:
            dw_sum[d] += (done - start) / drpm_top_row[j]
            dw_cnt[d] += 1
            if dw_cnt[d] == drpm_wsize:
                _drpm_boundary(d, done)
        return done

    def _drpm_boundary(d: int, t_fire: float) -> None:
        # Window boundary: the controller's exact decision sequence —
        # compute the mean, roll the reference, step via the shared
        # planner kernel, and reset the reference after a recovery ramp.
        mean = dw_sum[d] / dw_cnt[d]
        dw_sum[d] = 0.0
        dw_cnt[d] = 0
        prev = dw_prev[d]
        dw_prev[d] = mean
        rcur = m_rpm[d] if m_valid[d] else disks[d].rpm
        tgt = drpm_step(prev, mean, rcur, drpm)
        if tgt is None:
            return
        # The disk just completed a service at ``t_fire``, so its cursor
        # sits exactly there: ``set_rpm``'s advance is a no-op and the
        # shift begins immediately.
        if m_valid[d]:
            dur_pw = tr_pair[(rcur, tgt)]
            stats_l[d].num_rpm_shifts += 1
            _begin(
                d, t_fire, dur_pw[0], dur_pw[1], "rpm_shift", tgt, False,
                CAUSE_DRPM_WINDOW,
            )
        else:
            disks[d].set_rpm(t_fire, tgt, CAUSE_DRPM_WINDOW)
            _refresh(d)
        if tgt == drpm_max:
            dw_prev[d] = None
        cov["directive_edits"] += 1

    while True:
        # Requests strictly before the next trace directive's nominal time
        # run first (the merged-stream tie rule executes the directive
        # ahead of a request at the same nominal time).  Nominal times are
        # compared, so the bound is delay-independent; the linear scan
        # totals O(num_requests) across the whole replay.
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
                # Oracle directives due before this request fire first, at
                # their own absolute times (they were planned against the
                # realized timeline, which a zero-penalty oracle shares
                # with this replay), as mirror boundary edits.
                while timed_idx < num_timed and timed[timed_idx].time_s <= t0:
                    td = timed[timed_idx]
                    _edit(
                        td.call.disk, td.time_s, td.call, True,
                        _tcause(timed_idx, td) if recording else "",
                    )
                    num_directives += 1
                    timed_idx += 1
                hot = da.hot
                tnext = timed[timed_idx].time_s if timed_idx < num_timed else inf
                pidx = timed_idx
                pend_mask = 0
                continue

            we = bound
            vec_we = ri
            vnext = tnext
            due_mask = 0
            if use_vector and bound - ri >= VECTOR_MIN_REQUESTS:
                if auto_active:
                    # Earliest instant any plain disk could trip its
                    # idleness threshold: armed disks from their anchor,
                    # unarmed disks from the window's first issue time
                    # (arming sets the anchor at a serve completion, never
                    # earlier).  In-window serves only push anchors — and
                    # so every true fire time — later, so the vector
                    # window is safe up to ``vnext``; the scalar kernel's
                    # exact per-sub due check takes over there.  A disk
                    # already *overdue* fires only when it is next served,
                    # so instead of pinning ``vnext`` in the past it joins
                    # ``due_mask`` and the window truncates at its first
                    # touch.
                    t0w = req_times[ri] + delay
                    for d in range(num_disks):
                        if (hot >> d) & 1:
                            continue
                        if m_valid[d]:
                            thr_o = m_thr[d]
                            if thr_o is not None:
                                if m_armed[d]:
                                    fd = m_anchor[d] + thr_o
                                    if fd <= t0w:
                                        due_mask |= 1 << d
                                    elif fd < vnext:
                                        vnext = fd
                                elif t0w + thr_o < vnext:
                                    vnext = t0w + thr_o
                        else:
                            dk_o = disks[d]
                            thr_o = dk_o.auto_spindown_threshold_s
                            if thr_o is not None:
                                if dk_o._auto_armed:
                                    fd = dk_o.idle_anchor_s + thr_o
                                    if fd <= t0w:
                                        due_mask |= 1 << d
                                    elif fd < vnext:
                                        vnext = fd
                                elif t0w + thr_o < vnext:
                                    vnext = t0w + thr_o
                vec_we = bound
                if vnext is not inf:
                    # Timed directives no longer close the scalar window —
                    # the kernel defers them per disk — but the vector
                    # kernel still stops at ``vnext``, so its window is
                    # bounded there.  A probe answers the dense case
                    # (window shorter than the vector minimum) in O(1)
                    # before paying for the bisect.
                    probe = ri + VECTOR_MIN_REQUESTS
                    if probe > bound or req_times[probe - 1] + delay >= vnext:
                        vec_we = ri
                    else:
                        cut = bisect_left(req_times, vnext - delay, ri, bound) + 1
                        if cut < vec_we:
                            vec_we = cut
            if hot:
                # Transitions that end at or before this issue time
                # complete now, exactly as the serve/advance machinery
                # would complete them; exact disks get a chance to
                # re-mirror once their state machine quiesces.
                h = hot
                while h:
                    low = h & -h
                    h -= low
                    d = low.bit_length() - 1
                    if m_valid[d]:
                        if m_tr_end[d] is not None and m_tr_end[d] <= t0:
                            _complete_m(d)
                    else:
                        disk = disks[d]
                        end = disk._transition_end_s
                        while end is not None and end <= t0:
                            disk.advance(end)
                            end = disk._transition_end_s
                        _refresh(d)
                hot = da.hot

            if use_vector and vec_we - ri >= VECTOR_MIN_REQUESTS:
                # Vector window: truncate at the first request touching a
                # hot or overdue disk and at the next fault-flagged
                # request; all are handled sub-by-sub on the scalar path.
                wv = vec_we
                hmask = hot | due_mask
                if hmask:
                    if reqmask is None:
                        reqmask = geom.request_masks()
                    k2 = ri
                    while k2 < wv and not reqmask[k2] & hmask:
                        k2 += 1
                    wv = k2
                if fr_idx < fr_n:
                    while fr_idx < fr_n and flagged[fr_idx] < ri:
                        fr_idx += 1
                    if fr_idx < fr_n and flagged[fr_idx] < wv:
                        wv = flagged[fr_idx]
                if (
                    wv - ri >= VECTOR_MIN_REQUESTS
                    and indptr_l[wv] - indptr_l[ri] >= VECTOR_MIN_SUBREQUESTS
                ):
                    # The vector kernel reads and writes the Disk objects
                    # directly, so any live mirrors hand back first.
                    da.sync_to_disks()
                    mirrors_stale = True
                    pc0 = 0.0
                    for disk in disks:
                        if not (hot >> disk.disk_id) & 1:
                            c = disk.cursor_s
                            r = disk.ready_s
                            m = c if c >= r else r
                            if m > pc0:
                                pc0 = m
                    ri0 = ri
                    ri, delay, bailed = _run_vector(
                        plan, geom, tables, disks, ri, wv, delay, vnext, pc0,
                        hot, responses, busy_v, rpm_counts, tl_rec, open_loop,
                    )
                    if ri > ri0:
                        seg_open = False
                    # On a guard trip the scalar kernel absorbs the
                    # overlapping request (it models queueing exactly)
                    # and carries the rest of the window.
                    if not bailed:
                        continue
            elif use_vector:
                short_run_c += 1

            # Scalar mirror kernel over [ri, we): the exact arithmetic of
            # ``Disk.serve``'s plain fast path on the mirrors, including
            # the queueing case where a request's issue time lands before
            # the disk's previous completion (no idle accrues; service
            # starts at the busy cursor).  Hot and faulty sub-requests
            # dispatch to the slow sub path without closing the segment.
            if mirrors_stale:
                da.refresh_stale()
                mirrors_stale = False
                hot = da.hot
            if tnext is not inf or (use_vector and auto_active):
                # Cap the scalar run so the driver periodically drains due
                # directives and re-probes for a vector window.  Without
                # the cap, a due directive on an untouched disk — or an
                # auto run that just crossed a fire bound — would pin the
                # whole remaining stream to the scalar kernel.
                cap = ri + DEFER_WINDOW_REQUESTS
                if cap < we:
                    we = cap
            if disk_l is None:
                disk_l, nb_l, seek_name_l = geom.scalar_views()
            if reqmask is None:
                reqmask = geom.request_masks()
            k = ri
            fired = 0
            brk = False
            jlo = indptr_l[ri]
            while k < we:
                t = req_times[k] + delay
                if t >= tnext:
                    # One or more timed directives are due.  Fold their
                    # target disks into the pending set; only a request
                    # touching a pending disk ends the window (the drain
                    # then applies the directives, in time order, before
                    # it is served).
                    while pidx < num_timed:
                        tdp = timed[pidx]
                        if tdp.time_s > t:
                            break
                        pend_mask |= 1 << tdp.call.disk
                        pidx += 1
                    if reqmask[k] & pend_mask:
                        break
                jhi = indptr_l[k + 1]
                comp = t
                faulty = have_flags and flags[k]
                for j in range(jlo, jhi):
                    d = disk_l[j]
                    if (hot >> d) & 1:
                        done = _sub_slow(
                            d, j, t,
                            sub_errors.get(j, 0) if faulty else 0,
                        )
                        hot = da.hot
                        if done > comp:
                            comp = done
                        continue
                    if faulty and (errs := sub_errors.get(j, 0)):
                        done = _sub_slow(d, j, t, errs)
                        hot = da.hot
                        if done > comp:
                            comp = done
                        continue
                    c = m_cur[d]
                    if auto_active:
                        thr_d = m_thr[d]
                        if (
                            thr_d is not None
                            and m_armed[d]
                            and m_anchor[d] + thr_d
                            < (t if t > c else c) - 1e-9
                        ):
                            # The idleness threshold elapsed before
                            # this serve: run the spin-down / standby
                            # / spin-up sequence through the exact
                            # state machine, then re-mirror the disk.
                            cov["fallback_auto_spindown"] += 1
                            _flush(d)
                            done = serves[d](t, nb_l[j], seek_name_l[j])
                            _refresh(d)
                            hot = da.hot
                            fired += 1
                            brk = True
                            if counting:
                                r2 = disks[d].rpm
                                rpm_counts[r2] = rpm_counts.get(r2, 0) + 1
                            if collect:
                                busy[d].append(
                                    BusyInterval(
                                        d,
                                        disks[d].last_service_start_s,
                                        done,
                                    )
                                )
                            if done > comp:
                                comp = done
                            continue
                    if t > c:
                        dur = t - c
                        m_idle_t[d] += dur
                        m_idle_e[d] += dur * m_iw[d]
                        m_brpm[d] += dur
                        m_anyidle[d] = True
                        if recording:
                            rec_seg(d, "idle", c, t, m_iw[d], m_rpm[d])
                        start = t
                    else:
                        start = c
                    r = m_rdy[d]
                    if r > start:
                        start = r
                    svc = m_svc[d][j]
                    done = start + svc
                    m_act_t[d] += svc
                    m_act_e[d] += svc * m_aw[d]
                    if recording:
                        rec_seg(
                            d, "active", start, done, m_aw[d], m_rpm[d],
                            "", svc,
                        )
                    m_cur[d] = done
                    m_rdy[d] = done
                    m_anchor[d] = done
                    m_armed[d] = True
                    m_last[d] = start
                    m_lre[d] = done
                    m_n[d] += 1
                    m_b[d] += nb_l[j]
                    if counting:
                        r2 = m_rpm[d]
                        rpm_counts[r2] = rpm_counts.get(r2, 0) + 1
                    if collect:
                        busy[d].append(BusyInterval(d, start, done))
                    if drpm_on:
                        dw_sum[d] += (done - start) / drpm_top_row[j]
                        dw_cnt[d] += 1
                        if dw_cnt[d] == drpm_wsize:
                            _drpm_boundary(d, done)
                            hot = da.hot
                    if done > comp:
                        comp = done
                jlo = jhi
                resp = comp - t
                append_response(resp)
                if not open_loop:
                    delay += resp
                k += 1
                if brk:
                    # An auto spin-down fired: return to the driver after
                    # this request so the next quiescent stretch can
                    # re-probe for a vector window with a fresh fire bound.
                    break
            if k > ri:
                if not seg_open:
                    seg_open = True
                    seg_scalar_c += 1
                subs_scalar_c += indptr_l[k] - indptr_l[ri] - fired
                if fired:
                    subs_step_c += fired
            ri = k

        if di < num_dir_records:
            rec = directives[di]
            di += 1
            t_exec = rec.nominal_time_s + delay
            while timed_idx < num_timed and timed[timed_idx].time_s <= t_exec:
                td = timed[timed_idx]
                _edit(
                    td.call.disk, td.time_s, td.call, True,
                    _tcause(timed_idx, td) if recording else "",
                )
                num_directives += 1
                timed_idx += 1
            tnext = timed[timed_idx].time_s if timed_idx < num_timed else inf
            pidx = timed_idx
            pend_mask = 0
            call = rec.call
            if not 0 <= call.disk < num_disks:
                raise SimulationError(f"directive targets unknown disk {call.disk}")
            _edit(
                call.disk, t_exec, call, False,
                _dcause(di - 1, rec) if recording else "",
            )
            hot = da.hot
            num_directives += 1
            if call.overhead_cycles and not open_loop:
                delay += call.overhead_cycles / _CLOCK_HZ
        elif ri >= n:
            break

    # Hand any live mirrors back before the epilogue reads disk state.
    da.sync_to_disks()

    # Flush oracle directives scheduled after the last record.
    end_time = total_compute_s + delay
    if finalize:
        while timed_idx < num_timed and timed[timed_idx].time_s <= end_time:
            td = timed[timed_idx]
            target = disks[td.call.disk]
            if recording:
                apply_call(
                    target, max(td.time_s, target.cursor_s), td.call,
                    _tcause(timed_idx, td),
                )
            else:
                apply_call(target, max(td.time_s, target.cursor_s), td.call)
            num_directives += 1
            timed_idx += 1
    cov["segments_scalar"] += seg_scalar_c
    cov["subrequests_scalar"] += subs_scalar_c
    cov["subrequests_stepwise"] += subs_step_c
    cov["windows_scalar_short_run"] += short_run_c
    cov["directive_edits"] += dir_edits_c
    return num_directives, end_time, delay, timed_idx


class _ResponseFold:
    """List-shaped response sink folding count/total/max on the fly.

    Stands in for the per-request response list during streamed replay:
    the engines' scalar paths ``append`` floats (the ``+=`` fold is the
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
    stream, and a per-request response list, so the result carries
    ``request_responses`` and an exact p95.  A stream is replayed chunk by
    chunk with peak memory bounded by the chunk size: each chunk gets its
    own plan and its share of the directives (see :func:`_stream_chunks`).
    Between chunks the closed-loop delay, the oracle-directive cursor, and
    the segmented engine's reactive-DRPM accumulators carry over; all
    other cross-chunk state lives in the per-object ``Disk`` state
    machines, which the segmented mirror syncs back to at every chunk
    boundary.  Any chunking of the same request sequence is therefore
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

    ``engine`` selects the replay path: ``"stepwise"`` forces the
    per-sub-request reference state machine, ``"segmented"`` the batched
    engine, and ``"auto"`` (default) picks segmented whenever it applies.
    Both engines are bit-identical — including any attached timeline
    recorder's segment stream.  Any engine other than ``"stepwise"`` falls
    back to stepwise replay for reactive controllers whose per-completion
    hooks observe every sub-request (``reactive-controller``; reactive
    DRPM runs on the segmented engine's scalar mirror, and reactive TPM's
    autonomous spin-down is an exact per-serve due check).  ``"auto"`` therefore means segmented
    unless the controller is reactive.

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
    drpm_kernel = None
    if segmented and reactive:
        if type(ctrl) is _reactive_drpm_type():
            # Reactive DRPM's window heuristic is lifted into the
            # segmented kernel (the per-sub fold and boundary decision run
            # in-mirror), so it no longer forces the reference loop.
            drpm_kernel = ctrl.drpm
        else:
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
    cov_before = dict(REPLAY_COVERAGE) if observing else None
    t_replay0 = time.perf_counter() if observing else 0.0

    # Per-kind sinks: a whole trace keeps every response (exact p95 and
    # ``request_responses``); a stream folds them as it goes.
    if streamed:
        responses = _ResponseFold()
        span_attrs: dict = {"streamed": True}
    else:
        responses = []
        span_attrs = {
            "requests": plan.num_requests,
            "subrequests": plan.num_subrequests,
        }
    busy: list[list[BusyInterval]] = [[] for _ in disks]
    drpm_carry = None
    if drpm_kernel is not None:
        n_d = len(disks)
        drpm_carry = ([0.0] * n_d, [0] * n_d, [None] * n_d)
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
            if segmented:
                nd, end_time, delay, timed_idx = _replay_segmented(
                    plan_c, disks, pm, timed, dirs_c, trace.total_compute_s,
                    responses, busy, collect_busy_intervals, rpm_counts,
                    fault_plan, drpm_kernel, delay, timed_idx, final,
                    drpm_carry, miss_keys, open_loop,
                )
            else:
                REPLAY_COVERAGE["subrequests_stepwise"] += plan_c.num_subrequests
                nd, end_time, delay, timed_idx = _replay_stepwise(
                    plan_c, disks, ctrl, reactive, timed, dirs_c,
                    trace.total_compute_s, responses, busy,
                    collect_busy_intervals, rpm_counts, fault_plan, delay,
                    timed_idx, final, miss_keys, open_loop,
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
        # Mirror this replay's coverage delta into the registry, which is
        # drained and merged across pool workers (the module-global dict
        # deliberately is not — see ``REPLAY_COVERAGE``).  Per-sub escape
        # reasons additionally land as ``sim.fallbacks{reason=...}``.
        cov_delta = {
            key: value - cov_before[key]
            for key, value in REPLAY_COVERAGE.items()
            if value != cov_before.get(key, 0)
        }
        if cov_delta:
            _metrics.ingest_counters(cov_delta, prefix="sim.coverage.")
            for key, value in cov_delta.items():
                if key.startswith("fallback_"):
                    _metrics.inc(
                        "sim.fallbacks", value,
                        reason=key[9:].replace("_", "-"),
                    )
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
        per_request: tuple = ()
    else:
        summary = ResponseSummary.from_samples(responses)
        per_request = tuple(responses)
    # Disk timelines may exceed the app end (e.g. a trailing transition);
    # execution time is the app's, but energy accounting follows each disk
    # to its own final cursor, so energy==power*time invariants hold.
    return SimulationResult(
        scheme=ctrl.name,
        program_name=trace.program_name,
        execution_time_s=end_time,
        disk_stats=tuple(d.stats for d in disks),
        responses=summary,
        num_requests=num_requests,
        num_directives=num_directives,
        busy_intervals=tuple(tuple(b) for b in busy) if collect_busy_intervals else (),
        request_responses=per_request,
        engine=engine_used,
        engine_forced=forced,
    )
