"""The compiler pass: DAP -> planned gaps -> explicit power calls in code.

This is the third component of the paper's compiler strategy (§3): given
the disk access pattern and the cycle estimates, decide per idle gap what
each disk should do (:func:`repro.power.planner.plan_gaps`), then insert

* ``spin_down(disk)`` / ``set_RPM(level, disk)`` at the iteration where the
  gap begins, and
* the pre-activation ``spin_up(disk)`` / ``set_RPM(max, disk)`` early
  enough that the disk is back at speed before the next active phase
  (Eq. 1: the planner's ``up_at_s`` is the gap end less the wake-up time
  and the safety margin, and the placement rounds it *at-or-before*, so
  inside one nest the lead is exactly ``ceil(lead / (s + Tm))``
  iterations),

producing placement rows (:data:`~repro.trace.generator.PLACEMENT_ROW`)
that the trace generator stamps onto the actual timeline.  All decisions
here use the compiler's **estimated** timing; the placements' iteration
anchors are exact (code position is not subject to timing error), so
estimation error surfaces only as (a) occasionally mispredicted RPM levels
— paper Table 3 — and (b) slightly early/late pre-activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.access import NestAccess
from ..analysis.cycles import (
    EstimationModel,
    ProgramTiming,
    loop_body_cycles,
    scale_timing,
)
from ..analysis.dap import DiskAccessPattern, build_dap
from .. import obs
from ..analysis.idle import idle_gaps_from_intervals
from ..obs import metrics as _metrics
from ..disksim.params import SubsystemParams
from ..disksim.powermodel import PowerModel
from ..ir.nodes import PowerAction
from ..ir.program import Program
from ..layout.files import SubsystemLayout
from ..trace.generator import PLACEMENT_ROW
from ..util.errors import AnalysisError
from .planner import GAP_MODES, GapMode, acting, min_useful_gap_s, plan_gaps

__all__ = ["CompilerPlan", "plan_power_calls", "DEFAULT_CALL_OVERHEAD_CYCLES"]

#: Overhead of one power-management call (the paper's ``Tm``): a syscall-ish
#: cost at the 750 MHz clock.
DEFAULT_CALL_OVERHEAD_CYCLES: float = 5_000.0

_ACTIONS = tuple(PowerAction)
_SPIN_DOWN, _SPIN_UP, _SET_RPM = (
    _ACTIONS.index(a)
    for a in (PowerAction.SPIN_DOWN, PowerAction.SPIN_UP, PowerAction.SET_RPM)
)
_STANDBY = GAP_MODES.index(GapMode.STANDBY)

#: Seconds the compiler's wake-up completes before an estimated gap ends.
_SAFETY_MARGIN_S = 0.05


@dataclass(frozen=True)
class CompilerPlan:
    """Everything the compiler decided for one (program, layout, scheme).

    Placements and decisions are structured arrays, one row each, and are
    the plan's only form: a pickle (a cache entry) carries two arrays
    instead of tens of thousands of small objects.
    """

    kind: str  # "tpm" or "drpm"
    #: One :data:`~repro.trace.generator.PLACEMENT_ROW` per inserted call,
    #: in code order.
    placement_rows: np.ndarray
    #: One :data:`~repro.power.planner.DECISION_ROW` per considered gap,
    #: disk-major (Table 3 input).
    decision_rows: np.ndarray
    estimated_timing: ProgramTiming
    dap: DiskAccessPattern

    @property
    def num_calls(self) -> int:
        return len(self.placement_rows)


def plan_power_calls(
    program: Program,
    layout: SubsystemLayout,
    params: SubsystemParams,
    kind: str,
    estimation: EstimationModel | None = None,
    accesses: Sequence[NestAccess] | None = None,
    measured: ProgramTiming | None = None,
    preactivate: bool = True,
) -> CompilerPlan:
    """Run the full compiler pipeline for CMTPM (``kind="tpm"``) or CMDRPM
    (``kind="drpm"``).

    ``measured`` optionally supplies a measurement-based timeline (compute
    plus observed I/O stalls, as the paper's ``gethrtime`` instrumentation
    produces — see :func:`repro.analysis.cycles.measured_timing`); the
    estimation model's per-nest error is applied on top of it.  Without it
    the compiler falls back to the compute-only static timeline (only
    sound for compute-dominated nests).

    ``preactivate=False`` disables paper Eq. (1): the wake-up call is placed
    *at* the end of the gap instead of a lead ahead of it, so the first
    accesses of each active phase wait out the full spin-up / RPM-ramp
    delay — the ablation quantifying what pre-activation buys (paper §3:
    "if we do not use pre-activation ... we incur the associated spin-up
    delay fully").
    """
    if kind not in ("tpm", "drpm"):
        raise AnalysisError(f"unknown scheme kind {kind!r}")
    with obs.span(
        "power.plan", program=program.name, kind=kind,
        disks=layout.num_disks,
    ) as _sp:
        plan = _plan_power_calls(
            program, layout, params, kind, estimation, accesses, measured,
            preactivate,
        )
        acted = int(acting(plan.decision_rows).sum())
        _sp.set(
            calls=plan.num_calls,
            gaps=len(plan.decision_rows),
            acted_gaps=acted,
        )
        _metrics.inc("power.calls_planned", plan.num_calls, kind=kind)
        _metrics.inc("power.gaps_acted", acted, kind=kind)
        return plan


def _plan_power_calls(
    program: Program,
    layout: SubsystemLayout,
    params: SubsystemParams,
    kind: str,
    estimation: EstimationModel | None,
    accesses: Sequence[NestAccess] | None,
    measured: ProgramTiming | None,
    preactivate: bool,
) -> CompilerPlan:
    est_model = estimation or EstimationModel()
    if measured is not None:
        est = scale_timing(measured, est_model.scale_factors(program))
    else:
        est = est_model.estimated_timing(program)
    pm = PowerModel(params.disk, params.drpm)
    dap = build_dap(program, layout, accesses)
    min_gap = min_useful_gap_s(pm, kind)
    fractions = None
    if measured is not None:
        # The compiler knows each nest's pure compute cost statically and its
        # measured wall time per iteration; the difference is I/O stall,
        # which the synchronous loop body incurs at the iteration's start.
        fractions = []
        for i, nest in enumerate(program.nests):
            wall = measured.nest(i).cycles_per_iteration
            compute = loop_body_cycles(nest)
            fractions.append(1.0 if wall <= 0 else max(0.0, 1.0 - compute / wall))
    intervals = dap.active_intervals(
        est, merge_gap_s=min_gap, active_fractions=fractions
    )
    gaps = idle_gaps_from_intervals(intervals, est.total_seconds, min_gap)
    decisions = plan_gaps(gaps, pm, kind, _SAFETY_MARGIN_S)
    # Cycles at the nominal clock; informational.
    overhead = DEFAULT_CALL_OVERHEAD_CYCLES / program.clock_hz * 750e6
    return CompilerPlan(
        kind=kind,
        placement_rows=_placement_rows(
            decisions, est, pm, overhead, fractions, preactivate
        ),
        decision_rows=decisions,
        estimated_timing=est,
        dap=dap,
    )


def _locate(
    est: ProgramTiming,
    t_est: np.ndarray,
    fractions: Sequence[float] | None,
    down: np.ndarray | bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map estimated-timeline instants to strip-mined code positions.

    Returns the ``(nest, ordinal, nominal_fraction)`` columns.  Within an
    iteration the estimated time splits into an I/O prefix (fraction ``f``
    of the duration, during which the body's accesses are in flight) and a
    compute suffix; a code position can only fall in the suffix, so the
    estimated in-iteration offset is re-normalized onto it.  Where ``down``
    (a mask, or one flag for every instant) the position rounds
    *at-or-after* (a spin-down must never precede the phase's last access);
    elsewhere *at-or-before* (a pre-activation may only fire early).  Each element takes the operations of a scalar
    walk over the nests in the same order, so the columns are bit-identical
    to it; ``x`` can be negative (an instant between two nests), so the
    ordinal truncates toward zero like ``int``.
    """
    nests = est.nests
    trips = np.array([nt.trip_count for nt in nests], dtype=np.int64)
    per_iter = np.array([nt.seconds_per_iteration for nt in nests])
    starts = np.array([nt.start_s for nt in nests])
    io = np.array([
        1.0 if fractions is None else min(1.0, max(0.0, float(fractions[i])))
        for i in range(len(nests))
    ])
    # The first nest with ``t <= end_s + 1e-12``: a prefix maximum makes
    # the bounds sorted without changing which nest is first.
    bounds = np.maximum.accumulate(
        np.array([nt.end_s + 1e-12 for nt in nests])
    )
    pos = np.searchsorted(bounds, t_est, side="left")
    past = pos >= len(nests)
    at = np.where(past, 0, pos)
    trip, spi, f = trips[at], per_iter[at], io[at]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (t_est - starts[at]) / spi
        ordinal = np.minimum(trip - 1, np.trunc(x))
        xi = x - ordinal
        frac = (xi - f) / (1.0 - f)
    # Strictly after the iteration's I/O when rounding a spin-down.
    frac = np.where(down, np.maximum(frac, 1e-6), frac)
    frac = np.minimum(1.0, np.maximum(0.0, frac))
    # An all-I/O iteration has no compute suffix: whole iterations only.
    whole = f >= 1.0 - 1e-12
    spill = ~whole & (frac >= 1.0 - 1e-9)
    ordinal = np.where(
        whole,
        np.where(down, np.minimum(trip, ordinal + (xi > 1e-9)), ordinal),
        np.where(spill, np.minimum(trip, ordinal + 1), ordinal),
    )
    degenerate = (trip == 0) | (spi <= 0)
    ordinal = np.where(degenerate, trip, ordinal)
    start = t_est <= 0
    last = nests[-1]
    nest = np.where(start, 0, np.where(past, last.nest_index, pos))
    ordinal = np.where(start, 0, np.where(past, last.trip_count, ordinal))
    frac = np.where(whole | spill | degenerate | start | past, 0.0, frac)
    return nest, ordinal.astype(np.int64), frac


def _placement_rows(
    decisions: np.ndarray,
    est: ProgramTiming,
    pm: PowerModel,
    overhead: float,
    fractions: Sequence[float] | None,
    preactivate: bool,
) -> np.ndarray:
    """The down call (and, unless the gap is trailing, the wake-up call)
    of every acting decision, in code order (a stable sort, so calls at
    one position keep decision order, each down call before its wake-up)."""
    acts = decisions[acting(decisions)]
    # Each acting decision's down row, then its wake-up row if it has one.
    owner = np.repeat(np.arange(acts.size), 1 + acts["has_up"])
    up = np.zeros(owner.size, dtype=bool)
    up[1:] = owner[1:] == owner[:-1]
    d = acts[owner]
    standby = d["mode"] == _STANDBY
    wake_s = d["up_at_s"] if preactivate else d["end_s"]
    rows = np.zeros(owner.size, dtype=PLACEMENT_ROW)
    rows["nest"], rows["iteration"], rows["fraction"] = _locate(
        est, np.where(up, wake_s, d["down_at_s"]), fractions, ~up
    )
    rows["action"] = np.where(standby, np.where(up, _SPIN_UP, _SPIN_DOWN), _SET_RPM)
    rows["disk"] = d["disk"]
    rows["rpm"] = np.where(standby, -1, np.where(up, pm.disk.rpm, d["target_rpm"]))
    rows["overhead"] = overhead
    return rows[np.lexsort((rows["fraction"], rows["iteration"], rows["nest"]))]
