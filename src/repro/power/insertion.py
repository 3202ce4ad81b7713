"""The compiler pass: DAP -> planned gaps -> explicit power calls in code.

This is the third component of the paper's compiler strategy (§3): given
the disk access pattern and the cycle estimates, decide per idle gap what
each disk should do (via :mod:`repro.power.planner`), then insert

* ``spin_down(disk)`` / ``set_RPM(level, disk)`` at the iteration where the
  gap begins, and
* the pre-activation ``spin_up(disk)`` / ``set_RPM(max, disk)`` *d*
  iterations before the next active phase (Eq. 1, via
  :mod:`repro.power.preactivation`),

producing :class:`~repro.trace.generator.CallPlacement` records that the
trace generator stamps onto the actual timeline.  All decisions here use
the compiler's **estimated** timing; the placements' iteration anchors are
exact (code position is not subject to timing error), so estimation error
surfaces only as (a) occasionally mispredicted RPM levels — paper Table 3 —
and (b) slightly early/late pre-activations.
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
from ..ir.nodes import PowerAction, PowerCall
from ..ir.program import Program
from ..layout.files import SubsystemLayout
from ..trace.generator import CallPlacement
from ..util.errors import AnalysisError
from .planner import (
    GAP_MODES,
    GapDecision,
    GapMode,
    acting,
    decision_views,
    min_useful_gap_s,
    plan_gaps,
)

__all__ = ["CompilerPlan", "plan_power_calls", "DEFAULT_CALL_OVERHEAD_CYCLES"]

#: Overhead of one power-management call (the paper's ``Tm``): a syscall-ish
#: cost at the 750 MHz clock.
DEFAULT_CALL_OVERHEAD_CYCLES: float = 5_000.0


#: Row layout of a plan's placements; ``-1`` stands for a ``None`` RPM.
_PLACEMENT_ROW = np.dtype([
    ("nest", "i8"), ("iteration", "i8"), ("fraction", "f8"),
    ("action", "i1"), ("disk", "i8"), ("rpm", "i8"), ("overhead", "f8"),
])
_ACTIONS = tuple(PowerAction)
_SPIN_DOWN, _SPIN_UP, _SET_RPM = (
    _ACTIONS.index(a)
    for a in (PowerAction.SPIN_DOWN, PowerAction.SPIN_UP, PowerAction.SET_RPM)
)

#: Seconds the compiler's wake-up completes before an estimated gap ends.
_SAFETY_MARGIN_S = 0.05


def _placement_views(rows: np.ndarray) -> tuple[CallPlacement, ...]:
    return tuple(
        CallPlacement(
            nest, iteration,
            PowerCall(_ACTIONS[action], disk, None if rpm < 0 else rpm, overhead),
            fraction,
        )
        for nest, iteration, fraction, action, disk, rpm, overhead in rows.tolist()
    )


@dataclass(frozen=True)
class CompilerPlan:
    """Everything the compiler decided for one (program, layout, scheme).

    Placements and decisions live in structured arrays (one row each), so
    a pickle (a cache entry) carries two arrays instead of tens of
    thousands of small objects; :attr:`placements` and :attr:`decisions`
    build object views from them on each read.
    """

    kind: str  # "tpm" or "drpm"
    #: One :data:`_PLACEMENT_ROW` per inserted call, in code order.
    placement_rows: np.ndarray
    #: One decision row per considered gap, disk-major (Table 3 input).
    decision_rows: np.ndarray
    estimated_timing: ProgramTiming
    dap: DiskAccessPattern

    @property
    def placements(self) -> tuple[CallPlacement, ...]:
        return _placement_views(self.placement_rows)

    @property
    def decisions(self) -> tuple[GapDecision, ...]:
        return decision_views(self.decision_rows)

    @property
    def num_calls(self) -> int:
        return len(self.placement_rows)

    @property
    def acted_gaps(self) -> tuple[GapDecision, ...]:
        return decision_views(self.decision_rows[acting(self.decision_rows)])


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
    t_est: float,
    fractions: Sequence[float] | None,
    mode: str,
) -> tuple[int, int, float]:
    """Map an estimated-timeline instant to a strip-mined code position.

    Returns ``(nest, ordinal, nominal_fraction)``.  Within an iteration the
    estimated time splits into an I/O prefix (fraction ``f`` of the
    duration, during which the body's accesses are in flight) and a compute
    suffix; a code position can only fall in the suffix, so the estimated
    in-iteration offset is re-normalized onto it.  ``mode="down"`` rounds
    *at-or-after* (a spin-down must never precede the phase's last access);
    ``mode="up"`` rounds *at-or-before* (a pre-activation may only fire
    early).  This positioning generalizes Eq. (1): the iteration distance it
    yields inside one nest is exactly ``ceil(lead / (s + Tm))``.
    """
    if t_est <= 0:
        return 0, 0, 0.0
    for i, nt in enumerate(est.nests):
        if t_est <= nt.end_s + 1e-12:
            if nt.trip_count == 0 or nt.seconds_per_iteration <= 0:
                return i, nt.trip_count, 0.0
            x = (t_est - nt.start_s) / nt.seconds_per_iteration
            ordinal = min(nt.trip_count - 1, int(x))
            xi = x - ordinal
            f = 1.0 if fractions is None else min(1.0, max(0.0, float(fractions[i])))
            if f >= 1.0 - 1e-12:
                if mode == "down":
                    ordinal = min(nt.trip_count, ordinal + (1 if xi > 1e-9 else 0))
                return i, ordinal, 0.0
            frac = (xi - f) / (1.0 - f)
            if mode == "down":
                frac = max(frac, 1e-6)  # strictly after the iteration's I/O
            frac = min(1.0, max(0.0, frac))
            if frac >= 1.0 - 1e-9:
                return i, min(nt.trip_count, ordinal + 1), 0.0
            return i, ordinal, frac
    last = est.nests[-1]
    return last.nest_index, last.trip_count, 0.0


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
    one position keep decision order)."""
    out = []
    for (
        disk, _start, end, _trailing, mode, target_rpm, down_at, up_at,
        has_up, _saving,
    ) in decisions[acting(decisions)].tolist():
        if GAP_MODES[mode] is GapMode.STANDBY:
            down, up, down_rpm, up_rpm = _SPIN_DOWN, _SPIN_UP, -1, -1
        else:
            down, up, down_rpm, up_rpm = _SET_RPM, _SET_RPM, target_rpm, pm.disk.rpm
        out.append(
            (*_locate(est, down_at, fractions, "down"), down, disk, down_rpm, overhead)
        )
        if has_up:
            target = up_at if preactivate else end
            out.append(
                (*_locate(est, target, fractions, "up"), up, disk, up_rpm, overhead)
            )
    rows = np.array(out, dtype=_PLACEMENT_ROW)
    return rows[np.lexsort((rows["fraction"], rows["iteration"], rows["nest"]))]
