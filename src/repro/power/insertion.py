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
from ..analysis.idle import IdleGap, idle_gaps_from_intervals
from ..obs import metrics as _metrics
from ..disksim.params import SubsystemParams
from ..disksim.powermodel import PowerModel
from ..ir.nodes import PowerAction, PowerCall
from ..ir.program import Program
from ..layout.files import SubsystemLayout
from ..trace.generator import CallPlacement
from ..util.errors import AnalysisError
from .planner import GapDecision, GapMode, plan_gaps

__all__ = ["CompilerPlan", "plan_power_calls", "DEFAULT_CALL_OVERHEAD_CYCLES"]

#: Overhead of one power-management call (the paper's ``Tm``): a syscall-ish
#: cost at the 750 MHz clock.
DEFAULT_CALL_OVERHEAD_CYCLES: float = 5_000.0


#: Row layouts of the pickled ``placements``/``decisions`` columns; ``-1``
#: stands for a ``None`` RPM, and ``has_up`` for a non-``None`` ``up_at_s``.
_PLACEMENT_ROW = np.dtype([
    ("nest", "i8"), ("iteration", "i8"), ("fraction", "f8"),
    ("action", "i1"), ("disk", "i8"), ("rpm", "i8"), ("overhead", "f8"),
])
_DECISION_ROW = np.dtype([
    ("disk", "i8"), ("start", "f8"), ("end", "f8"), ("trailing", "?"),
    ("mode", "i1"), ("target_rpm", "i8"), ("down_at", "f8"),
    ("up_at", "f8"), ("has_up", "?"), ("saving", "f8"),
])
_ACTIONS = tuple(PowerAction)
_MODES = tuple(GapMode)
_ACTION_CODE = {a: i for i, a in enumerate(_ACTIONS)}
_MODE_CODE = {m: i for i, m in enumerate(_MODES)}


def _encode_placements(placements: Sequence[CallPlacement]) -> np.ndarray:
    return np.array(
        [
            (
                p.nest, p.iteration, p.fraction, _ACTION_CODE[p.call.action],
                p.call.disk, -1 if p.call.rpm is None else p.call.rpm,
                p.call.overhead_cycles,
            )
            for p in placements
        ],
        dtype=_PLACEMENT_ROW,
    )


def _decode_placements(rows: np.ndarray) -> tuple[CallPlacement, ...]:
    return tuple(
        CallPlacement(
            nest, iteration,
            PowerCall(_ACTIONS[action], disk, None if rpm < 0 else rpm, overhead),
            fraction,
        )
        for nest, iteration, fraction, action, disk, rpm, overhead in rows.tolist()
    )


def _encode_decisions(decisions: Sequence[GapDecision]) -> np.ndarray:
    return np.array(
        [
            (
                d.gap.disk, d.gap.start_s, d.gap.end_s, d.gap.trailing,
                _MODE_CODE[d.mode], -1 if d.target_rpm is None else d.target_rpm,
                d.down_at_s, 0.0 if d.up_at_s is None else d.up_at_s,
                d.up_at_s is not None, d.est_saving_j,
            )
            for d in decisions
        ],
        dtype=_DECISION_ROW,
    )


def _decode_decisions(rows: np.ndarray) -> tuple[GapDecision, ...]:
    return tuple(
        GapDecision(
            IdleGap(disk, start, end, trailing),
            _MODES[mode],
            None if target_rpm < 0 else target_rpm,
            down_at,
            up_at if has_up else None,
            saving,
        )
        for (
            disk, start, end, trailing, mode, target_rpm, down_at, up_at,
            has_up, saving,
        ) in rows.tolist()
    )


#: Lazily decoded fields: name -> (pickled column key, encode, decode).
_LAZY = {
    "placements": ("_placement_rows", _encode_placements, _decode_placements),
    "decisions": ("_decision_rows", _encode_decisions, _decode_decisions),
}


@dataclass(frozen=True)
class CompilerPlan:
    """Everything the compiler decided for one (program, layout, scheme).

    A pickle (a cache entry) stores ``placements`` and
    ``decisions`` as one structured array each instead of tens of
    thousands of small objects; an unpickled plan decodes a field on its
    first read.
    """

    kind: str  # "tpm" or "drpm"
    placements: tuple[CallPlacement, ...]
    #: One decision per considered gap, across all disks (Table 3 input).
    decisions: tuple[GapDecision, ...]
    estimated_timing: ProgramTiming
    dap: DiskAccessPattern

    @property
    def num_calls(self) -> int:
        d = self.__dict__
        if "placements" in d:
            return len(d["placements"])
        return len(d["_placement_rows"])

    @property
    def acted_gaps(self) -> tuple[GapDecision, ...]:
        return tuple(d for d in self.decisions if d.acts)

    def __getattr__(self, name: str):
        # Reached only for a lazy field an unpickled plan has not decoded.
        if name not in _LAZY:
            raise AttributeError(name)
        key, _encode, decode = _LAZY[name]
        d = self.__dict__
        value = d[name] = decode(d[key])
        return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name, (key, encode, _decode) in _LAZY.items():
            if name in state:
                value = state.pop(name)
                if key not in state:
                    state[key] = encode(value)
        return state


def _min_useful_gap_s(pm: PowerModel, kind: str) -> float:
    """Gaps shorter than this can never be exploited; merging activity
    across them keeps the DAP compact.  For TPM the floor is the spin-down
    time alone: *trailing* gaps need no spin-up, and the planner itself
    rejects interior gaps that cannot fit the round trip."""
    if kind == "tpm":
        return pm.spin_down_time_s
    return 2.0 * pm.drpm.transition_time_per_step_s


def plan_power_calls(
    program: Program,
    layout: SubsystemLayout,
    params: SubsystemParams,
    kind: str,
    estimation: EstimationModel | None = None,
    accesses: Sequence[NestAccess] | None = None,
    dap: DiskAccessPattern | None = None,
    safety_margin_s: float = 0.05,
    call_overhead_cycles: float = DEFAULT_CALL_OVERHEAD_CYCLES,
    measured: ProgramTiming | None = None,
    cache_bytes: int | None = None,
    preactivate: bool = True,
    slack_margin_frac: float = 0.0,
) -> CompilerPlan:
    """Run the full compiler pipeline for CMTPM (``kind="tpm"``) or CMDRPM
    (``kind="drpm"``).

    ``measured`` optionally supplies a measurement-based timeline (compute
    plus observed I/O stalls, as the paper's ``gethrtime`` instrumentation
    produces — see :func:`repro.analysis.cycles.measured_timing`); the
    estimation model's per-nest error is applied on top of it.  Without it
    the compiler falls back to the compute-only static timeline (only
    sound for compute-dominated nests).

    ``cache_bytes`` opts into an aggressive heuristic: arrays no larger
    than half this capacity are treated as buffer-cache resident and
    excluded from the DAP.  This is unsound for cold first touches (even a
    cache-sized array is read from disk once), so it is OFF by default —
    declare in-memory working sets with ``memory_resident=True`` instead,
    which the analysis always honours.

    ``preactivate=False`` disables paper Eq. (1): the wake-up call is placed
    *at* the end of the gap instead of a lead ahead of it, so the first
    accesses of each active phase wait out the full spin-up / RPM-ramp
    delay — the ablation quantifying what pre-activation buys (paper §3:
    "if we do not use pre-activation ... we incur the associated spin-up
    delay fully").

    ``slack_margin_frac`` widens each gap's pre-activation margin by that
    fraction of its residual slack (see :func:`repro.power.planner.plan_gaps`)
    — a robustness knob for environments where directives land late or
    spin-ups run slow (:mod:`repro.faults`).  The default ``0.0`` is
    bit-identical to the fixed-margin compiler.
    """
    if kind not in ("tpm", "drpm"):
        raise AnalysisError(f"unknown scheme kind {kind!r}")
    with obs.span(
        "power.plan", program=program.name, kind=kind,
        disks=layout.num_disks,
    ) as _sp:
        plan = _plan_power_calls(
            program, layout, params, kind, estimation, accesses, dap,
            safety_margin_s, call_overhead_cycles, measured, cache_bytes,
            preactivate, slack_margin_frac,
        )
        _sp.set(
            calls=plan.num_calls,
            gaps=len(plan.decisions),
            acted_gaps=len(plan.acted_gaps),
        )
        _metrics.inc("power.calls_planned", plan.num_calls, kind=kind)
        _metrics.inc(
            "power.gaps_acted", len(plan.acted_gaps), kind=kind
        )
        return plan


def _plan_power_calls(
    program: Program,
    layout: SubsystemLayout,
    params: SubsystemParams,
    kind: str,
    estimation: EstimationModel | None,
    accesses: Sequence[NestAccess] | None,
    dap: DiskAccessPattern | None,
    safety_margin_s: float,
    call_overhead_cycles: float,
    measured: ProgramTiming | None,
    cache_bytes: int | None,
    preactivate: bool,
    slack_margin_frac: float = 0.0,
) -> CompilerPlan:
    est_model = estimation or EstimationModel()
    if measured is not None:
        est = scale_timing(measured, est_model.scale_factors(program))
    else:
        est = est_model.estimated_timing(program)
    pm = PowerModel(params.disk, params.drpm)
    if dap is None:
        dap = build_dap(
            program,
            layout,
            accesses,
            cached_threshold_bytes=(cache_bytes // 2 if cache_bytes else 0),
        )
    min_gap = _min_useful_gap_s(pm, kind)
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
    horizon = est.total_seconds
    tm_s = call_overhead_cycles / program.clock_hz

    placements: list[CallPlacement] = []
    decisions: list[GapDecision] = []
    for disk in range(layout.num_disks):
        gaps = idle_gaps_from_intervals(
            intervals[disk], disk, horizon, min_gap_s=min_gap
        )
        for dec in plan_gaps(gaps, pm, kind, safety_margin_s, slack_margin_frac):
            decisions.append(dec)
            if not dec.acts:
                continue
            placements.extend(
                _placements_for_decision(
                    dec, disk, est, pm, kind, tm_s, fractions, preactivate
                )
            )
    placements.sort(key=lambda p: (p.nest, p.iteration, p.fraction))
    return CompilerPlan(
        kind=kind,
        placements=tuple(placements),
        decisions=tuple(decisions),
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


def _placements_for_decision(
    dec: GapDecision,
    disk: int,
    est: ProgramTiming,
    pm: PowerModel,
    kind: str,
    tm_s: float,
    fractions: Sequence[float] | None,
    preactivate: bool = True,
) -> list[CallPlacement]:
    overhead = tm_s * 750e6  # cycles at the nominal clock; informational
    out: list[CallPlacement] = []
    if dec.mode is GapMode.STANDBY:
        down_call = PowerCall(
            PowerAction.SPIN_DOWN, disk, overhead_cycles=overhead
        )
        up_call = PowerCall(PowerAction.SPIN_UP, disk, overhead_cycles=overhead)
        lead = pm.spin_up_time_s
    else:
        assert dec.target_rpm is not None
        down_call = PowerCall(
            PowerAction.SET_RPM, disk, rpm=dec.target_rpm, overhead_cycles=overhead
        )
        up_call = PowerCall(
            PowerAction.SET_RPM, disk, rpm=pm.disk.rpm, overhead_cycles=overhead
        )
        lead = pm.transition_time_s(dec.target_rpm, pm.disk.rpm)
    down_nest, down_iter, down_frac = _locate(est, dec.down_at_s, fractions, "down")
    out.append(CallPlacement(down_nest, down_iter, down_call, down_frac))
    if dec.up_at_s is not None:
        up_target = dec.up_at_s if preactivate else dec.gap.end_s
        up_nest, up_iter, up_frac = _locate(est, up_target, fractions, "up")
        out.append(CallPlacement(up_nest, up_iter, up_call, up_frac))
    return out
