"""Per-disk state timelines: record, attribute, query, and render.

The simulator's energy accounting is aggregate (per-state residency sums);
for debugging plans and for the examples' visualizations it is often more
useful to see *when* each disk was in each state.  A
:class:`TimelineRecorder` captures every piecewise-constant power segment a
disk's accounting emits — from **either** replay engine; the segmented
engine's vector windows emit the same records ``Disk`` would, bit for
bit — and the helpers here turn
the segments into summaries, CSV, a terminal strip chart, or a
decision-attribution ledger::

    disk0  ████▁▁▁▁▂▂▂▂▂▂▁▁████▁▁▁▁...
           active/idle/low-rpm/standby per time bucket

Usage::

    rec = TimelineRecorder()
    result = simulate(trace, params, controller, recorder=rec)
    print(render_timeline(rec, width=80))
    ledger = AttributionLedger.from_recorder(rec, full_idle_w=idle_w)
    ledger.verify_against(rec, result)   # conservation, to the bit

Every transition segment carries a ``cause`` tag naming the decision that
started it (see :data:`CAUSE_GLOSSARY`); idle/standby/active segments keep
``cause == ""`` and are attributed to the *regime* established by the last
transition on that disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..util.errors import SimulationError

__all__ = [
    "AttributionLedger",
    "CAUSE_DRPM_WINDOW",
    "CAUSE_EXTERNAL",
    "CAUSE_GLOSSARY",
    "CAUSE_SPINUP_FAULT",
    "CAUSE_STANDBY_WAKE",
    "CAUSE_TPM_AUTO",
    "CauseRollup",
    "Segment",
    "TimelineRecorder",
    "render_timeline",
    "timeline_to_csv",
]

# ---------------------------------------------------------------------- #
# Cause taxonomy.  Directive causes are dynamic ("directive:<k>" for the
# k-th applied trace-embedded power call, "oracle:<k>" for the k-th timed
# directive, "deadline-miss:<k>" when that directive slipped past its
# pre-activation deadline under a fault regime); the rest are fixed
# strings.  Both engines derive the ordinals from the same replay-order
# counters, so causes are engine-invariant and bit-identity includes them.
CAUSE_EXTERNAL = "external"          # direct Disk API call, no replay context
CAUSE_TPM_AUTO = "tpm-auto"          # reactive TPM idle-threshold fire
CAUSE_DRPM_WINDOW = "drpm-window"    # reactive DRPM window decision
CAUSE_STANDBY_WAKE = "standby-wake"  # demand spin-up for a blocked request
CAUSE_SPINUP_FAULT = "spinup-fault"  # retry attempt after a failed spin-up

#: Human-readable glossary, exported into manifests next to the ledger.
CAUSE_GLOSSARY: dict[str, str] = {
    "directive:<k>": "k-th applied compiler-inserted (trace-embedded) power call",
    "oracle:<k>": "k-th applied oracle timed directive",
    "deadline-miss:<k>": "directive k applied late: missed pre-activation deadline",
    CAUSE_TPM_AUTO: "reactive TPM idle-threshold spin-down",
    CAUSE_DRPM_WINDOW: "reactive DRPM inter-request window decision",
    CAUSE_STANDBY_WAKE: "demand spin-up serving a request that found standby",
    CAUSE_SPINUP_FAULT: "retry transition chained after a failed spin-up",
    CAUSE_EXTERNAL: "direct API call outside a replay",
    "initial": "regime before any transition (initial disk state)",
}


@dataclass(frozen=True)
class Segment:
    """One constant-power stretch of one disk's life."""

    disk: int
    state: str
    start_s: float
    end_s: float
    power_w: float
    #: Spindle speed during the segment (0 when spun down; the *target*
    #: level during an rpm_shift).
    rpm: int
    #: Decision that started this segment — only transitions carry one.
    cause: str = ""
    #: Exact accounting duration.  Usually ``end_s - start_s``, but active
    #: segments store the service time the stats fold used, which can
    #: differ from ``(start_s + svc) - start_s`` in the last float bits.
    duration_s: float = 0.0

    @property
    def energy_j(self) -> float:
        return self.duration_s * self.power_w


class TimelineRecorder:
    """Accumulates :class:`Segment` records from the disks' accounting.

    Pass one recorder to :func:`repro.disksim.simulator.simulate`; it is
    attached to every disk, and the segmented engine's vector windows
    record into it too.  Zero-length segments are dropped.
    """

    def __init__(self) -> None:
        self._segments: dict[int, list[Segment]] = {}

    # Called by Disk accounting hooks and the vector kernel's fold.
    def record(
        self,
        disk: int,
        state: str,
        start_s: float,
        end_s: float,
        power_w: float,
        rpm: int,
        cause: str = "",
        duration_s: float | None = None,
    ) -> None:
        if end_s <= start_s:
            return
        if duration_s is None:
            duration_s = end_s - start_s
        self._segments.setdefault(disk, []).append(
            Segment(disk, state, start_s, end_s, power_w, rpm, cause, duration_s)
        )

    # ------------------------------------------------------------------ #
    @property
    def disks(self) -> list[int]:
        return sorted(self._segments)

    def segments(self, disk: int) -> list[Segment]:
        return list(self._segments.get(disk, []))

    def horizon_s(self) -> float:
        return max(
            (segs[-1].end_s for segs in self._segments.values() if segs),
            default=0.0,
        )

    def verify(self) -> None:
        """Check the structural invariants: per disk, segments are ordered,
        non-overlapping, and contiguous (no unaccounted time)."""
        for disk, segs in self._segments.items():
            cursor = 0.0
            for s in segs:
                if s.start_s < cursor - 1e-9:
                    raise SimulationError(
                        f"disk {disk}: segment at {s.start_s} overlaps {cursor}"
                    )
                if s.start_s > cursor + 1e-6:
                    raise SimulationError(
                        f"disk {disk}: gap in timeline at {cursor}..{s.start_s}"
                    )
                cursor = s.end_s

    def total_energy_j(self, disk: int | None = None) -> float:
        """Energy integrated from the segments (cross-check against stats)."""
        disks = [disk] if disk is not None else self.disks
        return sum(s.energy_j for d in disks for s in self._segments.get(d, []))

    def folded_energy_j(self, disk: int) -> dict[str, float]:
        """Per-state energy reproduced by the *same left fold* the engines'
        :class:`~repro.disksim.disk.DiskStats` accounting performs —
        chronological ``+=`` per (disk, state) — so the result matches
        ``DiskStats.energy_j`` bit for bit, not just approximately."""
        folded: dict[str, float] = {}
        for s in self._segments.get(disk, []):
            folded[s.state] = folded.get(s.state, 0.0) + s.energy_j
        return folded

    def state_at(self, disk: int, t: float) -> Segment | None:
        """The segment covering time ``t`` on ``disk`` (None if outside)."""
        for s in self._segments.get(disk, []):
            if s.start_s <= t < s.end_s:
                return s
        return None


# ---------------------------------------------------------------------- #
# Decision-attribution ledger.


@dataclass
class CauseRollup:
    """Joules rolled up for one decision cause."""

    cause: str
    transitions: int = 0
    #: Energy spent *inside* transitions started by this cause.
    cost_j: float = 0.0
    #: Idle/standby residency in the regime this cause established.
    residency_s: float = 0.0
    #: Energy avoided versus idling at full RPM for that residency.
    saved_j: float = 0.0
    #: Every joule attributed to this cause (cost + residency + service).
    energy_j: float = 0.0

    def to_dict(self) -> dict:
        return {
            "cause": self.cause,
            "transitions": self.transitions,
            "cost_j": self.cost_j,
            "residency_s": self.residency_s,
            "saved_j": self.saved_j,
            "energy_j": self.energy_j,
        }


_TRANSITION_STATES = frozenset(("spin_up", "spin_down", "rpm_shift"))


class AttributionLedger:
    """Rolls a recorded timeline up into joules per decision cause.

    Transition segments are charged to their own ``cause``; every other
    segment is charged to the *regime* — the cause of the most recent
    transition on that disk (``"initial"`` before any).  Idle/standby
    segments additionally accrue ``saved_j`` against the full-RPM idle
    baseline, which is the paper's figure of merit.  Because every segment
    lands in exactly one bucket, the ledger is conservative:
    :meth:`verify_against` checks that the per-(disk, state) energy folds
    reproduce the replay's :class:`DiskStats` numbers **to the bit**.
    """

    def __init__(self, full_idle_w: float) -> None:
        self.full_idle_w = float(full_idle_w)
        self.by_cause: dict[str, CauseRollup] = {}

    @classmethod
    def from_recorder(
        cls, rec: TimelineRecorder, full_idle_w: float
    ) -> "AttributionLedger":
        ledger = cls(full_idle_w)
        for disk in rec.disks:
            regime = "initial"
            for s in rec.segments(disk):
                if s.state in _TRANSITION_STATES:
                    regime = s.cause or CAUSE_EXTERNAL
                    roll = ledger._roll(regime)
                    roll.transitions += 1
                    roll.cost_j += s.energy_j
                    roll.energy_j += s.energy_j
                    continue
                roll = ledger._roll(regime)
                roll.energy_j += s.energy_j
                if s.state in ("idle", "standby"):
                    roll.residency_s += s.duration_s
                    roll.saved_j += s.duration_s * (full_idle_w - s.power_w)
        return ledger

    def _roll(self, cause: str) -> CauseRollup:
        roll = self.by_cause.get(cause)
        if roll is None:
            roll = self.by_cause[cause] = CauseRollup(cause)
        return roll

    # ------------------------------------------------------------------ #
    @property
    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.by_cause.values())

    @property
    def total_saved_j(self) -> float:
        return sum(r.saved_j for r in self.by_cause.values())

    def verify_against(self, rec: TimelineRecorder, result) -> None:
        """Conservation invariant: the timeline's per-(disk, state) energy
        folds must equal the replay's reported ``DiskStats.energy_j``
        exactly (bitwise), and the cause buckets must partition the same
        total.  Raises :class:`SimulationError` on any mismatch."""
        for d, stats in enumerate(result.disk_stats):
            folded = rec.folded_energy_j(d)
            states = set(folded) | set(stats.energy_j)
            for state in states:
                got = folded.get(state, 0.0)
                want = stats.energy_j.get(state, 0.0)
                if got != want:
                    raise SimulationError(
                        f"attribution ledger: disk {d} state {state!r} "
                        f"energy {got!r} != DiskStats {want!r}"
                    )
        # The cause partition re-associates float adds, so the cross-check
        # against the bit-exact per-state folds uses a tight tolerance.
        total = sum(
            e for d in rec.disks for e in rec.folded_energy_j(d).values()
        )
        drift = abs(self.total_energy_j - total)
        if drift > 1e-6 * max(1.0, abs(total)):
            raise SimulationError(
                f"attribution ledger: cause buckets sum to "
                f"{self.total_energy_j!r}, timeline total is {total!r}"
            )

    def to_dict(self, rollup_families: bool = False) -> dict:
        """JSON-ready ledger section for run manifests.

        With ``rollup_families=True`` the per-ordinal causes
        (``directive:17``, ``oracle:3``, ``deadline-miss:...``) collapse
        into their family (``directive:*``, ...), so a manifest stays
        compact for replays carrying thousands of directives while the
        CSV/trace exports keep the full per-decision attribution.
        """
        causes = self.by_cause
        if rollup_families:
            causes = {}
            for cause, roll in self.by_cause.items():
                key = f"{cause.rsplit(':', 1)[0]}:*" if ":" in cause else cause
                fam = causes.get(key)
                if fam is None:
                    fam = causes[key] = CauseRollup(key)
                fam.transitions += roll.transitions
                fam.cost_j += roll.cost_j
                fam.residency_s += roll.residency_s
                fam.saved_j += roll.saved_j
                fam.energy_j += roll.energy_j
        return {
            "full_idle_w": self.full_idle_w,
            "total_energy_j": self.total_energy_j,
            "total_saved_j": self.total_saved_j,
            "causes": [causes[c].to_dict() for c in sorted(causes)],
            "glossary": dict(CAUSE_GLOSSARY),
        }


# ---------------------------------------------------------------------- #
# Rendering.

_GLYPHS = {
    "active": "#",
    "idle_full": "=",
    "idle_low": "-",
    "standby": ".",
    "spin_down": "v",
    "spin_up": "^",
    "rpm_shift": "~",
}


def _classify(segment: Segment, full_rpm: int) -> str:
    if segment.state == "idle":
        return "idle_full" if segment.rpm >= full_rpm else "idle_low"
    return segment.state


def render_timeline(
    rec: TimelineRecorder,
    width: int = 80,
    full_rpm: int = 15_000,
    disks: Sequence[int] | None = None,
) -> str:
    """ASCII strip chart: one row per disk, one column per time bucket.

    Each bucket shows the state the disk spent the most time in:
    ``#`` active, ``=`` idle at full speed, ``-`` idle at a reduced level,
    ``.`` standby, ``v``/``^`` spin down/up, ``~`` RPM shift.
    """
    horizon = rec.horizon_s()
    if horizon <= 0 or width <= 0:
        return "(empty timeline)"
    bucket = horizon / width
    rows = []
    for disk in disks if disks is not None else rec.disks:
        counts = [dict() for _ in range(width)]
        for s in rec.segments(disk):
            kind = _classify(s, full_rpm)
            b0 = min(width - 1, int(s.start_s / bucket))
            b1 = min(width - 1, int(max(s.start_s, s.end_s - 1e-12) / bucket))
            for b in range(b0, b1 + 1):
                lo = max(s.start_s, b * bucket)
                hi = min(s.end_s, (b + 1) * bucket)
                if hi > lo:
                    counts[b][kind] = counts[b].get(kind, 0.0) + (hi - lo)
        line = "".join(
            _GLYPHS[max(c, key=c.get)] if c else " " for c in counts
        )
        rows.append(f"disk{disk:<3d} {line}")
    legend = (
        "        # active   = idle(full)   - idle(low rpm)   . standby   "
        "v down   ^ up   ~ shift"
    )
    scale = f"        0s {'-' * max(0, width - 20)} {horizon:.1f}s"
    return "\n".join(rows + [legend, scale])


def timeline_to_csv(rec: TimelineRecorder, disks: Iterable[int] | None = None) -> str:
    """Segments as CSV (disk,state,start_s,end_s,power_w,rpm,cause)."""
    out = ["disk,state,start_s,end_s,power_w,rpm,cause"]
    for disk in disks if disks is not None else rec.disks:
        for s in rec.segments(disk):
            out.append(
                f"{s.disk},{s.state},{s.start_s:.6f},{s.end_s:.6f},"
                f"{s.power_w:.4f},{s.rpm},{s.cause}"
            )
    return "\n".join(out) + "\n"
