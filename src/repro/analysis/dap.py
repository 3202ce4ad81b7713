"""Disk access patterns (DAP) — paper §3's central compiler artifact.

A DAP lists, per disk, its idle/active phases in the compact form the paper
illustrates::

    < Nest 1, iteration 1,   idle >
    < Nest 2, iteration 50,  active >
    < Nest 2, iteration 100, idle >

Each entry marks a *state change* at a given outer iteration of a given
nest; the disk stays in that state until the next entry.  We build DAPs by
stacking per-nest activity matrices (:meth:`~repro.analysis.access.NestAccess.
active_disk_matrix`) along the program's nest order, and we convert them to
*timed* per-disk active intervals with a :class:`~repro.analysis.cycles.
ProgramTiming` — which is how the power planner obtains (estimated) idle
gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..ir.program import Program
from ..layout.files import SubsystemLayout
from ..util.errors import AnalysisError
from .access import NestAccess, analyze_program
from .cycles import ProgramTiming
from .idle import merge_intervals

__all__ = ["DAPEntry", "DiskAccessPattern", "build_dap"]


@dataclass(frozen=True)
class DAPEntry:
    """One state change: at (nest, iteration) the disk becomes idle/active."""

    nest: int
    iteration: int
    active: bool

    @property
    def state(self) -> str:
        return "active" if self.active else "idle"

    def __str__(self) -> str:
        return f"< Nest {self.nest}, iteration {self.iteration}, {self.state} >"


@dataclass(frozen=True)
class DiskAccessPattern:
    """Per-disk idle/active pattern over a whole program."""

    num_disks: int
    #: ``activity[n]`` is the nest-n boolean matrix (outer trips x disks).
    activity: tuple[np.ndarray, ...]
    #: Outer-loop iteration *values* per nest (for reporting entries the way
    #: the paper writes them, in source iteration numbers).
    outer_values: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for n, m in enumerate(self.activity):
            if m.ndim != 2 or m.shape[1] != self.num_disks:
                raise AnalysisError(
                    f"nest {n} activity matrix has shape {m.shape}, "
                    f"expected (*, {self.num_disks})"
                )

    # ------------------------------------------------------------------ #
    @property
    def num_nests(self) -> int:
        return len(self.activity)

    def disk_timeline(self, disk: int) -> np.ndarray:
        """Concatenated activity of one disk across all nests."""
        if not 0 <= disk < self.num_disks:
            raise AnalysisError(f"disk {disk} out of range")
        cols = [m[:, disk] for m in self.activity if m.shape[0]]
        if not cols:
            return np.zeros(0, dtype=bool)
        return np.concatenate(cols)

    def entries(self, disk: int) -> list[DAPEntry]:
        """The paper-style compact entry list for one disk.

        The implicit initial state is idle; an entry is emitted whenever the
        state changes, stamped with the (nest, outer-iteration-value) where
        the new state begins.
        """
        out: list[DAPEntry] = []
        state = False
        for n, m in enumerate(self.activity):
            col = m[:, disk]
            if col.size == 0:
                continue
            change = np.flatnonzero(np.diff(col.astype(np.int8)) != 0) + 1
            idxs = np.concatenate(([0], change))
            for t in idxs:
                new_state = bool(col[t])
                if new_state != state:
                    out.append(
                        DAPEntry(
                            nest=n,
                            iteration=int(self.outer_values[n][t]),
                            active=new_state,
                        )
                    )
                    state = new_state
        return out

    def ever_active(self, disk: int) -> bool:
        return bool(self.disk_timeline(disk).any())

    def utilization(self, disk: int) -> float:
        """Fraction of outer iterations (across all nests) touching the disk."""
        tl = self.disk_timeline(disk)
        return float(tl.mean()) if tl.size else 0.0

    # ------------------------------------------------------------------ #
    def active_intervals(
        self,
        timing: ProgramTiming,
        merge_gap_s: float = 0.0,
        active_fractions: Sequence[float] | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Timed active phases per disk under a compute timeline, as
        merged ``(starts, ends)`` columns (:func:`~repro.analysis.idle.
        merge_intervals`).

        ``merge_gap_s`` fuses active phases separated by gaps shorter than
        the threshold (a gap too short to exploit is effectively activity —
        the planner passes the device's minimum useful gap here).

        ``active_fractions`` optionally gives, per nest, the fraction of an
        iteration's duration during which its disk accesses occur (they
        cluster at the iteration's start: a loop body reads its operands,
        then computes).  With fraction ``f < 1`` an active iteration only
        occupies ``[start, start + f * dur]``, exposing the trailing
        ``(1 - f)`` as idle — this is how the compiler sees intra-iteration
        idle windows in nests that mix a read burst with heavy compute.
        """
        if len(timing.nests) != self.num_nests:
            raise AnalysisError(
                f"timing has {len(timing.nests)} nests, DAP has {self.num_nests}"
            )
        if active_fractions is not None and len(active_fractions) != self.num_nests:
            raise AnalysisError("active_fractions must have one entry per nest")
        result: list[tuple[np.ndarray, np.ndarray]] = []
        for disk in range(self.num_disks):
            starts = [np.empty(0)]
            ends = [np.empty(0)]
            for n, m in enumerate(self.activity):
                col = m[:, disk]
                if col.size == 0 or not col.any():
                    continue
                nt = timing.nest(n)
                frac = 1.0 if active_fractions is None else float(active_fractions[n])
                frac = min(1.0, max(0.0, frac))
                dur = nt.seconds_per_iteration
                # When the intra-iteration idle tail is too short to use,
                # treat iterations as fully active (classic run semantics);
                # otherwise every active iteration is its own interval.
                tail = (1.0 - frac) * dur
                if tail > merge_gap_s:
                    first = nt.start_s + np.flatnonzero(col) * dur
                    starts.append(first)
                    ends.append(first + frac * dur)
                    continue
                padded = np.concatenate(([False], col, [False]))
                edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
                t0, t1 = edges[0::2], edges[1::2]
                starts.append(nt.start_s + t0 * dur)
                ends.append(
                    np.minimum(
                        nt.start_s + (t1 - 1) * dur + max(frac, 1e-9) * dur,
                        nt.start_s + t1 * dur,
                    )
                )
            result.append(
                merge_intervals(
                    np.concatenate(starts), np.concatenate(ends), merge_gap_s, disk
                )
            )
        return result


def build_dap(
    program: Program,
    layout: SubsystemLayout,
    accesses: Sequence[NestAccess] | None = None,
    cached_threshold_bytes: int = 0,
) -> DiskAccessPattern:
    """Construct the DAP of ``program`` under ``layout``.

    ``accesses`` may carry pre-computed per-nest summaries (they are reused
    across layouts in the sensitivity sweeps); otherwise they are derived
    here.

    ``cached_threshold_bytes``: references to arrays no larger than this
    are assumed buffer-cache resident and generate no disk activity — the
    compiler's model of the cache the paper's §4.1 assumes (small working
    sets never reach the disks after their first touch).
    """
    with obs.span(
        "analysis.dap", program=program.name, disks=layout.num_disks
    ):
        if accesses is None:
            accesses = analyze_program(program)
        if len(accesses) != len(program.nests):
            raise AnalysisError(
                f"{len(accesses)} access summaries for {len(program.nests)} nests"
            )
        if cached_threshold_bytes > 0:
            from dataclasses import replace as _replace

            accesses = [
                _replace(
                    acc,
                    footprints=tuple(
                        fp
                        for fp in acc.footprints
                        if fp.ref.array.size_bytes > cached_threshold_bytes
                    ),
                )
                for acc in accesses
            ]
        activity = tuple(acc.active_disk_matrix(layout) for acc in accesses)
        outer_values = tuple(
            np.asarray(list(acc.nest.iter_values()), dtype=np.int64)
            for acc in accesses
        )
        return DiskAccessPattern(
            num_disks=layout.num_disks, activity=activity, outer_values=outer_values
        )
