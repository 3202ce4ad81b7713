"""Simulation results: energy, execution time, per-disk breakdowns.

A :class:`SimulationResult` is the simulator's only output and the quantity
every paper figure normalizes: Figures 3/5/7/13 plot
``energy / base.energy`` and Figures 4/6/8 plot ``time / base.time``.
It also retains per-disk busy intervals, which the oracle controllers
(ITPM/IDRPM) consume as their perfect idle-period knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..util.errors import SimulationError
from .disk import DiskStats

__all__ = ["BusyInterval", "ResponseSummary", "SimulationResult"]


class BusyInterval(NamedTuple):
    """One serviced sub-request on one disk: [start, end) wall-clock.

    A ``NamedTuple`` rather than a dataclass: busy-interval collection
    constructs one of these per sub-request on the replay hot path, and
    tuple construction is several times cheaper than a frozen dataclass's
    ``__init__``.
    """

    disk: int
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class ResponseSummary:
    """Response-time statistics over all logical requests."""

    count: int
    mean_s: float
    max_s: float
    p95_s: float
    total_s: float

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "ResponseSummary":
        if not samples:
            return ResponseSummary(0, 0.0, 0.0, 0.0, 0.0)
        arr = np.asarray(samples, dtype=float)
        return ResponseSummary(
            count=int(arr.size),
            mean_s=float(arr.mean()),
            max_s=float(arr.max()),
            p95_s=float(np.percentile(arr, 95)),
            total_s=float(arr.sum()),
        )

    @staticmethod
    def from_running(count: int, total_s: float, max_s: float) -> "ResponseSummary":
        """Summary from streaming accumulators, where per-sample storage is
        unavailable by design.

        Used by streamed (chunked) replays: count/total/max fold exactly
        across chunks, but the 95th percentile needs the full sample set,
        so it is reported as ``0.0`` — a documented sentinel, identical for
        both engines so streamed results still compare bit-equal.
        """
        if count == 0:
            return ResponseSummary(0, 0.0, 0.0, 0.0, 0.0)
        return ResponseSummary(
            count=count,
            mean_s=total_s / count,
            max_s=max_s,
            p95_s=0.0,
            total_s=total_s,
        )


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of replaying one trace under one power-management scheme."""

    scheme: str
    program_name: str
    execution_time_s: float
    disk_stats: tuple[DiskStats, ...]
    responses: ResponseSummary
    num_requests: int
    num_directives: int
    busy_intervals: tuple[tuple[BusyInterval, ...], ...] = field(default=())
    #: Per logical request, its blocking response time, aligned with the
    #: trace's request order (input to measurement-based cycle estimation).
    request_responses: tuple[float, ...] = field(default=())
    #: Replay engine that actually ran (``"stepwise"``/``"segmented"``).
    #: Metadata only — excluded from equality so the engines' bit-identical
    #: results still compare equal (``""`` on results from older caches).
    engine: str = field(default="", compare=False)
    #: Why the replay was routed away from the requested/auto engine
    #: (``"reactive-controller"``; empty when nothing was forced).
    engine_forced: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.execution_time_s < 0:
            raise SimulationError("negative execution time")

    # ------------------------------------------------------------------ #
    @property
    def num_disks(self) -> int:
        return len(self.disk_stats)

    @property
    def total_energy_j(self) -> float:
        """Disk-subsystem energy (the paper's "energy")."""
        return sum(ds.total_energy_j for ds in self.disk_stats)

    def energy_breakdown_j(self) -> dict[str, float]:
        """Energy per disk state summed over the subsystem."""
        out: dict[str, float] = {}
        for ds in self.disk_stats:
            for state, e in ds.energy_j.items():
                out[state] = out.get(state, 0.0) + e
        return out

    def time_breakdown_s(self) -> dict[str, float]:
        """Residency per disk state summed over the subsystem."""
        out: dict[str, float] = {}
        for ds in self.disk_stats:
            for state, t in ds.time_s.items():
                out[state] = out.get(state, 0.0) + t
        return out

    @property
    def total_spin_downs(self) -> int:
        return sum(ds.num_spin_downs for ds in self.disk_stats)

    @property
    def total_spin_ups(self) -> int:
        return sum(ds.num_spin_ups for ds in self.disk_stats)

    @property
    def total_rpm_shifts(self) -> int:
        return sum(ds.num_rpm_shifts for ds in self.disk_stats)

    # ------------------------------------------------------------------ #
    def normalized_energy(self, base: "SimulationResult") -> float:
        """Energy relative to the Base (no power management) run."""
        if base.total_energy_j <= 0:
            raise SimulationError("base energy must be positive")
        return self.total_energy_j / base.total_energy_j

    def normalized_time(self, base: "SimulationResult") -> float:
        """Execution time relative to the Base run."""
        if base.execution_time_s <= 0:
            raise SimulationError("base execution time must be positive")
        return self.execution_time_s / base.execution_time_s
