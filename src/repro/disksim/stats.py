"""Simulation results: energy, execution time, per-disk breakdowns.

A :class:`SimulationResult` is the simulator's only output and the quantity
every paper figure normalizes: Figures 3/5/7/13 plot
``energy / base.energy`` and Figures 4/6/8 plot ``time / base.time``.
It also retains per-disk busy intervals, which the oracle controllers
(ITPM/IDRPM) consume as their perfect idle-period knowledge, and the
per-request response times.  Both per-sub-request fields are stored as
float64 columns; their tuple views are built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from ..util.errors import SimulationError
from .disk import DiskStats

__all__ = ["BusyInterval", "ResponseSummary", "SimulationResult"]


class BusyInterval(NamedTuple):
    """One serviced sub-request on one disk: [start, end) wall-clock.

    The element type of :attr:`SimulationResult.busy_intervals`, a view
    built from the result's columns on first read; the replay itself never
    constructs one.
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
    def from_samples(samples: "np.ndarray | Sequence[float]") -> "ResponseSummary":
        """Summary of a response column; a float64 array is used as is."""
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            return ResponseSummary(0, 0.0, 0.0, 0.0, 0.0)
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


#: Per-disk ``(starts, ends)`` float64 columns of a result's busy intervals.
BusyColumns = tuple[tuple[np.ndarray, np.ndarray], ...]

_VIEWS = ("busy_intervals", "request_responses")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only float64 view of ``arr`` (an array's data is not copied)."""
    arr = np.asarray(arr, dtype=float)
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of replaying one trace under one power-management scheme.

    The two per-sub-request fields live in columns: per disk a
    ``(starts, ends)`` pair (:attr:`busy_columns`) and one response array
    (:attr:`response_array`).  :attr:`busy_intervals` and
    :attr:`request_responses` are tuple views built from them on first
    read and memoized; a pickle (a cache entry) carries
    the columns only.  Views passed to the constructor (e.g. by
    :func:`dataclasses.replace`) are converted to columns, so equal
    results have equal columns whichever way they were built.
    """

    scheme: str
    program_name: str
    execution_time_s: float
    disk_stats: tuple[DiskStats, ...]
    responses: ResponseSummary
    num_requests: int
    num_directives: int
    # ``default_factory`` rather than a plain default: a plain default
    # would stay behind as a class attribute and hide ``__getattr__``,
    # which builds these views.
    busy_intervals: tuple[tuple[BusyInterval, ...], ...] = field(
        default_factory=tuple
    )
    #: Per logical request, its blocking response time, aligned with the
    #: trace's request order (input to measurement-based cycle estimation).
    request_responses: tuple[float, ...] = field(default_factory=tuple)
    #: Replay engine that actually ran (``"stepwise"``/``"segmented"``).
    #: Metadata only — excluded from equality so the engines' bit-identical
    #: results still compare equal.
    engine: str = field(default="", compare=False)
    #: Why the replay was routed away from the requested/auto engine
    #: (``"reactive-controller"``; empty when nothing was forced).
    engine_forced: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.execution_time_s < 0:
            raise SimulationError("negative execution time")
        d = self.__dict__
        busy = d.pop("busy_intervals")
        for disk, intervals in enumerate(busy):
            if any(b.disk != disk for b in intervals):
                raise SimulationError(
                    f"busy intervals of disk {disk} name another disk"
                )
        d["_busy"] = tuple(
            (
                _frozen([b.start_s for b in intervals]),
                _frozen([b.end_s for b in intervals]),
            )
            for intervals in busy
        )
        d["_responses"] = _frozen(d.pop("request_responses"))

    @classmethod
    def from_columns(
        cls,
        busy_columns: BusyColumns = (),
        response_array: np.ndarray | None = None,
        **fields,
    ) -> "SimulationResult":
        """A result holding the given columns and no tuple views."""
        result = cls(**fields)
        d = result.__dict__
        d["_busy"] = tuple((_frozen(s), _frozen(e)) for s, e in busy_columns)
        if response_array is not None:
            d["_responses"] = _frozen(response_array)
        return result

    @property
    def busy_columns(self) -> BusyColumns:
        """Per disk ``(starts, ends)``; ``()`` when busy intervals were not
        collected."""
        return self._busy

    @property
    def response_array(self) -> np.ndarray:
        """Read-only per-request response times (empty when streamed)."""
        return self._responses

    def __getattr__(self, name: str):
        # Reached only when ``name`` is not in the instance dict: build a
        # tuple view from its column on first read and memoize it.
        if name not in _VIEWS:
            raise AttributeError(name)
        d = self.__dict__
        if name == "busy_intervals":
            view = tuple(
                tuple(map(BusyInterval, repeat(disk), s.tolist(), e.tolist()))
                for disk, (s, e) in enumerate(d["_busy"])
            )
        else:
            view = tuple(d["_responses"].tolist())
        d[name] = view
        return view

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in _VIEWS:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        state["_busy"] = tuple((_frozen(s), _frozen(e)) for s, e in state["_busy"])
        state["_responses"] = _frozen(state["_responses"])
        self.__dict__.update(state)

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
