"""Trace records.

A trace is the program-ordered stream the simulator replays.  It contains
two record kinds:

* :class:`IORequest` — one blocking disk access, in the paper's four-field
  format (arrival time, start block, size, read/write) plus provenance
  (which array / nest / iteration produced it, used by reports and tests);
* a directive — one :data:`DIRECTIVE_ROW` per compiler-inserted
  power-management call (paper §3), pinned to its position in the
  instruction stream.

A request's ``nominal_time_s`` and a directive's ``time`` are timestamps on
the *unperturbed* timeline (no power-management slowdowns): the compute
time accumulated before the record executes.  At replay, the simulator
shifts nominal times by the slowdown accumulated so far — which is exactly
how code inserted at a loop position behaves on a real machine.

Storage is **columnar**: a :class:`Trace` holds one :class:`RequestColumns`
— parallel NumPy arrays of times/offsets/sizes/flags — and materializes
:class:`IORequest` objects lazily, only for callers that iterate the object
API.  The replay plan and the simulator's hot loop consume the arrays
directly, so no per-request Python objects exist on the suite path, and the
per-scheme :meth:`Trace.with_directives` copies share one validated column
set instead of re-validating the whole request tuple per scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ir.nodes import PowerAction
from ..layout.files import SubsystemLayout
from ..util.errors import TraceError

__all__ = [
    "IORequest",
    "DIRECTIVE_ROW",
    "ACT_SPIN_DOWN",
    "ACT_SPIN_UP",
    "ACT_SET_RPM",
    "check_directives",
    "RequestColumns",
    "Trace",
    "UNKNOWN_POSITION",
]

#: Ordering tolerance: nominal times may regress by at most this much
#: before a trace is rejected as unordered (float accumulation slack).
_ORDER_TOL = 1e-12

#: Sentinel for "program position unknown" in the ``nest``/``iteration``
#: columns.  Requests parsed back from serialized traces (the paper's
#: four-field text format) and requests ingested from external block-I/O
#: traces (:mod:`repro.trace.ingest`, :mod:`repro.trace.synth`) carry no
#: loop-nest provenance, so every reader — the trace-file line parser,
#: ingest and synthesis — fills both columns with this one value and
#: whole-file vs streamed reads round-trip identically.
UNKNOWN_POSITION = -1

#: The per-request columns of :class:`RequestColumns`, in constructor order.
_COLUMNS = (
    "nominal_time_s",
    "array_id",
    "offset",
    "nbytes",
    "is_write",
    "nest",
    "iteration",
)


@dataclass(frozen=True)
class IORequest:
    """One logical (file-level) disk request; may span several disks."""

    nominal_time_s: float
    array: str
    offset: int
    nbytes: int
    is_write: bool
    nest: int = UNKNOWN_POSITION
    iteration: int = UNKNOWN_POSITION

    def __post_init__(self) -> None:
        if self.nominal_time_s < 0:
            raise TraceError(f"negative request time {self.nominal_time_s}")
        if self.offset < 0:
            raise TraceError(f"negative request offset {self.offset}")
        if self.nbytes <= 0:
            raise TraceError(f"request size must be positive, got {self.nbytes}")

    @property
    def kind(self) -> str:
        return "write" if self.is_write else "read"


#: Row layout of a directive stream, one row per power-management call in
#: execution order.  ``time`` is the call's nominal time for a trace
#: directive (the replay shifts it by the accumulated delay) and its
#: absolute time for a timed (oracle) directive.  The other columns are the
#: call columns of :data:`~repro.trace.generator.PLACEMENT_ROW`: ``action``
#: indexes :class:`~repro.ir.nodes.PowerAction`, ``rpm`` is the ``set_RPM``
#: level (``-1`` for none) and ``overhead`` the call's cost in cycles.
DIRECTIVE_ROW = np.dtype([
    ("time", "f8"), ("action", "i1"), ("disk", "i8"), ("rpm", "i8"),
    ("overhead", "f8"),
])
_ACTIONS = tuple(PowerAction)
#: The ``action`` codes of :data:`DIRECTIVE_ROW`.
ACT_SPIN_DOWN, ACT_SPIN_UP, ACT_SET_RPM = (
    _ACTIONS.index(a)
    for a in (PowerAction.SPIN_DOWN, PowerAction.SPIN_UP, PowerAction.SET_RPM)
)


def check_directives(
    rows: np.ndarray, what: str = "directive", sort: bool = False
) -> np.ndarray:
    """Validate a directive stream and return it.

    ``rows`` must be a 1-D :data:`DIRECTIVE_ROW` array ordered by time;
    ``sort=True`` first sorts it stably by time (and returns the sorted
    copy).  A non-finite or negative time, an unknown action code, a
    negative disk, a ``set_RPM`` without a positive level, a level on
    ``spin_down`` or ``spin_up``, or a time before the previous row's
    raises :class:`TraceError` naming the first offending row (``what``
    ``k``).
    """
    if not isinstance(rows, np.ndarray) or rows.dtype != DIRECTIVE_ROW or rows.ndim != 1:
        raise TraceError(f"{what}s must be a 1-D DIRECTIVE_ROW array")
    if sort:
        rows = rows[np.argsort(rows["time"], kind="stable")]
    t, action, rpm = rows["time"], rows["action"], rows["rpm"]
    set_rpm = action == ACT_SET_RPM
    for bad, problem in (
        (~(np.isfinite(t) & (t >= 0.0)), "time {time} is not finite and non-negative"),
        ((action < 0) | (action >= len(_ACTIONS)), "action code {action} out of range"),
        (rows["disk"] < 0, "negative disk {disk}"),
        (set_rpm & (rpm <= 0), "set_RPM needs a positive rpm level, got {rpm}"),
        (~set_rpm & (rpm != -1), "spin_down/spin_up take no rpm level, got {rpm}"),
        (np.diff(t, prepend=0.0) < 0.0,
         "time {time} precedes the previous row's; rows must be ordered by time"),
    ):
        hit = np.flatnonzero(bad)
        if hit.size:
            i = int(hit[0])
            row = dict(zip(DIRECTIVE_ROW.names, rows[i].tolist()))
            raise TraceError(f"{what} {i}: {problem.format(**row)}")
    return rows


class RequestColumns:
    """The request stream of one trace as parallel NumPy arrays.

    ``array_id[i]`` indexes :attr:`array_names`; every other column ``c`` is
    ``c[i] == requests[i].<field>``.  Columns are validated once at
    construction; every :class:`Trace` copy sharing this object (the
    per-scheme ``with_directives`` derivations) inherits that validation for
    free.  ``materialize()`` builds the :class:`IORequest` tuple on demand
    and caches it, so the object API stays available without ever paying for
    it on the columnar hot paths.
    """

    __slots__ = (*_COLUMNS, "array_names", "_objects", "_total_bytes")

    def __init__(
        self,
        nominal_time_s,
        array_id,
        offset,
        nbytes,
        is_write,
        nest,
        iteration,
        array_names: Sequence[str],
        validate: bool = True,
    ):
        self.nominal_time_s = np.asarray(nominal_time_s, dtype=np.float64)
        self.array_id = np.asarray(array_id, dtype=np.int64)
        self.offset = np.asarray(offset, dtype=np.int64)
        self.nbytes = np.asarray(nbytes, dtype=np.int64)
        self.is_write = np.asarray(is_write, dtype=bool)
        self.nest = np.asarray(nest, dtype=np.int64)
        self.iteration = np.asarray(iteration, dtype=np.int64)
        self.array_names = tuple(array_names)
        self._objects: tuple[IORequest, ...] | None = None
        self._total_bytes: int | None = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_requests(cls, requests: Sequence[IORequest]) -> "RequestColumns":
        """Build columns from an object stream (tests, hand-built traces).

        The given tuple is kept as the pre-materialized object view, so
        ``Trace.requests`` round-trips the exact objects passed in.
        """
        reqs = tuple(requests)
        ids: dict[str, int] = {}
        array_id = np.empty(len(reqs), dtype=np.int64)
        for i, r in enumerate(reqs):
            fid = ids.get(r.array)
            if fid is None:
                fid = ids.setdefault(r.array, len(ids))
            array_id[i] = fid
        cols = cls(
            nominal_time_s=[r.nominal_time_s for r in reqs],
            array_id=array_id,
            offset=[r.offset for r in reqs],
            nbytes=[r.nbytes for r in reqs],
            is_write=[r.is_write for r in reqs],
            nest=[r.nest for r in reqs],
            iteration=[r.iteration for r in reqs],
            array_names=tuple(ids),
        )
        cols._objects = reqs
        return cols

    @classmethod
    def concat(
        cls, parts: Sequence["RequestColumns"], array_names: Sequence[str]
    ) -> "RequestColumns":
        """The rows of ``parts`` end to end — how every whole-trace entry
        point joins its producer's chunk stream.

        All parts must share the ``array_names`` id space and follow each
        other in arrival order, as one producer's chunks do.  Each part
        was validated when it was built, so the join is not re-validated;
        a single part is returned as is, and no parts give an empty set.
        """
        if len(parts) == 1:
            return parts[0]
        columns = [
            np.concatenate([getattr(p, name) for p in parts]) if parts else ()
            for name in _COLUMNS
        ]
        return cls(*columns, array_names=array_names, validate=False)

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Vectorized invariants — one pass, once per column set."""
        n = len(self.nominal_time_s)
        for name in _COLUMNS[1:]:
            if len(getattr(self, name)) != n:
                raise TraceError(f"request column {name!r} length mismatch")
        if n == 0:
            return
        if float(self.nominal_time_s[0]) < 0 or (
            n > 1 and np.any(np.diff(self.nominal_time_s) < -_ORDER_TOL)
        ):
            if np.any(self.nominal_time_s < 0):
                raise TraceError("negative request time")
            raise TraceError("requests must be ordered by nominal time")
        if np.any(self.offset < 0):
            raise TraceError("negative request offset")
        if np.any(self.nbytes <= 0):
            raise TraceError("request size must be positive")
        if self.array_id.size and (
            self.array_id.min() < 0 or self.array_id.max() >= len(self.array_names)
        ):
            raise TraceError("request array id out of range")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.nominal_time_s.size)

    @property
    def total_bytes(self) -> int:
        """Sum of request sizes, computed once and cached (reports consult
        this per scheme)."""
        if self._total_bytes is None:
            self._total_bytes = int(self.nbytes.sum()) if len(self) else 0
        return self._total_bytes

    def materialize(self) -> tuple[IORequest, ...]:
        """The object view, built lazily and shared by every trace copy."""
        if self._objects is None:
            names = self.array_names
            self._objects = tuple(
                IORequest(
                    nominal_time_s=t,
                    array=names[a],
                    offset=o,
                    nbytes=nb,
                    is_write=w,
                    nest=ne,
                    iteration=it,
                )
                for t, a, o, nb, w, ne, it in zip(
                    self.nominal_time_s.tolist(),
                    self.array_id.tolist(),
                    self.offset.tolist(),
                    self.nbytes.tolist(),
                    self.is_write.tolist(),
                    self.nest.tolist(),
                    self.iteration.tolist(),
                )
            )
        return self._objects

    def array_name_per_request(self) -> np.ndarray:
        """Resolved array name of every request (object dtype)."""
        return np.asarray(self.array_names, dtype=object)[self.array_id]

    def slice(self, lo: int, hi: int) -> "RequestColumns":
        """Rows ``[lo, hi)`` as a new column set sharing the same buffers.

        The slices are NumPy views, so chunking a stream into windows costs
        O(1) memory per chunk; ``array_names`` (and thus ``array_id``
        meaning) is preserved.  Columns were validated at construction, so
        the view skips re-validation.
        """
        return RequestColumns(
            self.nominal_time_s[lo:hi],
            self.array_id[lo:hi],
            self.offset[lo:hi],
            self.nbytes[lo:hi],
            self.is_write[lo:hi],
            self.nest[lo:hi],
            self.iteration[lo:hi],
            self.array_names,
            validate=False,
        )

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, RequestColumns):
            return NotImplemented
        if len(self) != len(other):
            return False
        return (
            np.array_equal(self.nominal_time_s, other.nominal_time_s)
            and np.array_equal(self.offset, other.offset)
            and np.array_equal(self.nbytes, other.nbytes)
            and np.array_equal(self.is_write, other.is_write)
            and np.array_equal(self.nest, other.nest)
            and np.array_equal(self.iteration, other.iteration)
            # Id spaces may differ (generator vs object construction);
            # compare resolved names, not raw ids.
            and np.array_equal(
                self.array_name_per_request(), other.array_name_per_request()
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self):
        # Drop the materialized-object cache: pickles (the persistent
        # trace cache) carry only the compact arrays.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_objects"
        }

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._objects = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestColumns(n={len(self)}, arrays={self.array_names!r})"


class Trace:
    """A complete replayable trace for one program under one layout.

    Construct either from an :class:`IORequest` sequence (tests, parsers) or
    from pre-validated ``columns`` (the generator and ``with_directives`` —
    the columnar path never touches per-request objects).  ``directives``
    is a :data:`DIRECTIVE_ROW` array (none when omitted), validated by
    :func:`check_directives`.
    """

    __slots__ = ("program_name", "layout", "directives", "total_compute_s", "columns")

    def __init__(
        self,
        program_name: str,
        layout: SubsystemLayout,
        requests: Sequence[IORequest] = (),
        directives: np.ndarray | None = None,
        total_compute_s: float = 0.0,
        *,
        columns: RequestColumns | None = None,
    ):
        if columns is not None:
            if tuple(requests):
                raise TraceError("pass either requests or columns, not both")
            self.columns = columns
        else:
            self.columns = RequestColumns.from_requests(requests)
        self.program_name = program_name
        self.layout = layout
        self.total_compute_s = total_compute_s
        self.directives = (
            np.empty(0, DIRECTIVE_ROW)
            if directives is None
            else check_directives(directives)
        )

    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> tuple[IORequest, ...]:
        """The object view — materialized on first access and shared across
        every directive-bearing copy of this trace."""
        return self.columns.materialize()

    @property
    def num_requests(self) -> int:
        return len(self.columns)

    @property
    def total_bytes(self) -> int:
        return self.columns.total_bytes

    @property
    def request_times(self) -> np.ndarray:
        """Nominal arrival times, no objects involved."""
        return self.columns.nominal_time_s

    @property
    def request_nests(self) -> np.ndarray:
        """Owning nest of every request, no objects involved."""
        return self.columns.nest

    def with_directives(self, directives: np.ndarray) -> "Trace":
        """A copy carrying a directive stream (:data:`DIRECTIVE_ROW`,
        ordered by time) — how the per-scheme planners attach their calls
        to a shared base trace.  The request columns are shared, not
        copied or re-validated."""
        return Trace(
            program_name=self.program_name,
            layout=self.layout,
            directives=directives,
            total_compute_s=self.total_compute_s,
            columns=self.columns,
        )

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.program_name == other.program_name
            and self.layout == other.layout
            and self.total_compute_s == other.total_compute_s
            and np.array_equal(self.directives, other.directives)
            and self.columns == other.columns
        )

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:
        return (
            f"Trace(program_name={self.program_name!r}, "
            f"num_requests={self.num_requests}, "
            f"num_directives={len(self.directives)}, "
            f"total_compute_s={self.total_compute_s!r})"
        )
