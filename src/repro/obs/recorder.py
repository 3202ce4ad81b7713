"""Structured tracing: lightweight spans with a zero-cost disabled mode.

The span API is the observability layer's first pillar.  Every pipeline
phase wraps itself in a span::

    with obs.span("trace.generate", program=program.name) as sp:
        ...
        sp.set(num_requests=trace.num_requests)

When observability is **off** (the default) ``span()`` returns a single
shared :class:`NullSpan` whose ``__enter__``/``__exit__``/``set`` are
no-ops — the hot-path cost of an instrumented call site is one attribute
load and a dict build, far below the measurement floor of the bench
smoke's 2 % regression gate.  When **on** (``REPRO_OBS=1`` or ``--obs``),
a process-wide :class:`SpanRecorder` captures every finished span — name,
wall-clock start, duration, nesting depth, attributes, pid/tid — in a flat
list of plain dicts that exports losslessly to Chrome trace-event JSON
(:mod:`repro.obs.export`).

Design notes:

* Span *timestamps* come from ``time.time_ns()`` (wall clock, so spans
  line up with the disk timeline tracks in Perfetto); *durations* come
  from ``time.perf_counter_ns()`` (monotonic).
* Nesting is tracked per thread with a ``threading.local`` stack; the
  finished record carries ``parent`` (enclosing span name) and ``depth``
  so tests and tools can validate nesting without re-deriving it from
  time containment.
* Finished-span records append under a lock — the recorder is shared by
  the rare in-process thread users (the engine itself runs in one
  thread).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Callable, Iterator

__all__ = [
    "NullSpan",
    "NULL_SPAN",
    "NullRecorder",
    "NULL_RECORDER",
    "Span",
    "SpanRecorder",
]


class NullSpan:
    """The do-nothing span handed out while observability is disabled."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSpan()"


#: Shared singleton — ``span()`` with a null recorder allocates nothing.
NULL_SPAN = NullSpan()


class NullRecorder:
    """Recorder stand-in whose every operation is a no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullRecorder()"


NULL_RECORDER = NullRecorder()


class Span:
    """One live span; records itself onto the recorder when it closes."""

    __slots__ = ("name", "attrs", "_recorder", "_start_wall_ns", "_start_perf_ns",
                 "parent", "depth", "_tid")
    enabled = True

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self._recorder = recorder
        self.parent: str | None = None
        self.depth = 0
        self._start_wall_ns = 0
        self._start_perf_ns = 0
        self._tid = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        rec = self._recorder
        stack = rec._stack()
        if stack:
            top = stack[-1]
            self.parent = top.name
            self.depth = top.depth + 1
        stack.append(self)
        self._tid = rec._tid()
        self._start_wall_ns = time.time_ns()
        self._start_perf_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_ns = time.perf_counter_ns() - self._start_perf_ns
        rec = self._recorder
        stack = rec._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - exit out of order (leaked span)
            try:
                stack.remove(self)
            except ValueError:
                pass
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        rec._finish(self, dur_ns)
        return False


class SpanRecorder:
    """Process-wide collector of finished spans and instant events.

    Finished spans are plain dicts (``name``, ``ts_us``, ``dur_us``,
    ``pid``, ``tid``, ``depth``, ``parent``, ``args``) so they serialize
    without translation.
    """

    enabled = True

    def __init__(self, clock: Callable[[], int] = time.time_ns):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: dict[int, int] = {}
        self._tid_counter = itertools.count(1)
        self.pid = os.getpid()
        self.created_ns = clock()
        self.spans: list[dict] = []
        self.events: list[dict] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, next(self._tid_counter))
        return tid

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record one instant (zero-duration) event."""
        rec = {
            "name": name,
            "ts_us": self._clock() // 1_000,
            "pid": self.pid,
            "tid": self._tid(),
            "args": attrs,
        }
        with self._lock:
            self.events.append(rec)

    def _finish(self, span: Span, dur_ns: int) -> None:
        rec = {
            "name": span.name,
            "ts_us": span._start_wall_ns // 1_000,
            "dur_us": dur_ns / 1_000,
            "pid": self.pid,
            "tid": span._tid,
            "depth": span.depth,
            "parent": span.parent,
            "args": span.attrs,
        }
        with self._lock:
            self.spans.append(rec)

    # ------------------------------------------------------------------ #
    def find(self, name: str) -> Iterator[dict]:
        """Finished spans with the given name (test/diagnostic helper)."""
        return (s for s in self.spans if s["name"] == name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanRecorder(spans={len(self.spans)}, events={len(self.events)})"
