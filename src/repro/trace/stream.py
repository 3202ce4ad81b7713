"""Streamed traces: request columns arriving one chunk at a time.

:class:`TraceStream` is the bounded-memory counterpart of
:class:`~repro.trace.request.Trace`.  It carries the same replay metadata
(program name, layout, total compute time, a sorted directive stream) but
instead of one whole-trace :class:`~repro.trace.request.RequestColumns` it
yields the request stream as successive column chunks — so a 10⁷-request
replay never materializes the full trace.

Chunks are produced by a zero-argument *factory* (preferred: the stream is
then re-iterable, which multi-scheme replays need) or a plain one-shot
iterable (a second iteration raises).  The chunk boundaries carry no
semantics: the simulator threads per-disk state, seek continuity
(:class:`~repro.disksim.replay.SeekCarry`), accumulated closed-loop delay,
and the timed-directive cursor across them, so any chunking of the same
request sequence replays bit-identically (enforced by the streaming
equivalence tests).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..util.errors import TraceError
from .request import _ORDER_TOL, DirectiveRecord, RequestColumns

__all__ = ["TraceStream"]


class TraceStream:
    """A replayable trace whose requests arrive as column chunks.

    ``chunks`` is either a zero-argument callable returning a fresh
    iterator of :class:`RequestColumns` (re-iterable — each
    :meth:`iter_chunks` call restarts the stream) or a plain iterable
    (single use).  Chunk times must be globally non-decreasing, i.e. the
    concatenation must be a valid request stream; the simulator validates
    nothing here and replays chunks in arrival order.
    """

    __slots__ = (
        "program_name",
        "layout",
        "directives",
        "total_compute_s",
        "_factory",
        "_once",
    )

    def __init__(
        self,
        program_name: str,
        layout,
        total_compute_s: float,
        chunks: Callable[[], Iterable[RequestColumns]] | Iterable[RequestColumns],
        directives: Sequence[DirectiveRecord] = (),
    ):
        self.program_name = program_name
        self.layout = layout
        self.total_compute_s = total_compute_s
        if callable(chunks):
            self._factory: Callable[[], Iterable[RequestColumns]] | None = chunks
            self._once: Iterable[RequestColumns] | None = None
        else:
            self._factory = None
            self._once = chunks
        directives = tuple(directives)
        prev = 0.0
        for d in directives:
            if d.nominal_time_s < prev - _ORDER_TOL:
                raise TraceError("directives must be ordered by nominal time")
            prev = d.nominal_time_s
        self.directives = directives

    # ------------------------------------------------------------------ #
    def iter_chunks(self) -> Iterator[RequestColumns]:
        """A fresh pass over the request chunks."""
        if self._factory is not None:
            return iter(self._factory())
        if self._once is None:
            raise TraceError(
                "this TraceStream was built from a one-shot iterable and has "
                "already been consumed; construct it with a chunk factory to "
                "make it re-iterable"
            )
        once, self._once = self._once, None
        return iter(once)

    def with_directives(self, directives: Sequence[DirectiveRecord]) -> "TraceStream":
        """A copy carrying a (sorted) directive stream, sharing the chunk
        factory — the streamed analogue of :meth:`Trace.with_directives`."""
        ordered = tuple(sorted(directives, key=lambda d: d.nominal_time_s))
        out = TraceStream.__new__(TraceStream)
        out.program_name = self.program_name
        out.layout = self.layout
        out.total_compute_s = self.total_compute_s
        out._factory = self._factory
        out._once = self._once
        out.directives = ordered
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceStream(program={self.program_name!r}, "
            f"directives={len(self.directives)})"
        )
