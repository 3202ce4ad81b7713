"""A block-granularity LRU buffer cache.

Paper §4.1: *"each array reference causes a disk access unless the data is
captured in the buffer cache."*  The trace generator filters every element
access through this cache; only missing lines become I/O requests.  Lines
are allocated on both reads and writes; re-references hit.  (Dirty
write-back traffic on eviction is not modeled — request *counts and timing*
are what drive the power results; see DESIGN.md §4.)

Two implementations of the one LRU policy live here:

* :class:`BufferCache` — the per-line cache over (file, line) keys, whose
  :meth:`~BufferCache.access_extents` takes whole byte extents and returns
  the missing sub-extents, coalesced.  It backs
  :func:`~repro.trace.generator.generate_trace_reference` and is the test
  oracle of the other one;
* :class:`LRUState` — the filter the trace generator runs: integer line
  keys of one occurrence-stream block at a time, with the recency order
  carried between blocks.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..util.errors import TraceError
from ..util.units import KB

__all__ = ["BufferCache", "LRUState"]


class BufferCache:
    """LRU cache over (file, line-index) keys.

    ``capacity_bytes == 0`` disables caching entirely (every access misses),
    which some unit tests use to get fully deterministic request counts.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 8 * KB):
        if capacity_bytes < 0:
            raise TraceError(f"capacity must be >= 0, got {capacity_bytes}")
        if line_bytes <= 0:
            raise TraceError(f"line size must be positive, got {line_bytes}")
        self.line_bytes = line_bytes
        self.capacity_lines = capacity_bytes // line_bytes
        self._lru: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._file_ids: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    def _fid(self, file_name: str) -> int:
        fid = self._file_ids.get(file_name)
        if fid is None:
            fid = len(self._file_ids)
            self._file_ids[file_name] = fid
        return fid

    def _touch(self, key: tuple[int, int]) -> bool:
        """Access one line; return True on hit."""
        lru = self._lru
        if key in lru:
            lru.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if self.capacity_lines > 0:
            lru[key] = None
            if len(lru) > self.capacity_lines:
                lru.popitem(last=False)
        return False

    # ------------------------------------------------------------------ #
    def access_extents(
        self, file_name: str, starts, lengths
    ) -> list[tuple[int, int]]:
        """Filter byte extents of one file through the cache.

        ``starts``/``lengths`` are parallel sequences (NumPy arrays or
        lists) of byte extents.  Returns the **missing** byte extents as
        ``(offset, nbytes)`` pairs, line-aligned and coalesced across
        adjacent misses, in ascending offset order per input extent.
        """
        fid = self._fid(file_name)
        lb = self.line_bytes
        out: list[tuple[int, int]] = []
        append = out.append
        # _touch inlined: this per-line loop is the trace generator's hot
        # spot, and the call overhead dominates the OrderedDict operations.
        lru = self._lru
        cap = self.capacity_lines
        hits = 0
        misses = 0
        run_start = -1
        run_end = -1
        for s, ln in zip(starts, lengths):
            if ln <= 0:
                continue
            first = int(s) // lb
            last = (int(s) + int(ln) - 1) // lb
            for line in range(first, last + 1):
                key = (fid, line)
                if key in lru:
                    lru.move_to_end(key)
                    hits += 1
                    if run_start >= 0:
                        append((run_start, run_end - run_start))
                        run_start = -1
                    continue
                misses += 1
                if cap > 0:
                    lru[key] = None
                    if len(lru) > cap:
                        lru.popitem(last=False)
                lo = line * lb
                if run_start >= 0 and lo == run_end:
                    run_end = lo + lb
                else:
                    if run_start >= 0:
                        append((run_start, run_end - run_start))
                    run_start = lo
                    run_end = lo + lb
        if run_start >= 0:
            append((run_start, run_end - run_start))
        self.hits += hits
        self.misses += misses
        return out

    # ------------------------------------------------------------------ #
    @property
    def occupancy_lines(self) -> int:
        return len(self._lru)

    def contains(self, file_name: str, offset: int) -> bool:
        """Non-mutating membership probe (tests/diagnostics)."""
        fid = self._file_ids.get(file_name)
        if fid is None:
            return False
        return (fid, offset // self.line_bytes) in self._lru

    def clear(self) -> None:
        self._lru.clear()
        self.hits = 0
        self.misses = 0


# ---------------------------------------------------------------------- #
# Block filtering — the vectorized trace generator's cache back end.
# ---------------------------------------------------------------------- #
class LRUState:
    """LRU cache state carried across blocks of an occurrence stream.

    The trace generator feeds its cache-line occurrence stream (one integer
    key per line touch, in program order) through :meth:`filter` one block
    at a time; the recency order survives between blocks, so the
    concatenated miss masks and the hit/miss totals do not depend on where
    the stream was cut.  They equal feeding the stream through a
    :class:`BufferCache` one line at a time — the equivalence tests check
    this over random streams cut at random points.

    Capacity 0 disables caching (every touch misses, no state); otherwise
    each block is an exact LRU replay in a tight loop, seeded with the
    carried order.
    """

    __slots__ = ("capacity_lines", "hits", "misses", "_lru")

    def __init__(self, capacity_lines: int):
        if capacity_lines < 0:
            raise TraceError(f"capacity must be >= 0, got {capacity_lines}")
        self.capacity_lines = capacity_lines
        self.hits = 0
        self.misses = 0
        self._lru: OrderedDict[int, None] = OrderedDict()

    @property
    def occupancy_lines(self) -> int:
        return len(self._lru)

    def filter(self, keys: np.ndarray) -> np.ndarray:
        """Filter one block of the occurrence stream; returns its miss mask
        and advances the carried cache state."""
        if self.capacity_lines == 0:
            self.misses += int(keys.size)
            return np.ones(keys.size, dtype=bool)
        return self._replay(keys)

    def _replay(self, keys: np.ndarray) -> np.ndarray:
        """Exact LRU replay seeded with (and persisting) the carried state."""
        lru = self._lru
        cap = self.capacity_lines
        move_to_end = lru.move_to_end
        popitem = lru.popitem
        miss_positions: list[int] = []
        append = miss_positions.append
        size = len(lru)
        hits = 0
        for i, k in enumerate(keys.tolist()):
            if k in lru:
                move_to_end(k)
                hits += 1
            else:
                append(i)
                lru[k] = None
                if size < cap:
                    size += 1
                else:
                    popitem(last=False)
        self.hits += hits
        self.misses += len(miss_positions)
        miss = np.zeros(keys.size, dtype=bool)
        if miss_positions:
            miss[np.asarray(miss_positions, dtype=np.int64)] = True
        return miss

