"""Synthetic scale-out cells for throughput and memory benchmarking.

The paper's six benchmark models top out around 10⁵ requests — plenty for
the figures, but too small to expose how the replay engines scale with
disk count and trace length.  This module builds *scale cells*: synthetic
(disks × requests) configurations whose traces have a known, exact shape.
The benchmark's ``stream_scale`` workload replays the 256-disk ×
10⁷-request cell (``bench/workloads.py``), and the tier-1 tests replay
smaller cells.

A cell's program is a single streaming sweep over one disk-resident array
with 32 KB rows.  With the cache disabled and both the cache line and the
request cap set to the row size, every outer iteration emits **exactly one
32 KB request** — ``num_requests`` iterations, ``num_requests`` requests,
no cache-regime or coalescing surprises — and the default 64 KB striping
rotates consecutive requests across all disks, so every disk stays on the
replay hot path.  Compute cost is ~267 µs/row, a steady I/O cadence with
no multi-second idle gaps: a cell measures request-replay throughput,
not power-management savings.

Cells are deliberately *stream-first*: :meth:`ScaleCell.stream` is O(chunk)
memory no matter how large ``num_requests`` is, while
:meth:`ScaleCell.trace` materializes the whole trace and is only sensible
for the smaller cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..disksim.params import SubsystemParams
from ..ir.builder import ProgramBuilder
from ..ir.program import Program
from ..layout.files import SubsystemLayout, default_layout
from ..trace.generator import TraceOptions, generate_trace, stream_trace
from ..trace.request import Trace
from ..trace.stream import TraceStream
from ..workloads.phases import CLOCK_HZ, io_sweep

__all__ = [
    "ScaleCell",
    "scale_cell",
    "scale_program",
]

#: One request per row: 4096 doubles = 32 KB.
ROW_BYTES: int = 4096 * 8
#: Per-row compute at the paper's 750 MHz clock (~267 µs) — a steady
#: cadence fast enough that the bench is replay-bound, slow enough that
#: nominal times stay strictly increasing and well separated.
_CYC_PER_ROW: float = 0.2e6


def scale_program(num_requests: int) -> Program:
    """A single-sweep program whose trace is exactly ``num_requests``
    32 KB reads (under :func:`scale_cell`'s trace options)."""
    if num_requests <= 0:
        raise ValueError(f"num_requests must be positive, got {num_requests}")
    b = ProgramBuilder(f"scale_{num_requests}", clock_hz=CLOCK_HZ)
    s = b.array("S", (num_requests, ROW_BYTES // 8))
    io_sweep(
        b,
        "scan",
        [[(s, False)]],
        rows=num_requests,
        width=ROW_BYTES // 8,
        cyc_per_row=_CYC_PER_ROW,
    )
    return b.build()


@dataclass(frozen=True)
class ScaleCell:
    """One (disks × requests) point of the scale grid."""

    num_disks: int
    num_requests: int
    chunk_requests: int
    program: Program = field(repr=False)
    layout: SubsystemLayout = field(repr=False)
    options: TraceOptions = field(repr=False)
    params: SubsystemParams = field(repr=False)

    def stream(self) -> TraceStream:
        """The cell's trace as a re-iterable bounded-memory stream."""
        return stream_trace(
            self.program,
            self.layout,
            self.options,
            chunk_requests=self.chunk_requests,
        )

    def trace(self) -> Trace:
        """The cell's whole trace, fully materialized (small cells only)."""
        return generate_trace(self.program, self.layout, self.options)


def scale_cell(
    num_disks: int, num_requests: int, chunk_requests: int = 65536
) -> ScaleCell:
    """Build the scale cell for one grid point.

    Cache disabled + line == request cap == row size ⇒ each sweep
    iteration misses exactly its own row and emits one 32 KB request;
    the 64 KB default striping then spreads requests round-robin over
    ``num_disks`` disks (two consecutive requests per stripe unit).
    """
    program = scale_program(num_requests)
    layout = default_layout(program.arrays, num_disks=num_disks)
    options = TraceOptions(
        buffer_cache_bytes=0,
        cache_line_bytes=ROW_BYTES,
        max_request_bytes=ROW_BYTES,
    )
    params = SubsystemParams(
        num_disks=num_disks,
        buffer_cache_bytes=0,
        max_request_bytes=ROW_BYTES,
    )
    return ScaleCell(
        num_disks=num_disks,
        num_requests=num_requests,
        chunk_requests=chunk_requests,
        program=program,
        layout=layout,
        options=options,
        params=params,
    )
