"""Trace generation, ingestion, synthesis, and trace-file I/O (paper §4.1)."""

from .buffercache import BufferCache
from .generator import (
    PLACEMENT_ROW,
    TraceOptions,
    directives_at_positions,
    generate_trace,
    generate_trace_reference,
    placement_calls,
)
from .ingest import (
    IngestScan,
    device_layout,
    ingest_fingerprint,
    ingest_trace,
    scan_trace,
    stream_ingest,
)
from .request import (
    UNKNOWN_POSITION,
    DirectiveRecord,
    IORequest,
    RequestColumns,
    Trace,
)
from .synth import SynthConfig, synth_stream, synth_trace
from .tracefile import format_trace, parse_trace, read_trace, write_trace

__all__ = [
    "BufferCache",
    "PLACEMENT_ROW",
    "TraceOptions",
    "directives_at_positions",
    "generate_trace",
    "generate_trace_reference",
    "placement_calls",
    "IngestScan",
    "device_layout",
    "ingest_fingerprint",
    "ingest_trace",
    "scan_trace",
    "stream_ingest",
    "SynthConfig",
    "synth_stream",
    "synth_trace",
    "DirectiveRecord",
    "IORequest",
    "RequestColumns",
    "Trace",
    "UNKNOWN_POSITION",
    "format_trace",
    "parse_trace",
    "read_trace",
    "write_trace",
]
