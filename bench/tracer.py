"""Outside-in layer tracer for the benchmark.

The tracer wraps the public entry points of each layer module of
``repro`` and records one span per call: ``[layer, start, end, parent]``,
kept in memory.  A span's *self time* is its duration minus the durations
of its direct children; because every pass runs single-threaded under one
root span named :data:`ROOT`, the self times of all layers add up to the
root's duration exactly, and the root's own self time is the unattributed
glue (reported as the ``experiments`` remainder).

Wrapping is done from outside the program:

* a module-level function is wrapped once and the wrapper is bound in
  every loaded ``repro.*`` module namespace that holds the original, so
  ``from x import f`` copies are covered too;
* methods and classmethods are replaced on their class;
* :meth:`repro.trace.stream.TraceStream.iter_chunks` is replaced so that
  each chunk a stream produces is a span of the layer that owns the
  stream's chunk factory (generation, synthesis, or ingestion).

:func:`install` returns a function that restores every original,
including copies bound by modules imported while the tracer was active.
Per-sub-request calls (``Disk.serve``, ``apply_call``) are never wrapped:
their count would make the tracer the dominant cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Iterator

__all__ = [
    "LAYERS",
    "ROOT",
    "STREAM_LAYERS",
    "Tracer",
    "chrome_events",
    "install",
    "layer_table",
    "span_cost_s",
]

#: Name of each pass's root span; its self time is the unattributed rest.
ROOT = "experiments"

#: Layer name -> wrapped entry points (``module:function`` or
#: ``module:Class.method``).  Layer names are ``repro`` module names.
LAYERS: dict[str, tuple[str, ...]] = {
    "disksim.simulate": ("repro.disksim.simulator:simulate",),
    "disksim.plan": (
        "repro.disksim.replay:ReplayPlan.for_trace",
        "repro.disksim.replay:ReplayPlan.for_columns",
    ),
    "trace.generate": (
        "repro.trace.generator:generate_trace",
        "repro.trace.generator:directives_at_positions",
        "repro.trace.synth:synth_trace",
    ),
    "trace.ingest": (
        "repro.trace.ingest:ingest_trace",
        "repro.trace.ingest:stream_ingest",
        "repro.trace.ingest:ingest_fingerprint",
    ),
    "power": ("repro.power.insertion:plan_power_calls",),
    "experiments.table3": ("repro.experiments.table3:misprediction_pct",),
    "cache.load": ("repro.cache:ResultCache.load",),
    "cache.store": ("repro.cache:ResultCache.store",),
    "analysis": (
        "repro.analysis.access:analyze_program",
        "repro.analysis.cycles:compute_timing",
        "repro.analysis.cycles:measured_timing",
        "repro.analysis.cycles:scale_timing",
        "repro.analysis.dap:build_dap",
        "repro.analysis.gapstats:gap_statistics",
        "repro.analysis.gapstats:exploitable_fractions",
        "repro.analysis.idle:idle_gaps_from_intervals",
    ),
    "transform": (
        "repro.transform.pipeline:make_version",
        "repro.transform.tiling:apply_tiling",
        "repro.transform.tiling:apply_tiling_multi",
        "repro.transform.fission:fission_program",
        "repro.transform.pdc:pdc_layout",
        "repro.transform.disk_alloc:allocate_disks",
        "repro.transform.disk_alloc:group_layout",
    ),
    "workloads": ("repro.workloads.registry:build_workload",),
    "controllers.oracle": (
        "repro.controllers.oracle:oracle_decisions",
        "repro.controllers.oracle:decisions_to_directives",
    ),
    "experiments.render": ("repro.experiments.report:ExperimentReport.render",),
}

#: Module of a stream's chunk factory -> the layer its chunks belong to.
STREAM_LAYERS: dict[str, str] = {
    "repro.trace.generator": "trace.generate",
    "repro.trace.synth": "trace.generate",
    "repro.trace.ingest": "trace.ingest",
    "repro.trace.tracefile": "trace.ingest",
}

_DONE = object()


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index or -1]`` per span, in begin order.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()


def _wrap(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return traced


def _timed_chunks(tracer: Tracer, layer: str, it: Iterator) -> Iterator:
    while True:
        idx = tracer.begin(layer)
        try:
            chunk = next(it, _DONE)
        finally:
            tracer.end(idx)
        if chunk is _DONE:
            return
        yield chunk


def _repro_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point of :data:`LAYERS` (and stream chunk
    iteration) so calls record spans on ``tracer``.

    Returns ``restore()``, which puts every original object back — on the
    classes, and in every ``repro.*`` module namespace holding a wrapper,
    including modules first imported while tracing was on.
    """
    from repro.trace.stream import TraceStream

    class_patches: list[tuple[type, str, object]] = []
    wrappers: dict[int, Callable] = {}

    def patch_class(cls: type, attr: str, new) -> None:
        class_patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    for layer, targets in LAYERS.items():
        for target in targets:
            modname, _, qual = target.partition(":")
            mod = importlib.import_module(modname)
            if "." in qual:
                clsname, attr = qual.split(".")
                cls = getattr(mod, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patch_class(cls, attr, classmethod(_wrap(tracer, layer, raw.__func__)))
                else:
                    patch_class(cls, attr, _wrap(tracer, layer, raw))
                continue
            orig = getattr(mod, qual)
            wrapper = _wrap(tracer, layer, orig)
            wrappers[id(wrapper)] = wrapper
            for m in _repro_modules():
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)

    iter_chunks = TraceStream.__dict__["iter_chunks"]

    def traced_iter_chunks(self):
        it = iter_chunks(self)
        layer = STREAM_LAYERS.get(getattr(self._factory, "__module__", None))
        return it if layer is None else _timed_chunks(tracer, layer, it)

    patch_class(TraceStream, "iter_chunks", traced_iter_chunks)

    def restore() -> None:
        for cls, attr, raw in reversed(class_patches):
            setattr(cls, attr, raw)
        for m in _repro_modules():
            for name, value in list(vars(m).items()):
                if id(value) in wrappers and wrappers[id(value)] is value:
                    setattr(m, name, value.__wrapped__)

    return restore


def layer_table(spans: list[list]) -> dict[str, dict]:
    """``{layer: {"calls": n, "self_s": seconds}}`` from one pass's spans.

    Self time is each span's duration minus its direct children's
    durations, so the rows sum to the root spans' total duration.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - covered[i]
    return table


def span_cost_s(n: int = 20_000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""
    tracer = Tracer()

    def noop():
        return None

    traced = _wrap(tracer, "calibration", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    t1 = time.perf_counter()
    for _ in range(n):
        noop()
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)


def chrome_events(passes: list[list[list]]) -> list[dict]:
    """Chrome trace-event ``X`` records, one process per pass, with
    timestamps in microseconds from the pass's first span."""
    events: list[dict] = []
    for pass_no, spans in enumerate(passes):
        if not spans:
            continue
        t0 = spans[0][1]
        for name, start, end, parent in spans:
            events.append({
                "name": name,
                "cat": "layer",
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pass_no,
                "tid": 0,
                "args": {"parent": spans[parent][0] if parent >= 0 else None},
            })
    return events
