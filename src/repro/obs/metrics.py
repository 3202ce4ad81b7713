"""Metrics registry: counters, gauges, and histograms.

The observability layer's second pillar.  The simulator, the result cache,
the trace generator, and the controllers' replay epilogue all register
measurements here:

* ``cache.hits`` / ``cache.misses`` — persistent result-cache outcomes;
* ``sim.replays{engine=...,scheme=...}`` — engine-selection counts,
  including the forced-fallback reasons (``sim.fallbacks{reason=...}``);
* ``sim.subrequests{rpm=...}`` — requests served per DRPM level;
* ``trace.cache_hits`` / ``trace.cache_misses`` — buffer-cache behaviour
  during trace generation (hit ratio = hits / (hits + misses));
* ``sim.replay_wall_s{scheme=...}`` — per-scheme replay latency
  histograms.

Metric keys are flat strings — ``name`` or ``name{k=v,...}`` with labels
sorted — so a snapshot is plain JSON.  The registry lives in the one
process that runs the experiments; its lock exists because
:class:`~repro.obs.progress.ProgressReporter` samples it from a thread.

The registry is **disabled by default**: every mutator starts with a
single ``enabled`` test and returns, keeping the off cost of an
instrumented call site to roughly a function call.  The truly hot loops
(per-sub-request service) never call into the registry at all — the
replay driver batches its increments per replay.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Mapping

__all__ = [
    "DEFAULT_HISTOGRAM_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "metric_key",
]

#: Log-spaced seconds, tuned for replay/suite wall times (5 µs .. 100 s).
DEFAULT_HISTOGRAM_BOUNDS: tuple[float, ...] = (
    5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
    1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0,
)


def metric_key(name: str, labels: Mapping[str, Any] | None = None) -> str:
    """Canonical flat key: ``name`` or ``name{k1=v1,k2=v2}`` (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bound histogram with exact count/sum/min/max side channels."""

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_HISTOGRAM_BOUNDS):
        self.bounds = tuple(bounds)
        #: ``buckets[i]`` counts observations ``<= bounds[i]``; the final
        #: slot is the overflow bucket (``> bounds[-1]``).
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Process-wide named counters/gauges/histograms.

    All mutators are no-ops until :meth:`enable` — call sites stay
    unconditional and cheap.  Readers (:meth:`snapshot`) work either way.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a counter (created at zero on first touch)."""
        if not self.enabled:
            return
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into a histogram."""
        if not self.enabled:
            return
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: Any) -> float:
        """Current value of one counter (0 when never touched)."""
        return self._counters.get(metric_key(name, labels), 0)

    def snapshot(self) -> dict:
        """JSON-ready copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(enabled={self.enabled}, "
            f"counters={len(self._counters)}, gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )


#: The process-wide registry every instrumented module shares.
REGISTRY = MetricsRegistry()
