"""repro.obs — the pipeline's observability spine.

Three pillars, wired through every stage of the reproduction (analysis ->
DAP -> power-call insertion -> trace generation -> replay -> experiment
suites):

* **structured tracing** — :func:`span` / :func:`event` capture nested
  wall-time spans with attributes; :mod:`repro.obs.export` renders them
  as Chrome trace-event JSON (Perfetto / ``chrome://tracing``);
* **metrics** — the process-wide :data:`metrics` registry
  (:class:`~repro.obs.metrics.MetricsRegistry`) collects counters,
  gauges, and histograms from the simulator, cache, and controllers;
* **run manifests** — :mod:`repro.obs.manifest` emits one JSON record
  per engine invocation (versions, config fingerprint, phase timings,
  metric snapshot, cache/engine stats, host info).

Everything is **off by default**.  The module-level recorder starts as
:data:`~repro.obs.recorder.NULL_RECORDER` and the registry disabled, so
an instrumented call site costs an attribute load and a no-op call, and
a run records nothing (``tests/obs/test_integration.py``).  Switch on
with:

* ``REPRO_OBS=1`` in the environment, or
* ``repro.obs.enable()`` in code, or
* ``--obs`` / ``--trace-out PATH`` on the ``repro-experiments`` CLI.
"""

from __future__ import annotations

import os
from typing import Any

from .metrics import REGISTRY as metrics
from .metrics import Histogram, MetricsRegistry, metric_key
from .progress import ProgressReporter
from .recorder import (
    NULL_RECORDER,
    NULL_SPAN,
    NullRecorder,
    NullSpan,
    Span,
    SpanRecorder,
)

__all__ = [
    "enabled",
    "enable",
    "disable",
    "span",
    "event",
    "get_recorder",
    "set_recorder",
    "metrics",
    "MetricsRegistry",
    "ProgressReporter",
    "Histogram",
    "metric_key",
    "NullRecorder",
    "NullSpan",
    "SpanRecorder",
    "Span",
    "NULL_RECORDER",
    "NULL_SPAN",
    "OBS_ENV_VAR",
]

OBS_ENV_VAR = "REPRO_OBS"
_TRUTHY = {"1", "true", "yes", "on"}

_recorder: NullRecorder | SpanRecorder = NULL_RECORDER


def enabled() -> bool:
    """Is the observability layer currently recording?"""
    return _recorder.enabled


def get_recorder() -> "NullRecorder | SpanRecorder":
    return _recorder


def set_recorder(recorder: "NullRecorder | SpanRecorder") -> None:
    """Install a recorder; the metrics registry gate follows it."""
    global _recorder
    _recorder = recorder
    if recorder.enabled:
        metrics.enable()
    else:
        metrics.disable()


def enable(recorder: SpanRecorder | None = None) -> SpanRecorder:
    """Switch observability on (idempotent); returns the live recorder."""
    global _recorder
    if not isinstance(_recorder, SpanRecorder) or recorder is not None:
        _recorder = recorder or SpanRecorder()
    metrics.enable()
    return _recorder


def disable(reset_metrics: bool = False) -> None:
    """Switch back to the null recorder (existing records are dropped)."""
    global _recorder
    _recorder = NULL_RECORDER
    metrics.disable()
    if reset_metrics:
        metrics.reset()


def span(name: str, **attrs: Any):
    """Open a span on the active recorder (``NULL_SPAN`` when disabled)."""
    return _recorder.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an instant event on the active recorder (no-op when disabled)."""
    _recorder.event(name, **attrs)


def env_requests_obs(environ: "os._Environ[str] | dict[str, str] | None" = None) -> bool:
    """Does the environment ask for observability (``REPRO_OBS`` truthy)?"""
    env = environ if environ is not None else os.environ
    return env.get(OBS_ENV_VAR, "").strip().lower() in _TRUTHY


if env_requests_obs():  # pragma: no cover - exercised via subprocess tests
    enable()
