"""Live run telemetry: periodic progress snapshots off the metrics registry.

:class:`ProgressReporter` is the third observability surface next to spans
and manifests — a lightweight sampler that reads the process-wide
:data:`~repro.obs.metrics.REGISTRY` on a timer and emits one human-readable
line per interval (requests replayed, instantaneous req/s, streamed-replay
chunk progress, and an ETA when a workload total is known).  It *only*
reads the registry — the engines stay untouched, and
when observability is disabled every sample comes back empty and nothing
is printed, preserving the off-by-default zero-cost contract.

The requests total folds two feeds without double counting:

* ``sim.requests`` — requests of *completed* replays (all engines), and
* ``progress.requests`` − ``progress.requests_done`` — the in-flight
  backlog of a streamed replay, which ticks per chunk while the replay
  runs and retires to zero when the replay's own ``sim.requests``
  increment lands.

Sampling is a plain daemon thread with an :class:`threading.Event` timer;
:meth:`ProgressReporter.sample` and :meth:`ProgressReporter.format_line`
are pure functions of registry snapshots so tests can drive them without
threads or wall-clock sleeps.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Mapping, TextIO

from .metrics import REGISTRY

__all__ = ["ProgressReporter"]


def _labelled_sum(counters: Mapping[str, float], name: str) -> float:
    """Sum a counter across all label variants (``name`` + ``name{...}``)."""
    prefix = name + "{"
    return sum(
        v for k, v in counters.items() if k == name or k.startswith(prefix)
    )


class ProgressReporter:
    """Periodic progress lines derived from metrics-registry snapshots.

    Parameters
    ----------
    interval_s:
        Seconds between samples (and output lines).
    stream:
        Where lines go; defaults to ``sys.stderr`` resolved at write time
        so pytest's capture and CLI redirection both behave.
    total_requests:
        Optional workload size hint; enables the ETA column.
    clock:
        Monotonic time source (injectable for tests).
    registry:
        Metrics registry to sample (defaults to the process-wide one).
    """

    def __init__(
        self,
        interval_s: float = 2.0,
        stream: TextIO | None = None,
        total_requests: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        registry=REGISTRY,
    ) -> None:
        self.interval_s = max(0.05, float(interval_s))
        self.stream = stream
        self.total_requests = total_requests
        self._clock = clock
        self._registry = registry
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._t0 = clock()
        self._last_t = self._t0
        self._last_requests = 0.0
        self.lines_emitted = 0

    # ------------------------------------------------------------------ #
    def sample(self) -> dict[str, Any]:
        """One progress snapshot (empty dict while observability is off)."""
        if not self._registry.enabled:
            return {}
        snap = self._registry.snapshot()
        counters = snap["counters"]
        gauges = snap["gauges"]
        now = self._clock()
        in_flight = max(
            0.0,
            counters.get("progress.requests", 0)
            - counters.get("progress.requests_done", 0),
        )
        requests = counters.get("sim.requests", 0) + in_flight
        dt = now - self._last_t
        rate = (requests - self._last_requests) / dt if dt > 0 else 0.0
        self._last_t = now
        self._last_requests = requests
        out: dict[str, Any] = {
            "elapsed_s": now - self._t0,
            "requests": requests,
            "req_per_s": max(0.0, rate),
            "replays": _labelled_sum(counters, "sim.replays"),
        }
        chunks = counters.get("progress.chunks", 0)
        if chunks:
            out["stream"] = {
                "chunks": chunks,
                "in_flight": in_flight,
                "sim_time_s": gauges.get("progress.sim_time_s", 0.0),
            }
        if self.total_requests and out["req_per_s"] > 0:
            remaining = self.total_requests - requests
            if remaining > 0:
                out["eta_s"] = remaining / out["req_per_s"]
        return out

    @staticmethod
    def format_line(s: Mapping[str, Any]) -> str:
        """Render one sample as a single stderr line."""
        if not s:
            return ""
        parts = [
            f"[progress {s['elapsed_s']:7.1f}s]",
            f"{int(s['requests']):>10,} req",
            f"({s['req_per_s']:,.0f} req/s)",
            f"replays {int(s['replays'])}",
        ]
        stream = s.get("stream")
        if stream:
            parts.append(
                f"stream {int(stream['chunks'])} chunks"
                f" @ t={stream['sim_time_s']:.1f}s"
            )
        if "eta_s" in s:
            parts.append(f"eta {s['eta_s']:.0f}s")
        return " | ".join(parts)

    # ------------------------------------------------------------------ #
    def _emit(self) -> None:
        line = self.format_line(self.sample())
        if not line:
            return
        out = self.stream if self.stream is not None else sys.stderr
        print(line, file=out, flush=True)
        self.lines_emitted += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._emit()

    def start(self) -> "ProgressReporter":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._t0 = self._last_t = self._clock()
        self._last_requests = 0.0
        self._thread = threading.Thread(
            target=self._loop, name="repro-progress", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_line: bool = True) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        if final_line:
            self._emit()

    def __enter__(self) -> "ProgressReporter":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
