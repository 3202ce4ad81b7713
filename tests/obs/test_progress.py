"""ProgressReporter: registry-derived snapshots, formatting, lifecycle."""

from __future__ import annotations

import io

from repro import obs
from repro.obs.progress import ProgressReporter


class _Clock:
    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


def test_sample_empty_while_disabled():
    rep = ProgressReporter(clock=_Clock())
    assert rep.sample() == {}
    assert ProgressReporter.format_line({}) == ""


def test_sample_combines_completed_and_in_flight_requests():
    obs.enable()
    clock = _Clock()
    rep = ProgressReporter(clock=clock, total_requests=10_000)
    obs.metrics.inc("sim.requests", 1000)
    obs.metrics.inc("progress.requests", 600)  # streamed, still in flight
    clock.t += 2.0
    s = rep.sample()
    assert s["requests"] == 1600
    assert s["req_per_s"] == 800.0
    assert "eta_s" in s and s["eta_s"] == (10_000 - 1600) / 800.0

    # The streamed replay finishes: its final sim.requests increment is
    # offset by progress.requests_done, so the total neither spikes nor
    # double counts.
    obs.metrics.inc("sim.requests", 600)
    obs.metrics.inc("progress.requests_done", 600)
    clock.t += 2.0
    s2 = rep.sample()
    assert s2["requests"] == 1600
    assert s2["req_per_s"] == 0.0


def test_sample_surfaces_stream_status():
    obs.enable()
    obs.metrics.inc("progress.chunks", 4)
    obs.metrics.set_gauge("progress.sim_time_s", 12.5)
    s = ProgressReporter(clock=_Clock()).sample()
    assert s["stream"]["chunks"] == 4
    assert s["stream"]["sim_time_s"] == 12.5
    line = ProgressReporter.format_line(s)
    assert "stream 4 chunks" in line


def test_replays_summed_across_label_variants():
    obs.enable()
    obs.metrics.inc("sim.replays", engine="segmented", scheme="Base")
    obs.metrics.inc("sim.replays", engine="stepwise", scheme="TPM")
    s = ProgressReporter(clock=_Clock()).sample()
    assert s["replays"] == 2


def test_thread_lifecycle_emits_final_line():
    obs.enable()
    obs.metrics.inc("sim.requests", 42)
    out = io.StringIO()
    rep = ProgressReporter(interval_s=30.0, stream=out, clock=_Clock())
    with rep:
        pass  # interval never elapses; stop() emits the final line
    assert rep.lines_emitted == 1
    assert "42 req" in out.getvalue()
    # Idempotent stop, restartable start.
    rep.stop()
    assert rep.lines_emitted == 1


def test_thread_stays_silent_when_disabled():
    out = io.StringIO()
    with ProgressReporter(interval_s=30.0, stream=out, clock=_Clock()):
        pass
    assert out.getvalue() == ""
