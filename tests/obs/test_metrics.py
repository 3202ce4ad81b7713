"""Metrics registry: keys, the disabled gate, counters, gauges and
histogram buckets."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.metrics import (
    DEFAULT_HISTOGRAM_BOUNDS,
    Histogram,
    MetricsRegistry,
    metric_key,
)


# --------------------------------------------------------------------- #
# Keys
# --------------------------------------------------------------------- #
def test_metric_key_sorts_labels():
    assert metric_key("sim.replays") == "sim.replays"
    assert (
        metric_key("sim.replays", {"scheme": "Base", "engine": "auto"})
        == "sim.replays{engine=auto,scheme=Base}"
    )


# --------------------------------------------------------------------- #
# Disabled gate
# --------------------------------------------------------------------- #
def test_disabled_registry_ignores_all_mutators():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.set_gauge("g", 1.0)
    reg.observe("h", 0.5)
    snap = reg.snapshot()
    assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
    assert reg.counter("a") == 0


def test_module_registry_follows_obs_toggle():
    assert not obs.metrics.enabled
    obs.metrics.inc("ignored")
    obs.enable()
    obs.metrics.inc("counted", 2)
    assert obs.metrics.counter("counted") == 2
    assert obs.metrics.counter("ignored") == 0
    obs.disable()
    obs.metrics.inc("counted")
    assert obs.metrics.counter("counted") == 2


# --------------------------------------------------------------------- #
# Counters / gauges / histograms
# --------------------------------------------------------------------- #
def test_counters_accumulate_per_label_set():
    reg = MetricsRegistry()
    reg.enable()
    reg.inc("sim.replays", engine="segmented")
    reg.inc("sim.replays", engine="segmented")
    reg.inc("sim.replays", engine="stepwise")
    assert reg.counter("sim.replays", engine="segmented") == 2
    assert reg.counter("sim.replays", engine="stepwise") == 1


def test_gauges_last_write_wins():
    reg = MetricsRegistry()
    reg.enable()
    reg.set_gauge("jobs", 2)
    reg.set_gauge("jobs", 8)
    assert reg.snapshot()["gauges"] == {"jobs": 8}


def test_histogram_bucket_boundaries():
    h = Histogram(bounds=(1.0, 10.0))
    for v in (0.5, 1.0, 5.0, 10.0, 100.0):
        h.observe(v)
    # <=1.0 gets 0.5 and 1.0 (bisect_left: boundary value lands in its
    # bucket), <=10.0 gets 5.0 and 10.0, overflow gets 100.0
    assert h.buckets == [2, 2, 1]
    assert h.count == 5
    assert h.min == 0.5
    assert h.max == 100.0
    assert h.sum == pytest.approx(116.5)


def test_histogram_default_bounds_cover_replay_scales():
    reg = MetricsRegistry()
    reg.enable()
    reg.observe("wall", 3e-3)
    (h,) = reg.snapshot()["histograms"].values()
    assert tuple(h["bounds"]) == DEFAULT_HISTOGRAM_BOUNDS
    assert sum(h["buckets"]) == 1
