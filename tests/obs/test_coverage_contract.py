"""The replay-coverage counter contract: one copy, mirrored once.

``REPLAY_COVERAGE`` is a plain module-global dict (a registry indirection
is measurable on the replay hot loops).  Its contract is single-process:
pool workers accumulate their own copy, and :func:`simulate` mirrors each
replay's *delta* into ``repro.obs.metrics`` under ``sim.coverage.*`` when
observability is enabled — the registry is what gets drained and merged
across workers.  These tests pin the contract down: the mirror must equal
the module counters exactly (ingesting totals instead of deltas, or
ingesting a delta twice, double-counts across replays), and with
observability off the module dict must remain the only copy.
"""

from __future__ import annotations

from repro import obs
from repro.controllers.drpm import ReactiveDRPM
from repro.controllers.tpm import ReactiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import (
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, Trace
from repro.util.units import KB


def _trace(num_requests=96, gap_s=1.0):
    layout = SubsystemLayout(
        num_disks=2,
        entries=(FileEntry("A", 1024 * KB, Striping(0, 2, 64 * KB), 0),),
    )
    reqs = tuple(
        IORequest(float(i) * gap_s, "A", (i % 16) * 64 * KB, 8 * KB, False)
        for i in range(num_requests)
    )
    return Trace("t", layout, reqs, (), float(num_requests) * gap_s + 3.0)


def _run_mixed_replays():
    """Several replays over both engines: a vector-heavy segmented replay,
    a forced stepwise one, reactive TPM (segmented, with autonomous
    spin-downs served by ``Disk.serve`` between vector windows), and
    reactive DRPM (routed stepwise: its hook observes every completion)."""
    params = SubsystemParams(num_disks=2)
    simulate(_trace(num_requests=512), params)  # segmented, vector-heavy
    simulate(_trace(), params, engine="stepwise")
    # Gap > threshold: autonomous spin-downs fire.
    simulate(_trace(gap_s=2.0), params, ReactiveTPM(0.5))
    simulate(_trace(), params, ReactiveDRPM(params.drpm))


def test_registry_mirror_equals_module_counters_after_many_replays():
    obs.enable()
    reset_replay_coverage()
    _run_mixed_replays()
    cov = replay_coverage()
    assert cov["replays_segmented"] == 2
    assert cov["replays_stepwise"] == 2
    assert cov["subrequests_vector"] > 0
    assert cov["subrequests_scalar"] > 0
    assert cov["subrequests_stepwise"] > 0
    for key, value in cov.items():
        assert obs.metrics.counter("sim.coverage." + key) == value, key


def test_fallback_reasons_mirrored_once():
    """The only routing fallback left is the reactive-controller one; it is
    counted once per forced replay, and no other reason is recorded."""
    obs.enable()
    reset_replay_coverage()
    _run_mixed_replays()
    assert obs.metrics.counter("sim.fallbacks", reason="reactive-controller") == 1
    fallbacks = [
        key for key in obs.metrics.snapshot()["counters"]
        if key.startswith("sim.fallbacks")
    ]
    assert fallbacks == ["sim.fallbacks{reason=reactive-controller}"]


def test_module_counters_accumulate_without_observability():
    assert not obs.enabled()
    reset_replay_coverage()
    _run_mixed_replays()
    cov = replay_coverage()
    assert cov["replays_segmented"] >= 2
    assert cov["subrequests_stepwise"] > 0
    # No registry copy exists: nothing was mirrored while disabled.
    assert obs.metrics.counter("sim.coverage.replays_segmented") == 0


def test_mirror_resumes_cleanly_after_module_reset():
    """A mid-stream ``reset_replay_coverage()`` (a tool starting a fresh
    measurement) must not corrupt the registry mirror: deltas are taken
    per replay, so later replays keep mirroring their own work."""
    obs.enable()
    reset_replay_coverage()
    params = SubsystemParams(num_disks=2)
    simulate(_trace(), params)
    first = replay_coverage()["subrequests_vector"]
    reset_replay_coverage()
    simulate(_trace(), params)
    second = replay_coverage()["subrequests_vector"]
    assert (
        obs.metrics.counter("sim.coverage.subrequests_vector")
        == first + second
    )
