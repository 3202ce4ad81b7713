"""The replay-coverage counter contract: one copy, in the module.

``REPLAY_COVERAGE`` is a plain module-global dict (a registry indirection
is measurable on the replay hot loops).  It counts in the one process that
runs the replays, whether observability is on or off, and run manifests
read it through :func:`replay_coverage`; the metrics registry keeps no
second copy.  Routing fallbacks, by contrast, are registry counters.
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
    return Trace("t", layout, reqs, None, float(num_requests) * gap_s + 3.0)


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
    # The module dict is the only copy: the disabled registry holds nothing.
    assert obs.metrics.snapshot()["counters"] == {}
