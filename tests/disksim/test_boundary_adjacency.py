"""Directives on boundary instants ⇔ engine equivalence.

The segmented engine serves quiescent runs of requests in vector windows
and applies power directives between them through the same exact state
machine (``Disk.serve``, ``apply_call``) that serves everything in the
stepwise engine.  The placements most likely to expose a divergence
between the vector windows and that state machine are the boundary
instants themselves: directives tied to a request's issue edge, landing
exactly on a service completion, or chained onto a transition's end edge
(entangled with the in-flight transition).
:func:`strategies.boundary_adjacent_traces` generates exactly those
placements; every engine must stay bit-identical, with and without fault
injection.

Also here: targeted streams for the two reactive controllers — reactive
DRPM with a wide window, which the segmented engine routes to the
stepwise loop (its completion hook observes each sub-request), and reactive TPM on a
short and a long stream, both of which must engage the fire-bounded
vector windows between autonomous spin-downs.
"""

import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.conftest import _assert_results_identical  # noqa: E402
from strategies import boundary_adjacent_traces, fault_configs  # noqa: E402

from repro.controllers.drpm import ReactiveDRPM
from repro.controllers.tpm import ReactiveTPM
from repro.disksim.params import DRPMParams, SubsystemParams
from repro.disksim.replay import ReplayPlan
from repro.disksim.simulator import (
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.request import IORequest, Trace
from repro.util.units import KB

ENGINES = ("stepwise", "segmented")

_SLOW_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- #
# Property: boundary-adjacent directives, optionally under faults.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_boundary_adjacent_directives_bit_identical(data):
    trace, params = data.draw(boundary_adjacent_traces())
    faults = data.draw(st.none() | fault_configs())
    plan = ReplayPlan.for_trace(trace)
    results = {
        eng: simulate(
            trace, params, collect_busy_intervals=True, plan=plan,
            engine=eng, faults=faults,
        )
        for eng in ENGINES
    }
    _assert_results_identical(results["segmented"], results["stepwise"])


# --------------------------------------------------------------------- #
# Targeted streams for the reactive controllers.
# --------------------------------------------------------------------- #
def _uniform_trace(num_disks, num_requests, gap_s, burst_every=0, burst_gap_s=0.0):
    layout = SubsystemLayout(
        num_disks=num_disks,
        entries=(
            FileEntry("A", 4096 * KB, Striping(0, num_disks, 64 * KB), 0),
        ),
    )
    reqs = []
    t = 0.0
    for i in range(num_requests):
        reqs.append(IORequest(t, "A", (i % 16) * 64 * KB, 8 * KB, False))
        t += burst_gap_s if burst_every and (i + 1) % burst_every == 0 else gap_s
    return Trace("gated", layout, tuple(reqs), None, t + 3.0)


def test_drpm_vector_window_path_bit_identical():
    """A wide reactive-DRPM window (256 subs per disk) folds long runs of
    responses and shifts levels at the window boundaries; the segmented
    engine routes it to the stepwise loop and must reproduce the
    stepwise replay exactly."""
    drpm = DRPMParams(window_size=256)
    params = SubsystemParams(num_disks=4, drpm=drpm)
    trace = _uniform_trace(4, 2048, gap_s=0.004)
    plan = ReplayPlan.for_trace(trace)
    results = {
        eng: simulate(
            trace, params, ReactiveDRPM(drpm), collect_busy_intervals=True,
            plan=plan, engine=eng,
        )
        for eng in ENGINES
    }
    _assert_results_identical(results["segmented"], results["stepwise"])


def test_auto_spindown_vector_path_bit_identical():
    """Short and long streams with mid-replay autonomous spin-downs both
    engage the fire-bounded vector windows; spin counts, timing and stats
    must match the stepwise replay exactly.  At 1 ms gaps a window bounded
    by the 0.4 s fire horizon spans ~400 sub-requests, above
    ``VECTOR_MIN_SUBREQUESTS``."""
    params = SubsystemParams(num_disks=4)
    for n in (2048, 9216):
        trace = _uniform_trace(
            4, n, gap_s=0.001, burst_every=512, burst_gap_s=1.0
        )
        plan = ReplayPlan.for_trace(trace)
        results = {}
        for eng in ENGINES:
            reset_replay_coverage()
            results[eng] = simulate(
                trace, params, ReactiveTPM(0.4), plan=plan, engine=eng
            )
            cov = replay_coverage()
            if eng == "segmented":
                assert cov["segments_fused"] >= 1, n
                assert cov["subrequests_vector"] > 0, n
        # The 1 s bursts exceed the 0.4 s threshold: fires must happen.
        assert results["stepwise"].total_spin_downs > 0
        _assert_results_identical(results["segmented"], results["stepwise"])
    