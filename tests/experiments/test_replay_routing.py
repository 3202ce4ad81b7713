"""Replay routing: which engine and kernel serve the reference workloads.

Deterministic counters stand in for timing gates.  ``auto`` must route
every Table 2 replay except reactive DRPM's to the segmented engine (its
completion hook observes every sub-request, so it replays stepwise), and
the segmented replays must keep their share of sub-requests on the vector
kernel.  A routing regression shows up here as a changed count, whatever
the host's clock says.
"""

from __future__ import annotations

from repro.controllers.oracle import OracleTPM
from repro.controllers.tpm import ReactiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.replay import ReplayPlan
from repro.disksim.simulator import (
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments.scale import scale_cell
from repro.trace.request import RequestColumns, Trace
from repro.trace.synth import SynthConfig, synth_layout, synth_trace

#: Vector-kernel sub-requests of the 36 segmented Table 2 replays, as
#: measured when this floor was set.  It sits below the 141,610 an earlier
#: driver reached: that one re-probed every 128 scalar requests, so after a
#: closed-loop rounding bailout a reactive TPM replay found vector windows
#: again, while a scalar run now lasts until disk state can change.
TABLE2_VECTOR_SUBREQUESTS = 137_037

#: Sub-requests of the six reactive DRPM replays (one per workload), all
#: served stepwise.
TABLE2_DRPM_SUBREQUESTS = 52_416


def test_table2_suites_stay_segmented_and_vectorized():
    reset_replay_coverage()
    ExperimentContext(cache=False).all_suites()
    cov = replay_coverage()
    assert cov["replays_segmented"] == 36
    assert cov["replays_stepwise"] == 6
    assert cov["subrequests_stepwise"] == TABLE2_DRPM_SUBREQUESTS
    assert cov["subrequests_vector"] >= TABLE2_VECTOR_SUBREQUESTS


def test_streamed_256_disk_base_replay_is_all_vector():
    cell = scale_cell(256, 25_000)
    reset_replay_coverage()
    result = simulate(cell.stream(), cell.params)
    cov = replay_coverage()
    assert result.num_requests == 25_000
    assert cov["subrequests_vector"] == 25_000
    assert cov["subrequests_scalar"] == 0
    assert cov["subrequests_stepwise"] == 0


# --------------------------------------------------------------------- #
# The re-probe rule: a scalar run ends only where disk state can change.
# --------------------------------------------------------------------- #
def _gapped_trace(num_requests=20_000, gap_s=60.0):
    """A queued Pareto burst, a ``gap_s`` idle gap (long enough for the
    oracle to spin every disk down and back up), and a second burst."""
    config = SynthConfig(num_requests, num_disks=4, model="pareto", seed=1)
    cols = synth_trace(config).columns
    times = cols.nominal_time_s.copy()
    times[num_requests // 2:] += gap_s
    return Trace(
        program_name="gapped",
        layout=synth_layout(config),
        total_compute_s=0.0,
        columns=RequestColumns(
            times, cols.array_id, cols.offset, cols.nbytes, cols.is_write,
            cols.nest, cols.iteration, cols.array_names,
        ),
    )


def _oracle_replay(trace, params, open_loop):
    base = simulate(
        trace, params, collect_busy_intervals=True, open_loop=open_loop
    )
    reset_replay_coverage()
    result = simulate(trace, params, OracleTPM(base, params), open_loop=open_loop)
    cov = replay_coverage()
    ref = simulate(
        trace, params, OracleTPM(base, params), open_loop=open_loop,
        engine="stepwise",
    )
    assert result.disk_stats == ref.disk_stats
    assert result.execution_time_s == ref.execution_time_s
    assert result.num_directives == 8  # every disk spun down and up
    return cov


def test_open_loop_oracle_replay_bails_once_per_quiescent_run():
    """Open-loop arrivals queue, so the vector kernel bails at the first
    probe of each quiescent run.  The scalar run that follows must last
    until disk state can change (here: the oracle's timed directives), not
    re-probe every fixed number of requests (77 bailouts when a 128-request
    cap did)."""
    cov = _oracle_replay(_gapped_trace(), SubsystemParams(num_disks=4), True)
    assert cov["bailouts"] == 2
    assert cov["subrequests_scalar"] == 19_999


def test_closed_loop_replays_vectorize_after_power_events():
    """In closed loop nothing queues, so the vector kernel must carry the
    burst after the gap too: the timed directives (ITPM) and the
    autonomous spin-downs (reactive TPM) end scalar runs instead of
    pinning the rest of the replay to ``Disk.serve``."""
    trace = _gapped_trace()
    params = SubsystemParams(num_disks=4)
    first_burst = int(ReplayPlan.for_trace(trace).indptr[10_000])
    cov = _oracle_replay(trace, params, False)
    assert cov["subrequests_vector"] > first_burst
    reset_replay_coverage()
    result = simulate(trace, params, ReactiveTPM(params.effective_tpm_threshold_s))
    cov = replay_coverage()
    assert result.total_spin_downs > 0
    assert cov["subrequests_vector"] > first_burst
