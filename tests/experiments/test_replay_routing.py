"""Replay routing: which engine and kernel serve the reference workloads.

Deterministic counters stand in for timing gates.  ``auto`` must route
every Table 2 replay to the segmented engine, and the segmented engine
must keep its share of sub-requests on the vector kernel.  A routing
regression shows up here as a changed count, whatever the host's clock
says.
"""

from __future__ import annotations

from repro.disksim.simulator import (
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments.scale import scale_cell

#: Vector-kernel sub-requests of the 42 uncached Table 2 replays
#: (6 workloads x 7 schemes), as measured when this floor was set.
TABLE2_VECTOR_SUBREQUESTS = 141_610


def test_table2_suites_stay_segmented_and_vectorized():
    reset_replay_coverage()
    ExperimentContext(jobs=1, cache=False).all_suites()
    cov = replay_coverage()
    assert cov["replays_segmented"] == 42
    assert cov["replays_stepwise"] == 0
    assert cov["subrequests_stepwise"] == 0
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
