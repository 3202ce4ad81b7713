"""Segmented batch engine ⇔ stepwise reference equivalence.

The segmented replay engine (`simulate(..., engine="segmented")`) must be
*bit-identical* to the per-sub-request reference state machine — same
execution time, energy accounting, per-disk stats, response stream, and
busy intervals — for random programs and for every bundled Table 2
workload under all seven schemes.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.conftest import _assert_results_identical  # noqa: E402
from strategies import programs  # noqa: E402

from repro.analysis.cycles import EstimationModel
from repro.controllers.tpm import ReactiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.replay import ReplayPlan
from repro.disksim.simulator import (
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.experiments.schemes import SCHEME_NAMES, run_schemes, run_workload
from repro.layout.files import default_layout
from repro.trace.generator import TraceOptions, generate_trace
from repro.util.errors import SimulationError
from repro.workloads import all_workloads

ENGINES = ("stepwise", "segmented")

_SLOW_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_suites_identical(ref_suite, other_suite, check):
    assert set(ref_suite.results) == set(other_suite.results)
    for scheme, ref_result in ref_suite.results.items():
        check(other_suite.results[scheme], ref_result)


# --------------------------------------------------------------------- #
# API surface
# --------------------------------------------------------------------- #
def test_unknown_engine_rejected(tiny_program, tiny_layout, small_trace_options):
    trace = generate_trace(tiny_program, tiny_layout, small_trace_options)
    with pytest.raises(SimulationError, match="unknown replay engine"):
        simulate(trace, SubsystemParams(num_disks=4), engine="warp")


# --------------------------------------------------------------------- #
# Property: random programs, all schemes, every engine.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_random_programs_bit_identical(data):
    program = data.draw(programs())
    num_disks = data.draw(st.sampled_from([1, 4]))
    max_req = data.draw(st.sampled_from([128, 4096]))
    layout = default_layout(program.arrays, num_disks=num_disks)
    params = SubsystemParams(num_disks=num_disks)
    options = TraceOptions(max_request_bytes=max_req)
    estimation = EstimationModel(relative_error=0.10)
    suites = {
        eng: run_schemes(
            program, layout, params, options, estimation, engine=eng
        )
        for eng in ENGINES
    }
    _assert_suites_identical(
        suites["stepwise"], suites["segmented"], _assert_results_identical
    )


# --------------------------------------------------------------------- #
# Bundled Table 2 workloads: all seven schemes, every engine.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_bundled_workload_schemes_bit_identical(
    workload, assert_results_identical
):
    suites = {eng: run_workload(workload, engine=eng) for eng in ENGINES}
    assert set(suites["stepwise"].results) == set(SCHEME_NAMES)
    _assert_suites_identical(
        suites["stepwise"], suites["segmented"], assert_results_identical
    )


# --------------------------------------------------------------------- #
# Engine selection and coverage accounting.
# --------------------------------------------------------------------- #
def test_segmented_engine_engages_batch_kernels(phase_program, phase_layout):
    """A directive-free replay of a non-trivial stream must actually run
    on the segmented path with the vector kernel, not fall back."""
    trace = generate_trace(phase_program, phase_layout, TraceOptions())
    reset_replay_coverage()
    simulate(trace, SubsystemParams(num_disks=4), engine="segmented")
    cov = replay_coverage()
    assert cov["replays_segmented"] == 1
    assert cov["replays_stepwise"] == 0
    assert cov["segments_fused"] >= 1
    assert cov["subrequests_vector"] > 0


def test_reactive_tpm_runs_segmented_with_spindowns(
    phase_program, phase_layout
):
    """Reactive TPM's autonomous spin-down is handled in-kernel: the
    segmented engine must take it (not fall back) and reproduce the
    stepwise spin-down count exactly."""
    trace = generate_trace(phase_program, phase_layout, TraceOptions())
    params = SubsystemParams(num_disks=4)
    results = {}
    for eng in ENGINES:
        reset_replay_coverage()
        # A threshold well under the phase program's ~3 s compute gap so
        # the autonomous spin-down actually fires mid-replay.
        ctrl = ReactiveTPM(0.5)
        results[eng] = simulate(trace, params, ctrl, engine=eng)
        cov = replay_coverage()
        if eng == "stepwise":
            assert cov["replays_stepwise"] == 1
        else:
            assert cov["replays_segmented"] == 1
    # The phase program's compute gap exceeds the threshold, so the
    # autonomous path must actually fire.
    assert results["stepwise"].total_spin_downs > 0
    seg, ref = results["segmented"], results["stepwise"]
    assert seg.total_spin_downs == ref.total_spin_downs
    assert seg.execution_time_s == ref.execution_time_s
    assert seg.disk_stats == ref.disk_stats


def test_auto_keeps_directive_dense_replays_segmented():
    """Under the default engine, a directive-dense replay (CMDRPM:
    compiler-inserted level shifts around every exploited gap) stays on
    the segmented engine:
    its power calls apply between vector windows, so the quiescent runs
    between them still reach the vector kernel.  Reactive DRPM, whose
    completion hook observes every sub-request, routes stepwise."""
    workload = all_workloads()[0]
    reset_replay_coverage()
    run_workload(workload, schemes=("Base",))
    base = replay_coverage()
    reset_replay_coverage()
    run_workload(workload, schemes=("Base", "CMDRPM", "DRPM"))
    cov = replay_coverage()
    assert cov["replays_segmented"] == 2
    assert cov["replays_stepwise"] == 1
    # DRPM replays every sub-request of the trace stepwise.
    assert cov["subrequests_stepwise"] == (
        base["subrequests_vector"] + base["subrequests_scalar"]
    )
    assert cov["directive_edits"] > 0
    # Vector sub-requests beyond the Base replay's come from CMDRPM.
    assert cov["subrequests_vector"] > base["subrequests_vector"]


def test_shared_plan_consistent_across_engines(
    tiny_program, tiny_layout, small_trace_options
):
    """One ReplayPlan shared across engines (the suite-engine pattern)
    yields identical results from each."""
    trace = generate_trace(tiny_program, tiny_layout, small_trace_options)
    params = SubsystemParams(num_disks=4)
    plan = ReplayPlan.for_trace(trace)
    ref = simulate(
        trace, params, collect_busy_intervals=True, plan=plan, engine="stepwise"
    )
    out = simulate(
        trace, params, collect_busy_intervals=True, plan=plan,
        engine="segmented",
    )
    assert out.execution_time_s == ref.execution_time_s
    assert out.request_responses == ref.request_responses
    assert out.busy_intervals == ref.busy_intervals
    assert out.disk_stats == ref.disk_stats
