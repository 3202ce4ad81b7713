"""The compiler insertion pass: plans, placements, and their replay effect."""

import pytest

from repro.analysis.cycles import EstimationModel, compute_timing
from repro.controllers.compiler_directed import CompilerDirected
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.ir.nodes import PowerAction
from repro.power.insertion import plan_power_calls
from repro.power.planner import acting
from repro.trace.generator import TraceOptions, directives_at_positions, generate_trace
from repro.util.errors import AnalysisError
from repro.util.units import KB


@pytest.fixture()
def small_params():
    return SubsystemParams(num_disks=4)


def _measured(program, layout, params, options):
    """The measurement step the paper performs before planning: run the
    program once and observe per-nest wall time including I/O stalls."""
    import numpy as np

    from repro.analysis.cycles import measured_timing

    trace = generate_trace(program, layout, options)
    base = simulate(trace, params)
    nests = np.array([r.nest for r in trace.requests])
    return trace, base, measured_timing(
        program, nests, np.array(base.request_responses)
    )


def test_unknown_kind_rejected(phase_program, phase_layout, small_params):
    with pytest.raises(AnalysisError):
        plan_power_calls(phase_program, phase_layout, small_params, "warp")


def test_drpm_plan_finds_compute_gap(
    phase_program, phase_layout, small_params, small_trace_options
):
    """The 3 s compute phase between the two sweeps must be planned on
    every disk: a set_RPM descent plus a full-speed pre-activation."""
    _, _, meas = _measured(
        phase_program, phase_layout, small_params, small_trace_options
    )
    plan = plan_power_calls(
        phase_program,
        phase_layout,
        small_params,
        "drpm",
        estimation=EstimationModel(relative_error=0.0),
        measured=meas,
    )
    assert acting(plan.decision_rows).sum() >= 4  # the big gap on each disk
    rows = plan.placement_rows
    set_rpm = rows["action"] == tuple(PowerAction).index(PowerAction.SET_RPM)
    downs = rows[set_rpm & (rows["rpm"] != 15000)]
    ups = rows[set_rpm & (rows["rpm"] == 15000)]
    assert downs.size and ups.size
    # Pre-activations precede the matching phase end (nest 2 start).
    assert (ups["nest"] <= 3).all()  # at or before the second sweep nest


def test_tpm_plan_empty_for_short_gaps(
    phase_program, phase_layout, small_params, small_trace_options
):
    """3 s gaps are far below the ~15 s TPM break-even: CMTPM inserts
    nothing — the paper's 'CMTPM could not find any opportunity'."""
    _, _, meas = _measured(
        phase_program, phase_layout, small_params, small_trace_options
    )
    plan = plan_power_calls(
        phase_program, phase_layout, small_params, "tpm",
        estimation=EstimationModel(relative_error=0.0), measured=meas,
    )
    assert plan.num_calls == 0
    assert not acting(plan.decision_rows).any()


def test_placements_are_sorted_and_in_range(
    phase_program, phase_layout, small_params
):
    plan = plan_power_calls(phase_program, phase_layout, small_params, "drpm")
    rows = plan.placement_rows
    keys = rows[["nest", "iteration", "fraction"]].tolist()
    assert keys == sorted(keys)
    for nest, iteration, fraction in keys:
        assert 0 <= nest < len(phase_program.nests)
        trips = phase_program.nests[nest].trip_count
        assert 0 <= iteration <= trips
        assert 0.0 <= fraction <= 1.0


def test_cmdrpm_replay_saves_energy_without_penalty(
    phase_program, phase_layout, small_params, small_trace_options
):
    """End-to-end: the inserted calls reduce energy and leave execution
    time untouched (pre-activation hides every ramp)."""
    trace, base, meas = _measured(
        phase_program, phase_layout, small_params, small_trace_options
    )
    plan = plan_power_calls(
        phase_program, phase_layout, small_params, "drpm",
        estimation=EstimationModel(relative_error=0.0), measured=meas,
    )
    directives = directives_at_positions(
        plan.placement_rows, compute_timing(phase_program)
    )
    cm = simulate(
        trace.with_directives(directives), small_params, CompilerDirected("drpm")
    )
    assert cm.total_energy_j < 0.9 * base.total_energy_j
    assert cm.execution_time_s <= base.execution_time_s * 1.002


def test_estimation_error_degrades_but_stays_safe(
    phase_program, phase_layout, small_params, small_trace_options
):
    """With a large timing error the plan still never slows execution by
    more than the odd mispredicted ramp."""
    trace, base, meas = _measured(
        phase_program, phase_layout, small_params, small_trace_options
    )
    plan = plan_power_calls(
        phase_program, phase_layout, small_params, "drpm",
        estimation=EstimationModel(relative_error=0.3), measured=meas,
    )
    directives = directives_at_positions(
        plan.placement_rows, compute_timing(phase_program)
    )
    cm = simulate(
        trace.with_directives(directives), small_params, CompilerDirected("drpm")
    )
    assert cm.total_energy_j < base.total_energy_j
    assert cm.execution_time_s <= base.execution_time_s * 1.05


def test_measured_timeline_improves_gap_visibility(
    phase_program, phase_layout, small_params, small_trace_options
):
    """Feeding the measured (I/O-inclusive) timeline lets the compiler see
    at least as many exploitable gaps as the compute-only fallback."""
    trace, base, meas = _measured(
        phase_program, phase_layout, small_params, small_trace_options
    )
    est = EstimationModel(relative_error=0.0)
    without = plan_power_calls(
        phase_program, phase_layout, small_params, "drpm", estimation=est,
    )
    with_meas = plan_power_calls(
        phase_program, phase_layout, small_params, "drpm", estimation=est,
        measured=meas,
    )
    assert (
        acting(with_meas.decision_rows).sum() >= acting(without.decision_rows).sum()
    )
