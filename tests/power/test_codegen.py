"""Plan rendering and IR call insertion (paper Figure 2(d) form)."""

import sys
from pathlib import Path

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Loop, PowerAction, PowerCall
from repro.power.codegen import insert_calls_into_nest, render_plan
from repro.util.errors import TransformError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import placement_rows  # noqa: E402


def _prog():
    b = ProgramBuilder("p")
    A = b.array("A", (16, 8))
    with b.nest("i", 0, 16) as i:
        with b.loop("j", 0, 8) as j:
            b.stmt(reads=[A[i, j]], cycles=2)
    with b.nest("k", 0, 4) as k:
        b.stmt(reads=[A[k, 0]], cycles=1)
    return b.build()


def _call(disk=1, rpm=None):
    if rpm:
        return PowerCall(PowerAction.SET_RPM, disk, rpm=rpm)
    return PowerCall(PowerAction.SPIN_DOWN, disk)


def test_render_plan_weaves_calls():
    prog = _prog()
    rows = placement_rows(
        (0, 4, _call(rpm=3000)),
        (0, 12, _call(disk=2, rpm=15000)),
        (1, 0, _call()),
    )
    text = render_plan(prog, rows)
    assert "set_RPM(3000, disk1)  # before iteration 4" in text
    assert "for i in [0, 4): ... body ..." in text
    assert "for i in [4, 12): ... body ..." in text
    assert "for i in [12, 16): ... body ..." in text
    assert "spin_down(disk1)  # before iteration 0" in text


def test_render_plan_fractional_position():
    prog = _prog()
    text = render_plan(prog, placement_rows((0, 3, _call(rpm=4200), 0.5)))
    assert "within iteration 3 (after its accesses)" in text
    assert "for i in [3, 4): ... body continues after the call ..." in text


def test_render_plan_rejects_bad_nest():
    with pytest.raises(TransformError):
        render_plan(_prog(), placement_rows((9, 0, _call())))


def test_render_plan_without_calls_prints_nest():
    text = render_plan(_prog(), placement_rows())
    assert "for i in [0, 16):" in text


def test_insert_calls_peels_loops():
    prog = _prog()
    nest = prog.nest(0)
    nodes = insert_calls_into_nest(
        nest,
        placement_rows((0, 4, _call(rpm=3000)), (0, 12, _call(rpm=15000))),
    )
    kinds = [type(n).__name__ for n in nodes]
    assert kinds == ["Loop", "PowerCall", "Loop", "PowerCall", "Loop"]
    loops = [n for n in nodes if isinstance(n, Loop)]
    assert [(l.lower, l.upper) for l in loops] == [(0, 4), (4, 12), (12, 16)]
    total = sum(l.total_statement_executions() for l in loops)
    assert total == nest.total_statement_executions()


def test_insert_calls_at_edges_and_errors():
    prog = _prog()
    nest = prog.nest(0)
    nodes = insert_calls_into_nest(nest, placement_rows((0, 0, _call())))
    assert isinstance(nodes[0], PowerCall)
    nodes = insert_calls_into_nest(nest, placement_rows((0, 16, _call())))
    assert isinstance(nodes[-1], PowerCall)
    with pytest.raises(TransformError):
        insert_calls_into_nest(nest, placement_rows((0, 17, _call())))
    with pytest.raises(TransformError):
        insert_calls_into_nest(Loop("x", 1, 5, ()), placement_rows((0, 1, _call())))


def test_render_real_plan_end_to_end(phase_program, phase_layout, small_trace_options):
    """A real CMDRPM plan renders with every inserted call present."""
    import numpy as np

    from repro.analysis.cycles import EstimationModel, measured_timing
    from repro.disksim.params import SubsystemParams
    from repro.disksim.simulator import simulate
    from repro.power.insertion import plan_power_calls
    from repro.trace.generator import generate_trace

    params = SubsystemParams(num_disks=4)
    trace = generate_trace(phase_program, phase_layout, small_trace_options)
    base = simulate(trace, params)
    meas = measured_timing(
        phase_program,
        np.array([r.nest for r in trace.requests]),
        np.array(base.request_responses),
    )
    plan = plan_power_calls(
        phase_program, phase_layout, params, "drpm",
        estimation=EstimationModel(relative_error=0.0), measured=meas,
    )
    text = render_plan(phase_program, plan.placement_rows)
    assert text.count("set_RPM") == plan.num_calls
