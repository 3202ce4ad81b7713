"""ReplayPlan: the precomputed striping fast path must reproduce the old
per-replay computation exactly, on a mixed read/write trace."""

import numpy as np
import pytest

from repro.analysis.cycles import EstimationModel
from repro.controllers.drpm import ReactiveDRPM
from repro.disksim.params import SubsystemParams
from repro.disksim.replay import SEEK_CLASSES, ReplayPlan
from repro.disksim.simulator import simulate
from repro.trace.generator import generate_trace
from repro.trace.request import DIRECTIVE_ROW
from repro.util.errors import SimulationError


@pytest.fixture()
def mixed_trace(tiny_program, tiny_layout, small_trace_options):
    """tiny_program's first nest writes B while reading A — a genuinely
    mixed read/write stream."""
    trace = generate_trace(tiny_program, tiny_layout, small_trace_options)
    kinds = {r.kind for r in trace.requests}
    assert len(kinds) > 1, "fixture must exercise reads and writes"
    return trace


def test_plan_matches_per_replay_computation(mixed_trace):
    """Regression: every request's slice of the CSR columns equals what a
    per-request replay loop computes — the striping fan-out via
    layout.striping(...).per_disk_bytes(...) and the seek-class code via
    the per-disk stream-tracking state machine."""
    plan = ReplayPlan.for_trace(mixed_trace)
    layout = mixed_trace.layout
    assert plan.columns is mixed_trace.columns
    assert plan.num_requests == len(mixed_trace.requests)
    assert plan.sub_seek.dtype == np.int8
    indptr = plan.indptr.tolist()
    sub_disk = plan.sub_disk.tolist()
    sub_nbytes = plan.sub_nbytes.tolist()
    sub_seek = plan.sub_seek.tolist()
    num_disks = layout.num_disks
    last_array = [None] * num_disks
    last_offset = [-1] * num_disks
    stream_ends = [dict() for _ in range(num_disks)]
    seen_seeks = set()
    for i, req in enumerate(mixed_trace.requests):
        subs = range(indptr[i], indptr[i + 1])
        old = layout.striping(req.array).per_disk_bytes(req.offset, req.nbytes)
        assert [(sub_disk[j], sub_nbytes[j]) for j in subs] == sorted(old.items())
        assert sum(sub_nbytes[j] for j in subs) == req.nbytes
        end = req.offset + req.nbytes
        for j in subs:
            disk_id = sub_disk[j]
            if (
                last_offset[disk_id] == req.offset
                and last_array[disk_id] == req.array
            ):
                expect = "seq"
            elif stream_ends[disk_id].get(req.array) == req.offset:
                expect = "stream"
            else:
                expect = "full"
            assert SEEK_CLASSES[sub_seek[j]] == expect
            seen_seeks.add(expect)
            last_array[disk_id] = req.array
            last_offset[disk_id] = end
            stream_ends[disk_id][req.array] = end
    assert indptr[-1] == len(sub_disk)
    assert "full" in seen_seeks  # the trace must exercise real seeks


def test_simulate_with_and_without_plan_identical(
    mixed_trace, assert_results_identical
):
    params = SubsystemParams(num_disks=mixed_trace.layout.num_disks)
    plan = ReplayPlan.for_trace(mixed_trace)
    for make_ctrl in (lambda: None, lambda: ReactiveDRPM(params.drpm)):
        implicit = simulate(
            mixed_trace, params, make_ctrl(), collect_busy_intervals=True
        )
        explicit = simulate(
            mixed_trace,
            params,
            make_ctrl(),
            collect_busy_intervals=True,
            plan=plan,
        )
        assert_results_identical(implicit, explicit)


def test_plan_shared_across_directive_bearing_traces(mixed_trace):
    """with_directives() shares the request columns, so one plan serves
    every scheme replay of a suite."""
    plan = ReplayPlan.for_trace(mixed_trace)
    derived = mixed_trace.with_directives(np.empty(0, DIRECTIVE_ROW))
    assert plan.matches(derived)


def test_mismatched_plan_rejected(mixed_trace, phase_program, phase_layout,
                                  small_trace_options):
    other = generate_trace(phase_program, phase_layout, small_trace_options)
    plan = ReplayPlan.for_trace(other)
    params = SubsystemParams(num_disks=mixed_trace.layout.num_disks)
    with pytest.raises(SimulationError):
        simulate(mixed_trace, params, plan=plan)


def test_dropped_plan_frees_its_derived_views_without_a_collection(mixed_trace):
    """A replay caches list views on its plan; they must go when the plan
    goes, by reference counting alone — a plan/view cycle would hold every
    finished replay's per-sub-request lists until the next collection."""
    import gc

    from repro.disksim.simulator import _PlanGeometry

    def live_geometries() -> int:
        return sum(isinstance(o, _PlanGeometry) for o in gc.get_objects())

    gc.collect()
    before = live_geometries()
    gc.disable()
    try:
        plan = ReplayPlan.for_trace(mixed_trace)
        simulate(mixed_trace, SubsystemParams(num_disks=4), plan=plan)
        assert live_geometries() == before + 1
        del plan
        assert live_geometries() == before
    finally:
        gc.enable()
