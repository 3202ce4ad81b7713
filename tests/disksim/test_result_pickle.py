"""Pickled results carry columns, not object graphs.

A ``SimulationResult`` pickles its busy intervals and per-request
responses as float64 columns and builds the object views on read; a
``CompilerPlan`` holds its placements and decisions as one structured
array each and nothing else.  Round trips must be exact, keep the benchmark's canonical
digest, and unpickle in a bounded number of GC-tracked objects.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.controllers.base import Controller
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.faults import FaultConfig, FaultRates
from repro.ir.nodes import PowerAction, PowerCall
from repro.power.insertion import CompilerPlan, plan_power_calls
from repro.power.planner import DECISION_ROW, GAP_MODES, GapMode, acting
from repro.trace.generator import PLACEMENT_ROW, placement_calls
from repro.trace.synth import SynthConfig, synth_stream, synth_trace

BENCH_DIR = Path(__file__).resolve().parents[2] / "bench"
PROTOCOL = pickle.HIGHEST_PROTOCOL


@pytest.fixture(scope="module")
def result_digest():
    """``bench/workloads.result_digest``: sha256 over every compared field."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(
            "_bench_workloads", BENCH_DIR / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module.result_digest


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=PROTOCOL))


def _config(n: int = 3000) -> SynthConfig:
    return SynthConfig(n, num_disks=4, model="onoff", seed=5)


@pytest.fixture(scope="module")
def results() -> dict:
    """One replay per result shape the cache carries."""
    cfg = _config()
    trace = synth_trace(cfg)
    params = SubsystemParams(num_disks=cfg.num_disks)
    faults = FaultConfig(
        seed=7, rates=FaultRates(spinup_jitter_p=0.5, request_error_p=0.02)
    )
    return {
        "base-busy": simulate(
            trace, params, Controller(), collect_busy_intervals=True
        ),
        "streamed": simulate(synth_stream(cfg), params, Controller()),
        "faulty": simulate(
            trace, params, Controller(), collect_busy_intervals=True,
            faults=faults,
        ),
        "open-loop": simulate(
            trace, params, Controller(), collect_busy_intervals=True,
            open_loop=True,
        ),
        "stepwise": simulate(trace, params, Controller(), engine="stepwise"),
    }


@pytest.mark.parametrize(
    "name", ("base-busy", "faulty", "open-loop", "stepwise", "streamed")
)
def test_result_double_round_trip_is_exact(name, results, result_digest):
    result = results[name]
    digest = result_digest(result)
    once = _round_trip(result)
    twice = _round_trip(once)
    for loaded in (once, twice):
        assert "busy_intervals" not in vars(loaded)
        assert "request_responses" not in vars(loaded)
        assert loaded == result
        assert (loaded.engine, loaded.engine_forced) == (
            result.engine, result.engine_forced
        )
        assert result_digest(loaded) == digest
    # A read view is memoized, never pickled: the payload stays the same.
    assert len(pickle.dumps(once, protocol=PROTOCOL)) == len(
        pickle.dumps(twice, protocol=PROTOCOL)
    )


def test_fresh_result_holds_columns_only():
    result = simulate(
        synth_trace(_config(200)), SubsystemParams(num_disks=4), Controller(),
        collect_busy_intervals=True,
    )
    assert "busy_intervals" not in vars(result)
    assert "request_responses" not in vars(result)
    starts, ends = result.busy_columns[0]
    view = result.busy_intervals
    assert result.busy_intervals is view  # memoized
    assert [(b.start_s, b.end_s) for b in view[0]] == list(
        zip(starts.tolist(), ends.tolist())
    )
    assert all(b.disk == d for d, disk in enumerate(view) for b in disk)
    assert result.request_responses == tuple(result.response_array.tolist())
    assert not result.response_array.flags.writeable
    assert not _round_trip(result).busy_columns[0][0].flags.writeable


def test_views_and_replace_agree_with_columns(results, result_digest):
    base = results["base-busy"]
    rebuilt = dataclasses.replace(base)
    assert rebuilt == base
    assert result_digest(rebuilt) == result_digest(base)
    for (s0, e0), (s1, e1) in zip(base.busy_columns, rebuilt.busy_columns):
        assert s0.tobytes() == s1.tobytes() and e0.tobytes() == e1.tobytes()
    assert results["streamed"].busy_intervals == ()
    assert results["streamed"].request_responses == ()


def test_unpickling_a_base_result_tracks_few_objects():
    cfg = _config(12_000)
    base = simulate(
        synth_trace(cfg), SubsystemParams(num_disks=cfg.num_disks),
        Controller(), collect_busy_intervals=True,
    )
    assert sum(s.size for s, _e in base.busy_columns) >= 10_000
    blob = pickle.dumps(base, protocol=PROTOCOL)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        loaded = pickle.loads(blob)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert after - before < 100
    assert loaded == base


# ---------------------------------------------------------------------- #
# CompilerPlan
# ---------------------------------------------------------------------- #
_ACTIONS = tuple(PowerAction)


def _with_every_variant(plan: CompilerPlan) -> CompilerPlan:
    """``plan`` with placement and decision rows covering every optional."""
    placements = np.array(
        [
            (0, 3, 0.25, _ACTIONS.index(PowerAction.SPIN_DOWN), 2, -1, 5e3),
            (1, 0, 0.0, _ACTIONS.index(PowerAction.SPIN_UP), 2, -1, 0.0),
            (1, 7, 1e-6, _ACTIONS.index(PowerAction.SET_RPM), 3, 6000, 0.0),
        ],
        dtype=PLACEMENT_ROW,
    )
    decisions = np.array(
        [
            (2, 1.5, 9.25, False, GAP_MODES.index(GapMode.STANDBY), -1,
             1.5, 8.0, True, 12.5),
            (3, 4.0, 20.0, True, GAP_MODES.index(GapMode.RPM), 6000,
             4.0, 0.0, False, 3.0),
            (2, 1.5, 9.25, False, GAP_MODES.index(GapMode.NONE), -1,
             1.5, 0.0, False, 0.0),
        ],
        dtype=DECISION_ROW,
    )
    return dataclasses.replace(
        plan, placement_rows=placements, decision_rows=decisions
    )


def test_plan_views_cover_every_optional(phase_program, phase_layout):
    plan = _with_every_variant(
        plan_power_calls(phase_program, phase_layout, SubsystemParams(num_disks=4), "tpm")
    )
    assert placement_calls(plan.placement_rows) == [
        PowerCall(PowerAction.SPIN_DOWN, 2, overhead_cycles=5e3),
        PowerCall(PowerAction.SPIN_UP, 2),
        PowerCall(PowerAction.SET_RPM, 3, rpm=6000),
    ]
    assert acting(plan.decision_rows).tolist() == [True, True, False]
    assert plan.num_calls == 3


def _typed(values) -> list:
    """Every field of some power calls with its exact type."""
    return [
        (f.name, type(getattr(v, f.name)), getattr(v, f.name))
        for v in values
        for f in dataclasses.fields(v)
    ]


@pytest.fixture()
def plans(phase_program, phase_layout) -> list[CompilerPlan]:
    params = SubsystemParams(num_disks=4)
    real = [
        plan_power_calls(phase_program, phase_layout, params, kind)
        for kind in ("tpm", "drpm")
    ]
    return [*real, _with_every_variant(real[0])]


def _same_plan(a: CompilerPlan, b: CompilerPlan) -> bool:
    """Field equality; rows and the DAP hold arrays, so they compare by
    pickle."""
    return (a.kind, a.estimated_timing) == (b.kind, b.estimated_timing) and all(
        pickle.dumps(getattr(a, name)) == pickle.dumps(getattr(b, name))
        for name in ("placement_rows", "decision_rows", "dap")
    )


_PLAN_FIELDS = {f.name for f in dataclasses.fields(CompilerPlan)}


def test_compiler_plan_round_trip_is_lazy_and_exact(plans):
    for plan in plans:
        loaded = _round_trip(plan)
        # Only the two row arrays, the timing and the DAP (plus the kind).
        assert set(vars(loaded)) == _PLAN_FIELDS == {
            "kind", "placement_rows", "decision_rows", "estimated_timing", "dap",
        }
        assert type(loaded.placement_rows) is type(loaded.decision_rows) is np.ndarray
        assert loaded.placement_rows.dtype == PLACEMENT_ROW
        assert loaded.decision_rows.dtype == DECISION_ROW
        assert loaded.num_calls == plan.num_calls
        assert _same_plan(loaded, plan)
        assert _typed(placement_calls(loaded.placement_rows)) == _typed(
            placement_calls(plan.placement_rows)
        )
        again = _round_trip(loaded)
        assert _same_plan(again, plan)
        assert pickle.dumps(loaded, protocol=PROTOCOL) == pickle.dumps(
            _round_trip(plan), protocol=PROTOCOL
        )


def _count_plan_objects() -> int:
    return sum(isinstance(o, PowerCall) for o in gc.get_objects())


def test_unpickling_a_plan_builds_no_placement_objects(plans):
    plan = plans[1]
    assert plan.num_calls and plan.decision_rows.size
    blob = pickle.dumps(plan, protocol=PROTOCOL)
    before = _count_plan_objects()
    loaded = pickle.loads(blob)
    assert _count_plan_objects() == before
    calls = placement_calls(loaded.placement_rows)
    assert calls == placement_calls(plan.placement_rows)
    assert _count_plan_objects() == before + len(calls)
