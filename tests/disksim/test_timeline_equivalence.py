"""Timelines are an engine-independent artifact.

The tentpole invariant: a :class:`TimelineRecorder` attached to any engine
(``stepwise`` / ``segmented``) produces **bit-identical**
``Segment`` streams — states, boundaries, powers, RPMs, *and decision
causes* — because every emission sits at a stats-accrual site and the
accruals themselves are engine-identical.  On top of the timeline, the
:class:`AttributionLedger` must conserve energy: its per-cause buckets
partition the replay's reported :class:`DiskStats` joules exactly.

Three layers of evidence:

* a hypothesis property over :func:`strategies.boundary_adjacent_traces`
  (directives hugging issue/completion/transition edges) with and without
  fault injection;
* the full Table 2 sweep — every workload x every scheme, clean and under
  a seeded fault regime — comparing segment streams across all three
  engines and checking ledger conservation on each;
* the fused vector kernel emits its windows' segments itself: attaching
  a recorder leaves the fused-window count unchanged (coverage counters
  prove the hot path is untouched) and the segments equal the stepwise
  replay's, including a skewed window folded one disk at a time.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import boundary_adjacent_traces, fault_configs  # noqa: E402

from repro.controllers.base import Controller
from repro.controllers.compiler_directed import CompilerDirected
from repro.controllers.drpm import ReactiveDRPM
from repro.controllers.oracle import OracleDRPM, OracleTPM
from repro.controllers.tpm import ReactiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.replay import ReplayPlan
from repro.disksim.simulator import (
    REPLAY_COVERAGE,
    reset_replay_coverage,
    simulate,
)
from repro.disksim.timeline import AttributionLedger, TimelineRecorder
from repro.experiments.schemes import SCHEME_NAMES, run_workload
from repro.faults import FaultConfig, FaultRates
from repro.workloads import WORKLOAD_NAMES, build_workload

ENGINES = ("stepwise", "segmented")

_SLOW_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _segments(rec: TimelineRecorder) -> dict:
    return {d: rec.segments(d) for d in rec.disks}


def _check_ledger(rec: TimelineRecorder, result, params) -> None:
    rec.verify()
    ledger = AttributionLedger.from_recorder(rec, params.disk.power_idle_w)
    ledger.verify_against(rec, result)


# --------------------------------------------------------------------- #
# Property: boundary-adjacent directives, optionally under faults.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_boundary_adjacent_segments_bit_identical(data):
    trace, params = data.draw(boundary_adjacent_traces())
    faults = data.draw(st.none() | fault_configs())
    plan = ReplayPlan.for_trace(trace)
    streams = {}
    for eng in ENGINES:
        rec = TimelineRecorder()
        result = simulate(
            trace, params, plan=plan, engine=eng, faults=faults, recorder=rec
        )
        _check_ledger(rec, result, params)
        streams[eng] = _segments(rec)
    assert streams["segmented"] == streams["stepwise"]


# --------------------------------------------------------------------- #
# The full Table 2 sweep: 6 workloads x 7 schemes x {clean, faulted}.
# --------------------------------------------------------------------- #
_FAULT_REGIME = FaultConfig(
    seed=7,
    rates=FaultRates(
        spinup_jitter_p=0.3,
        spinup_jitter_max_s=0.4,
        spinup_fail_p=0.2,
        deadline_miss_p=0.2,
        deadline_miss_max_s=0.5,
    ),
)


def _scheme_replay_specs(wl, suite, params, faults):
    """(scheme, trace, controller-factory) for every Table 2 scheme.

    Mirrors :func:`repro.experiments.schemes.run_schemes`' dispatch; the
    oracle controllers read the *regime's own* base replay so their timed
    directives are identical inputs to every engine.
    """
    from repro.analysis.cycles import compute_timing
    from repro.trace.generator import directives_at_positions

    trace = suite.base_trace
    base = simulate(
        trace, params, engine="stepwise", faults=faults,
        collect_busy_intervals=True,
    )
    timing = compute_timing(wl.program)

    def cm_trace(scheme):
        return trace.with_directives(
            directives_at_positions(suite.plans[scheme].placement_rows, timing)
        )

    return [
        ("Base", trace, lambda: Controller()),
        ("TPM", trace, lambda: ReactiveTPM(params.effective_tpm_threshold_s)),
        ("ITPM", trace, lambda: OracleTPM(base, params)),
        ("DRPM", trace, lambda: ReactiveDRPM(params.drpm)),
        ("IDRPM", trace, lambda: OracleDRPM(base, params)),
        ("CMTPM", cm_trace("CMTPM"), lambda: CompilerDirected("tpm")),
        ("CMDRPM", cm_trace("CMDRPM"), lambda: CompilerDirected("drpm")),
    ]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize(
    "faults", [None, _FAULT_REGIME], ids=["clean", "faulted"]
)
def test_table2_sweep_segments_bit_identical(workload, faults):
    wl = build_workload(workload)
    params = SubsystemParams()
    suite = run_workload(wl, params=params)  # plans + base trace (clean)
    assert tuple(suite.results) == SCHEME_NAMES
    for scheme, trace, make_ctrl in _scheme_replay_specs(
        wl, suite, params, faults
    ):
        plan = ReplayPlan.for_trace(trace)
        streams = {}
        for eng in ENGINES:
            rec = TimelineRecorder()
            result = simulate(
                trace,
                params,
                make_ctrl(),
                plan=plan,
                engine=eng,
                faults=faults,
                recorder=rec,
            )
            _check_ledger(rec, result, params)
            streams[eng] = _segments(rec)
        assert streams["segmented"] == streams["stepwise"], (
            workload,
            scheme,
        )


# --------------------------------------------------------------------- #
# Causes actually appear (the attribution is not vacuously equal).
# --------------------------------------------------------------------- #
def test_sweep_surfaces_directive_and_fault_causes():
    wl = build_workload("galgel")
    params = SubsystemParams()
    suite = run_workload(wl, params=params)
    from repro.analysis.cycles import compute_timing
    from repro.trace.generator import directives_at_positions

    trace = suite.base_trace.with_directives(
        directives_at_positions(
            suite.plans["CMDRPM"].placement_rows, compute_timing(wl.program)
        )
    )
    rec = TimelineRecorder()
    result = simulate(
        trace,
        params,
        CompilerDirected("drpm"),
        faults=_FAULT_REGIME,
        recorder=rec,
    )
    causes = {
        s.cause for d in rec.disks for s in rec.segments(d) if s.cause
    }
    families = {c.split(":", 1)[0] for c in causes}
    assert "directive" in families
    ledger = AttributionLedger.from_recorder(rec, params.disk.power_idle_w)
    ledger.verify_against(rec, result)
    rolled = ledger.to_dict(rollup_families=True)
    names = [c["cause"] for c in rolled["causes"]]
    assert "directive:*" in names
    assert sum(c["transitions"] for c in rolled["causes"]) > 0


# --------------------------------------------------------------------- #
# A recorder keeps the fused vector kernel in play.
# --------------------------------------------------------------------- #
def _big_uniform_trace(num_requests=600, num_disks=4):
    from repro.layout.files import FileEntry, SubsystemLayout
    from repro.layout.striping import Striping
    from repro.trace.request import IORequest, Trace
    from repro.util.units import KB

    layout = SubsystemLayout(
        num_disks=num_disks,
        entries=(
            FileEntry("A", 4096 * KB, Striping(0, num_disks, 64 * KB), 0),
        ),
    )
    reqs = tuple(
        IORequest(0.01 * i, "A", (i % 16) * 64 * KB, 8 * KB, False)
        for i in range(num_requests)
    )
    return Trace("big", layout, reqs, None, 0.01 * num_requests + 1.0)


def test_recorder_disabled_keeps_fused_vector_path():
    trace = _big_uniform_trace()
    params = SubsystemParams(num_disks=4)
    reset_replay_coverage()
    simulate(trace, params, engine="segmented")
    assert REPLAY_COVERAGE["segments_fused"] > 0
    fused_without = REPLAY_COVERAGE["segments_fused"]

    # With a recorder the fused kernel emits each window's segments from
    # the arrays it folds: the same windows fuse, and the segment stream
    # equals the stepwise replay's.
    reset_replay_coverage()
    rec = TimelineRecorder()
    simulate(trace, params, engine="segmented", recorder=rec)
    assert REPLAY_COVERAGE["segments_fused"] == fused_without
    ref = TimelineRecorder()
    simulate(trace, params, engine="stepwise", recorder=ref)
    assert rec.disks
    assert _segments(rec) == _segments(ref)


def _skewed_trace(num_requests=2048, num_disks=64):
    """Disk 0 takes 15 of every 16 requests; the rest cycle over the
    other 63 disks, so one quiescent window touches every disk while one
    disk holds nearly all of its sub-requests."""
    from repro.layout.files import FileEntry, SubsystemLayout
    from repro.layout.striping import Striping
    from repro.trace.request import IORequest, Trace
    from repro.util.units import KB

    layout = SubsystemLayout(
        num_disks=num_disks,
        entries=(
            FileEntry(
                "A", num_disks * 64 * KB, Striping(0, num_disks, 64 * KB), 0
            ),
        ),
    )
    reqs = tuple(
        IORequest(
            0.01 * i,
            "A",
            (1 + (i // 16) % (num_disks - 1)) * 64 * KB if i % 16 == 0 else 0,
            8 * KB,
            False,
        )
        for i in range(num_requests)
    )
    return Trace("skewed", layout, reqs, None, 0.01 * num_requests + 1.0)


def test_skewed_window_folds_per_disk_bit_identical(assert_results_identical):
    """A window whose padded fold matrix would exceed its memory bound
    folds one disk at a time through the same fused code — busy
    intervals, stats and segments still match the stepwise replay."""
    trace = _skewed_trace()
    params = SubsystemParams(num_disks=64)
    plan = ReplayPlan.for_trace(trace)
    results = {}
    streams = {}
    for eng in ENGINES:
        reset_replay_coverage()
        rec = TimelineRecorder()
        results[eng] = simulate(
            trace, params, plan=plan, engine=eng, recorder=rec,
            collect_busy_intervals=True,
        )
        streams[eng] = _segments(rec)
        if eng == "segmented":
            assert REPLAY_COVERAGE["segments_fused"] >= 1
    assert_results_identical(results["segmented"], results["stepwise"])
    assert streams["segmented"] == streams["stepwise"]
