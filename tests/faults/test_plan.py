"""Unit tests for the fault-regime layer: rates validation, the severity
shorthand, the CLI spec parser, and FaultPlan's deterministic draws."""

import sys
from pathlib import Path

import pytest

from repro.disksim.replay import ReplayPlan
from repro.faults import (
    DEFAULT_FAULT_SEED,
    FaultConfig,
    FaultPlan,
    FaultRates,
    parse_fault_rates,
)
from repro.ir.nodes import PowerAction, PowerCall
from repro.trace.generator import generate_trace
from repro.util.errors import ConfigError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import directive_rows  # noqa: E402


# --------------------------------------------------------------------- #
# FaultRates
# --------------------------------------------------------------------- #
def test_default_rates_are_null():
    rates = FaultRates()
    assert rates.is_null
    assert FaultConfig().is_null
    assert FaultConfig().seed == DEFAULT_FAULT_SEED


@pytest.mark.parametrize(
    "kwargs",
    [
        {"spinup_jitter_p": -0.1},
        {"spinup_fail_p": 1.5},
        {"request_error_p": 2.0},
        {"deadline_miss_p": -1.0},
        {"spinup_jitter_max_s": -1.0},
        {"request_backoff_s": -0.01},
        {"request_timeout_s": -1.0},
        {"deadline_miss_max_s": -5.0},
        {"spinup_max_retries": -1},
        {"request_max_retries": 0},
    ],
)
def test_invalid_rates_rejected(kwargs):
    with pytest.raises(ConfigError):
        FaultRates(**kwargs)


def test_from_severity_mapping():
    r = FaultRates.from_severity(0.2)
    assert r.spinup_jitter_p == 0.2
    assert r.spinup_fail_p == 0.2
    assert r.deadline_miss_p == 0.2
    assert r.request_error_p == pytest.approx(0.2 / 50.0)
    assert not r.is_null
    assert FaultRates.from_severity(0.0).is_null
    with pytest.raises(ConfigError):
        FaultRates.from_severity(1.5)


# --------------------------------------------------------------------- #
# parse_fault_rates
# --------------------------------------------------------------------- #
def test_parse_explicit_knobs():
    r = parse_fault_rates("deadline_miss_p=0.1, request_error_p=0.002")
    assert r.deadline_miss_p == 0.1
    assert r.request_error_p == 0.002
    assert r.spinup_fail_p == 0.0


def test_parse_severity_shorthand_with_override():
    r = parse_fault_rates("severity=0.2,request_timeout_s=1.0")
    assert r == FaultRates.from_severity(0.2, request_timeout_s=1.0)


def test_parse_int_knobs_stay_int():
    r = parse_fault_rates("request_max_retries=2,spinup_max_retries=1")
    assert r.request_max_retries == 2 and r.spinup_max_retries == 1


@pytest.mark.parametrize(
    "spec", ["bogus=1", "deadline_miss_p", "deadline_miss_p=oops"]
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        parse_fault_rates(spec)


# --------------------------------------------------------------------- #
# FaultPlan draws
# --------------------------------------------------------------------- #
@pytest.fixture()
def replay_plan(tiny_program, tiny_layout, small_trace_options):
    trace = generate_trace(tiny_program, tiny_layout, small_trace_options)
    return ReplayPlan.for_trace(trace)


def test_zero_error_rate_builds_no_request_schedule(replay_plan):
    plan = FaultPlan(FaultConfig(seed=9), replay_plan)
    assert plan.request_flags is None
    assert not plan.sub_errors
    assert not plan.flagged_requests
    assert plan.spinup_fault(0, 0) is None  # zero spin-up rates short-circuit


def test_request_schedule_is_seed_deterministic(replay_plan):
    cfg = FaultConfig(seed=5, rates=FaultRates(request_error_p=0.05))
    a = FaultPlan(cfg, replay_plan)
    b = FaultPlan(cfg, replay_plan)
    assert a.sub_errors == b.sub_errors
    assert a.request_flags == b.request_flags
    assert a.flagged_requests == b.flagged_requests
    assert a.sub_errors  # non-vacuous at this rate/size
    for count in a.sub_errors.values():
        assert 1 <= count <= cfg.rates.request_max_retries


def test_flags_are_consistent_with_sub_errors(replay_plan):
    cfg = FaultConfig(seed=5, rates=FaultRates(request_error_p=0.05))
    plan = FaultPlan(cfg, replay_plan)
    indptr = replay_plan.indptr
    for ri, flagged in enumerate(plan.request_flags):
        subs = range(int(indptr[ri]), int(indptr[ri + 1]))
        assert flagged == any(j in plan.sub_errors for j in subs)
    assert plan.flagged_requests == [
        ri for ri, f in enumerate(plan.request_flags) if f
    ]


def test_spinup_fault_memoized_and_keyed(replay_plan):
    cfg = FaultConfig(
        seed=5, rates=FaultRates(spinup_fail_p=0.6, spinup_jitter_p=0.6)
    )
    plan = FaultPlan(cfg, replay_plan)
    outcomes = {(d, o): plan.spinup_fault(d, o) for d in range(4) for o in range(8)}
    for (d, o), fault in outcomes.items():
        assert plan.spinup_fault(d, o) == fault  # memo: pure per key
        if fault is not None:
            assert fault.failures <= cfg.rates.spinup_max_retries
            assert len(fault.jitter_s) == fault.attempts
    # At these rates, some events must be faulty and keys must differ.
    faulty = [f for f in outcomes.values() if f is not None]
    assert faulty
    assert len(set(outcomes.values())) > 1


# --------------------------------------------------------------------- #
# Deadline-miss delays
# --------------------------------------------------------------------- #
_TOP = 12000


def _directives():
    return directive_rows(
        (1.0, PowerCall(PowerAction.SPIN_UP, disk=0)),
        (2.0, PowerCall(PowerAction.SPIN_DOWN, disk=1)),
        (3.0, PowerCall(PowerAction.SET_RPM, disk=2, rpm=_TOP)),
        (4.0, PowerCall(PowerAction.SET_RPM, disk=3, rpm=3000)),
    )


def test_zero_miss_rate_returns_stream_unchanged(replay_plan):
    plan = FaultPlan(FaultConfig(seed=1), replay_plan)
    out, misses = plan.delay_directives(_directives(), _TOP, "trace")
    assert out.tolist() == _directives().tolist()
    assert misses == ()


def test_certain_miss_delays_only_preactivation(replay_plan):
    rates = FaultRates(deadline_miss_p=1.0, deadline_miss_max_s=5.0)
    plan = FaultPlan(FaultConfig(seed=1, rates=rates), replay_plan)
    out, misses = plan.delay_directives(_directives(), _TOP, "trace")
    # Exactly the spin_up and the ramp-to-top carry deadlines.
    assert {m[0] for m in misses} == {0, 2}
    by_disk = dict(zip(out["disk"].tolist(), out["time"].tolist()))
    assert by_disk[0] >= 1.0
    assert by_disk[2] >= 3.0
    # Down-directives never slip.
    assert by_disk[1] == 2.0
    assert by_disk[3] == 4.0
    for disk, t0, t1 in misses:
        assert t1 >= t0 and t1 - t0 <= rates.deadline_miss_max_s
        assert by_disk[disk] == t1
    # The delayed stream stays time-sorted, and the input is untouched.
    times = out["time"].tolist()
    assert times == sorted(times)
    assert _directives()["time"].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_trace_and_timed_streams_draw_independently(replay_plan):
    """Each kind of stream has its own RNG stream: the same rows slip by
    different amounts as trace and as timed directives."""
    rates = FaultRates(deadline_miss_p=1.0, deadline_miss_max_s=5.0)
    plan = FaultPlan(FaultConfig(seed=1, rates=rates), replay_plan)
    _, trace_misses = plan.delay_directives(_directives(), _TOP, "trace")
    _, timed_misses = plan.delay_directives(_directives(), _TOP, "timed")
    assert [m[:2] for m in trace_misses] == [m[:2] for m in timed_misses]
    assert trace_misses != timed_misses


def test_degraded_counts_cover_window_subrequests(replay_plan):
    times = replay_plan.columns.nominal_time_s
    indptr = replay_plan.indptr
    sub_disk = replay_plan.sub_disk
    t0, t1 = float(times[0]), float(times[min(len(times) - 1, 8)]) + 1e-9
    disk = int(sub_disk[0])
    counts = FaultPlan.degraded_counts(replay_plan, ((disk, t0, t1),))
    assert counts.get(disk, 0) >= 1
    # Empty and inverted windows degrade nothing.
    assert FaultPlan.degraded_counts(replay_plan, ((disk, t0, t0),)) == {}
    assert FaultPlan.degraded_counts(replay_plan, ()) == {}
