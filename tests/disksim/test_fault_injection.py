"""Disk-level fault mechanics: spin-up chains, retry/timeout service,
pending directives across faulty transitions, and the silent-stall audit.

These tests drive :class:`repro.disksim.disk.Disk` directly with a stub
fault plan, so every injected event is exact (no RNG) and each state
machine property is checked in isolation from the replay engines.
"""

import pytest

from repro.disksim.disk import Disk
from repro.disksim.replay import SEEK_CODES
from repro.faults import FaultConfig, FaultRates, SpinUpFault
from repro.util.errors import SimulationError


class _StubPlan:
    """Minimal stand-in for FaultPlan: fixed spin-up outcome, real rates."""

    def __init__(self, fault=None, rates=None):
        self.config = FaultConfig(rates=rates or FaultRates())
        self._fault = fault
        self.calls = []

    def spinup_fault(self, disk_id, ordinal):
        self.calls.append((disk_id, ordinal))
        return self._fault


def _standby_disk(power_model, plan):
    """A disk that has completed a spin-down (next wake is a fault target)."""
    disk = Disk(0, power_model, faults=plan)
    disk.spin_down(0.0)
    disk.advance(power_model.spin_down_time_s + 1.0)
    assert disk.standby and not disk.in_transition
    return disk


# --------------------------------------------------------------------- #
# Spin-up failure chains
# --------------------------------------------------------------------- #
def test_spinup_failure_chain_bounded_and_accounted(power_model):
    fault = SpinUpFault(failures=2, jitter_s=(0.3, 0.0, 0.7))
    plan = _StubPlan(fault=fault)
    disk = _standby_disk(power_model, plan)
    t0 = disk.cursor_s
    disk.spin_up(t0)
    disk.advance(t0 + 1000.0)

    assert disk.stats.num_spinup_failures == 2
    # Each attempt counts as a spin-up (three transitions ran).
    assert disk.stats.num_spin_ups == 3
    assert not disk.standby and not disk.in_transition
    expected_ready = t0 + 3 * power_model.spin_up_time_s + 0.3 + 0.7
    assert disk.ready_s == pytest.approx(expected_ready)
    # One event, one draw — the chain is not re-drawn per attempt.
    assert plan.calls == [(0, 0)]


def test_spinup_jitter_only_stretches_single_attempt(power_model):
    fault = SpinUpFault(failures=0, jitter_s=(1.25,))
    disk = _standby_disk(power_model, _StubPlan(fault=fault))
    t0 = disk.cursor_s
    disk.spin_up(t0)
    assert disk.stats.num_spinup_failures == 0
    assert disk.ready_s == pytest.approx(
        t0 + power_model.spin_up_time_s + 1.25
    )


def test_spinup_ordinals_advance_per_event(power_model):
    """Every spin-up *event* (not attempt) gets the next ordinal, so the
    plan's (disk, ordinal) keying is stable across engines."""
    plan = _StubPlan(fault=None)
    disk = _standby_disk(power_model, plan)
    disk.spin_up(disk.cursor_s)
    disk.advance(disk.cursor_s + 100.0)
    disk.spin_down(disk.cursor_s)
    disk.advance(disk.cursor_s + 100.0)
    # Second wake comes from serve's reactive path — same keying.
    disk.serve(disk.cursor_s + 1.0, 4096)
    assert plan.calls == [(0, 0), (0, 1)]


def test_clean_event_takes_unfaulted_path(power_model):
    """fault=None from the plan must reproduce the no-faults timeline."""
    faulted = _standby_disk(power_model, _StubPlan(fault=None))
    clean = _standby_disk(power_model, None)
    t0 = faulted.cursor_s
    assert clean.cursor_s == t0
    a = faulted.serve(t0 + 0.5, 4096)
    b = clean.serve(t0 + 0.5, 4096)
    assert a == b
    assert faulted.stats == clean.stats


# --------------------------------------------------------------------- #
# Transient request errors: backoff, retry, timeout
# --------------------------------------------------------------------- #
def test_serve_faulty_retries_with_backoff(power_model):
    rates = FaultRates(
        request_error_p=0.01, request_backoff_s=0.01, request_timeout_s=100.0
    )
    plan = _StubPlan(rates=rates)
    disk = Disk(0, power_model, faults=plan)
    ref = Disk(0, power_model)
    clean_done = ref.serve(1.0, 4096)
    done = disk.serve_faulty(1.0, 4096, SEEK_CODES["full"], errors=2)
    svc = clean_done - 1.0
    # attempt0 ends at clean_done; retry 1 at +0.01, retry 2 at +0.02.
    assert done == pytest.approx(clean_done + 0.01 + svc + 0.02 + svc)
    assert disk.stats.num_request_errors == 2
    assert disk.stats.num_request_retries == 2
    assert disk.stats.num_request_timeouts == 0


def test_serve_faulty_times_out(power_model):
    rates = FaultRates(
        request_error_p=0.01, request_backoff_s=0.01, request_timeout_s=0.0
    )
    plan = _StubPlan(rates=rates)
    disk = Disk(0, power_model, faults=plan)
    ref = Disk(0, power_model)
    clean_done = ref.serve(1.0, 4096)
    done = disk.serve_faulty(1.0, 4096, SEEK_CODES["full"], errors=3)
    # The first retry would already start past the (zero) timeout: the
    # chain is abandoned at the first attempt's completion.
    assert done == clean_done
    assert disk.stats.num_request_errors == 1
    assert disk.stats.num_request_timeouts == 1
    assert disk.stats.num_request_retries == 0


# --------------------------------------------------------------------- #
# Directives arriving mid-chain, and the stall audit
# --------------------------------------------------------------------- #
def test_pending_rpm_directive_survives_faulty_chain(power_model):
    """A set_RPM landing mid-spin-up must take effect after the *whole*
    failure chain drains — late, but never lost, never deadlocked."""
    low = power_model.levels[0]
    assert low != power_model.disk.rpm
    fault = SpinUpFault(failures=2, jitter_s=(0.0, 0.0, 0.0))
    disk = _standby_disk(power_model, _StubPlan(fault=fault))
    t0 = disk.cursor_s
    disk.spin_up(t0)
    disk.set_rpm(t0 + 0.1, int(low))  # mid-transition: parks as pending
    disk.advance(t0 + 1000.0)
    assert not disk.standby and not disk.in_transition
    assert disk.rpm == low
    assert disk.stats.num_spin_ups == 3


def test_request_waits_out_faulty_chain(power_model):
    fault = SpinUpFault(failures=3, jitter_s=(0.5, 0.5, 0.5, 0.0))
    disk = _standby_disk(power_model, _StubPlan(fault=fault))
    t0 = disk.cursor_s
    done = disk.serve(t0 + 0.25, 4096)
    chain_end = t0 + 0.25 + 4 * power_model.spin_up_time_s + 1.5
    assert done > chain_end
    assert disk.stats.num_spinup_failures == 3


def test_serve_detects_wedged_transition_queue(power_model, monkeypatch):
    """If a standby disk's wake path stops making progress, serve must
    raise a diagnostic SimulationError instead of spinning silently."""
    disk = Disk(0, power_model)
    disk.spin_down(0.0)
    disk.advance(power_model.spin_down_time_s + 1.0)
    monkeypatch.setattr(
        disk.__class__, "_start_spin_up", lambda self, t, cause="": None
    )
    with pytest.raises(SimulationError, match="stalled"):
        disk.serve(disk.cursor_s + 1.0, 4096)
