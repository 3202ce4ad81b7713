"""Disk state machine: service, transitions, autonomous spin-down, and the
energy == sum(power x time) invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.disk import Disk
from repro.disksim.params import DiskParams, DRPMParams
from repro.disksim.powermodel import PowerModel
from repro.disksim.replay import SEEK_CODES
from repro.util.errors import SimulationError


@pytest.fixture()
def pm() -> PowerModel:
    return PowerModel(DiskParams(), DRPMParams())


def _energy_invariants(disk: Disk) -> None:
    """The accounting identities every scenario must satisfy."""
    st_ = disk.stats
    # Residencies partition the disk's accounted timeline.
    assert st_.total_time_s == pytest.approx(disk.cursor_s, abs=1e-9)
    # Energy per state is consistent with its (piecewise-constant) power.
    for state in ("idle", "active", "standby", "spin_down", "spin_up", "rpm_shift"):
        t, e = st_.time_s[state], st_.energy_j[state]
        assert e >= -1e-12
        if t == 0:
            assert e == pytest.approx(0.0, abs=1e-9)


def test_pure_idle_energy(pm):
    d = Disk(0, pm)
    d.finalize(10.0)
    assert d.stats.energy_j["idle"] == pytest.approx(102.0)
    _energy_invariants(d)


def test_serve_full_speed(pm):
    d = Disk(0, pm)
    done = d.serve(1.0, 65536)
    svc = pm.service_time_s(65536, 15000)
    assert done == pytest.approx(1.0 + svc)
    d.finalize(2.0)
    assert d.stats.num_requests == 1
    assert d.stats.bytes_served == 65536
    assert d.stats.time_s["active"] == pytest.approx(svc)
    assert d.stats.energy_j["active"] == pytest.approx(svc * 13.5)
    _energy_invariants(d)


def test_serve_rejects_bad_size(pm):
    with pytest.raises(SimulationError):
        Disk(0, pm).serve(0.0, 0)


def test_serve_seek_classes(pm):
    d = Disk(0, pm)
    t1 = d.serve(0.0, 4096, seek=SEEK_CODES["full"])
    t2 = d.serve(t1, 4096, seek=SEEK_CODES["seq"])
    assert (t2 - t1) == pytest.approx(
        pm.service_time_s(4096, 15000, SEEK_CODES["seq"])
    )


def test_queueing_back_to_back(pm):
    d = Disk(0, pm)
    done1 = d.serve(0.0, 8192)
    done2 = d.serve(0.0, 8192)  # issued at the same instant: queues
    assert done2 == pytest.approx(done1 + pm.service_time_s(8192, 15000))


def test_time_cannot_go_backwards(pm):
    d = Disk(0, pm)
    d.serve(5.0, 4096)
    with pytest.raises(SimulationError):
        d.advance(1.0)


def test_set_rpm_transition_accounting(pm):
    d = Disk(0, pm)
    d.set_rpm(1.0, 12600)
    dur = pm.transition_time_s(15000, 12600)
    d.finalize(10.0)
    assert d.rpm == 12600
    assert d.stats.num_rpm_shifts == 1
    assert d.stats.time_s["rpm_shift"] == pytest.approx(dur)
    assert d.stats.energy_j["rpm_shift"] == pytest.approx(dur * 10.2)
    assert d.stats.time_s["idle"] == pytest.approx(10.0 - dur)
    # Idle split between 15000 (before) and 12600 (after).
    assert d.stats.idle_time_by_rpm[15000] == pytest.approx(1.0)
    assert d.stats.idle_time_by_rpm[12600] == pytest.approx(10.0 - 1.0 - dur)
    _energy_invariants(d)


def test_set_rpm_noop_and_invalid(pm):
    d = Disk(0, pm)
    d.set_rpm(1.0, 15000)  # already there
    assert not d.in_transition
    with pytest.raises(SimulationError):
        d.set_rpm(2.0, 3100)


def test_set_rpm_while_standby_rejected(pm):
    d = Disk(0, pm)
    d.spin_down(0.0)
    d.advance(5.0)
    with pytest.raises(SimulationError):
        d.set_rpm(5.0, 3000)


def test_serve_at_reduced_speed(pm):
    d = Disk(0, pm)
    d.set_rpm(0.0, 3000)
    d.advance(5.0)  # transition long over
    done = d.serve(5.0, 65536)
    assert done - 5.0 == pytest.approx(pm.service_time_s(65536, 3000))
    d.finalize(6.0)
    _energy_invariants(d)


def test_request_waits_for_transition(pm):
    d = Disk(0, pm)
    d.set_rpm(1.0, 13800)  # transition [1.0, 1.0 + step]
    dur = pm.transition_time_s(15000, 13800)
    done = d.serve(1.0, 4096)
    assert done == pytest.approx(1.0 + dur + pm.service_time_s(4096, 13800))


def test_spin_down_and_reactive_spin_up(pm):
    d = Disk(0, pm)
    d.spin_down(0.0)
    d.advance(20.0)
    assert d.standby
    done = d.serve(20.0, 4096)
    # Pays the full 10.9 s spin-up before service — the TPM penalty.
    assert done == pytest.approx(
        20.0 + pm.spin_up_time_s + pm.service_time_s(4096, 15000)
    )
    d.finalize(done)
    assert d.stats.num_spin_downs == 1
    assert d.stats.num_spin_ups == 1
    assert d.stats.energy_j["spin_down"] == pytest.approx(13.0)
    assert d.stats.energy_j["spin_up"] == pytest.approx(135.0)
    assert d.stats.time_s["standby"] == pytest.approx(20.0 - 1.5)
    _energy_invariants(d)


def test_request_during_spin_down_waits_then_spins_up(pm):
    d = Disk(0, pm)
    d.spin_down(0.0)
    done = d.serve(0.5, 4096)  # arrives mid spin-down
    expected = 1.5 + pm.spin_up_time_s + pm.service_time_s(4096, 15000)
    assert done == pytest.approx(expected)


def test_explicit_spin_up_preactivation(pm):
    d = Disk(0, pm)
    d.spin_down(0.0)
    d.spin_up(5.0)  # pre-activation
    done = d.serve(5.0 + pm.spin_up_time_s, 4096)
    # Disk ready exactly at request time: no penalty.
    assert done == pytest.approx(
        5.0 + pm.spin_up_time_s + pm.service_time_s(4096, 15000)
    )


def test_deferred_call_applies_after_transition(pm):
    d = Disk(0, pm)
    d.set_rpm(0.0, 3000)  # 1.0 s ramp with default 0.05 s/step... (10 steps)
    dur = pm.transition_time_s(15000, 3000)
    d.set_rpm(dur / 2, 15000)  # arrives mid-ramp: deferred
    assert d.in_transition
    d.advance(10.0)
    assert d.rpm == 15000
    assert d.stats.num_rpm_shifts == 2
    _energy_invariants(d)


def test_auto_spindown_fires_after_threshold(pm):
    d = Disk(0, pm, auto_spindown_threshold_s=2.0)
    d.finalize(10.0)
    assert d.standby
    assert d.stats.num_spin_downs == 1
    assert d.stats.time_s["idle"] == pytest.approx(2.0)
    assert d.stats.time_s["spin_down"] == pytest.approx(1.5)
    assert d.stats.time_s["standby"] == pytest.approx(10.0 - 3.5)
    _energy_invariants(d)


def test_auto_spindown_rearms_after_service(pm):
    d = Disk(0, pm, auto_spindown_threshold_s=2.0)
    done = d.serve(1.0, 4096)  # activity before the threshold
    d.finalize(done + 10.0)
    # Spun down once, 2 s after the service completed.
    assert d.stats.num_spin_downs == 1
    assert d.stats.num_spin_ups == 0
    assert d.stats.time_s["standby"] == pytest.approx(10.0 - 3.5)
    _energy_invariants(d)


def test_auto_spindown_not_armed_without_threshold(pm):
    d = Disk(0, pm)
    d.finalize(100.0)
    assert not d.standby
    assert d.stats.num_spin_downs == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["serve", "set_rpm", "spin_down", "spin_up", "wait"]),
            st.floats(0.01, 3.0),
            st.integers(0, 10),
        ),
        min_size=1,
        max_size=12,
    ),
    st.booleans(),
)
def test_energy_identity_under_random_scenarios(ops, with_auto):
    """Property: for ANY legal call sequence, the per-state residencies
    partition the disk's timeline and every state's energy is non-negative
    and zero iff its residency is zero."""
    pm = PowerModel(DiskParams(), DRPMParams())
    d = Disk(0, pm, auto_spindown_threshold_s=4.0 if with_auto else None)
    t = 0.0
    for op, dt, level_idx in ops:
        t += dt
        t = max(t, d.cursor_s)
        if op == "serve":
            t = d.serve(t, 4096)
        elif op == "set_rpm":
            d.advance(t)  # autonomous spin-down may have fired by now
            if not d.standby:
                d.set_rpm(t, pm.levels[level_idx])
        elif op == "spin_down":
            d.spin_down(t)
        elif op == "spin_up":
            d.spin_up(t)
        else:
            d.advance(t)
    d.finalize(t + 5.0)
    stats = d.stats
    assert stats.total_time_s == pytest.approx(d.cursor_s, abs=1e-6)
    recomputed = 0.0
    for state in stats.time_s:
        assert stats.energy_j[state] >= -1e-9
        recomputed += stats.energy_j[state]
    assert recomputed == pytest.approx(stats.total_energy_j)
    # Power bounds: total energy between standby-floor and active-ceiling.
    assert stats.total_energy_j <= 13.5 * d.cursor_s + 135.0 * (stats.num_spin_ups + 1)
    assert stats.total_energy_j >= 2.4 * d.cursor_s - 1e-6
