"""Per-RPM power/latency/transition models."""

import numpy as np
import pytest

from repro.disksim.params import DiskParams, DRPMParams
from repro.disksim.powermodel import PowerModel
from repro.disksim.replay import SEEK_CODES
from repro.util.errors import ConfigError


@pytest.fixture()
def pm() -> PowerModel:
    return PowerModel(DiskParams(), DRPMParams())


def test_anchored_at_table1(pm):
    assert pm.idle_power_w(15000) == pytest.approx(10.2)
    assert pm.active_power_w(15000) == pytest.approx(13.5)
    assert pm.standby_power_w == pytest.approx(2.5)


def test_power_monotone_in_rpm(pm):
    arr = np.asarray(pm.idle_power_w(np.array(pm.levels, dtype=float)))
    assert (np.diff(arr) > 0).all()
    assert arr[0] > pm.drpm.power_floor_w  # floor never reached at min level
    act = np.asarray(pm.active_power_w(np.array(pm.levels, dtype=float)))
    assert (act > arr).all()


def test_min_level_power_near_floor(pm):
    """At 3000 RPM the spindle term is tiny: idle power ~ the floor, which
    is what makes deep RPM descents worth almost as much as a spin-down."""
    assert pm.idle_power_w(3000) < 2.7


def test_rotational_latency_scales_inverse(pm):
    assert pm.rotational_latency_s(15000) == pytest.approx(2.0e-3)
    assert pm.rotational_latency_s(7500) == pytest.approx(4.0e-3)
    with pytest.raises(ConfigError):
        pm.rotational_latency_s(0)


def test_transfer_rate_scales_linear(pm):
    assert pm.transfer_rate_bps(15000) == pytest.approx(pm.disk.transfer_rate_bps)
    assert pm.transfer_rate_bps(3000) == pytest.approx(pm.disk.transfer_rate_bps / 5)


def test_service_time_components(pm):
    full = pm.service_time_s(0, 15000, SEEK_CODES["full"])
    assert full == pytest.approx(3.4e-3 + 2.0e-3)
    stream = pm.service_time_s(0, 15000, SEEK_CODES["stream"])
    assert stream == pytest.approx(pm.disk.short_seek_s + 2.0e-3)
    seq = pm.service_time_s(0, 15000, SEEK_CODES["seq"])
    assert seq == pytest.approx(2.0e-3)
    with pytest.raises(ConfigError):
        pm.service_time_s(64, 15000, len(SEEK_CODES))
    with pytest.raises(ConfigError):
        pm.service_time_s(-1, 15000)
    with pytest.raises(ConfigError):
        pm.service_time_s(64, 15100)  # not a supported level


def test_service_slower_at_lower_rpm(pm):
    fast = pm.service_time_s(65536, 15000)
    slow = pm.service_time_s(65536, 3000)
    assert slow > 2 * fast


def test_transition_time_and_energy(pm):
    per = pm.drpm.transition_time_per_step_s
    assert pm.transition_time_s(15000, 15000) == 0.0
    assert pm.transition_time_s(15000, 13800) == pytest.approx(per)
    assert pm.transition_time_s(15000, 3000) == pytest.approx(10 * per)
    assert pm.transition_time_s(3000, 15000) == pytest.approx(10 * per)
    # Energy billed at the faster level's idle power (paper §4.1).
    e = pm.transition_energy_j(15000, 3000)
    assert e == pytest.approx(10 * per * 10.2)
    assert pm.transition_energy_j(3000, 15000) == pytest.approx(e)
    assert pm.transition_power_w(4200, 3000) == pytest.approx(pm.idle_power_w(4200))


def test_vectorized_planner_helpers(pm):
    assert pm.idle_power_per_level.shape == (11,)
    assert pm.idle_power_per_level[-1] == pytest.approx(10.2)
    assert pm.steps_from_max.tolist() == list(range(10, -1, -1))


def test_mismatched_params_rejected():
    with pytest.raises(ConfigError):
        PowerModel(DiskParams(rpm=10_000), DRPMParams())
    with pytest.raises(ConfigError):
        PowerModel(DiskParams(), DRPMParams(power_floor_w=11.0))
