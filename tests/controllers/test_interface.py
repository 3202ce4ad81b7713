"""Controller interface defaults and oracle directive conversion."""

import numpy as np
import pytest

from repro.analysis.idle import GAP_ROW
from repro.controllers.base import Controller, TimedDirective
from repro.controllers.oracle import decisions_to_directives
from repro.disksim.params import DiskParams, DRPMParams
from repro.disksim.powermodel import PowerModel
from repro.ir.nodes import PowerAction
from repro.power.planner import acting, plan_gaps


@pytest.fixture()
def pm():
    return PowerModel(DiskParams(), DRPMParams())


def _gaps(*rows):
    """A gap table of ``(disk, start_s, end_s, trailing)`` rows."""
    return np.array(list(rows), dtype=GAP_ROW)


def test_base_controller_is_inert(pm):
    c = Controller()
    assert c.name == "Base"
    assert c.auto_spindown_threshold_s is None
    assert list(c.timed_directives()) == []
    # The hook is a no-op and must accept the full signature.
    c.prepare(4, pm)
    c.on_request_complete(None, 0.0, 0.0, 1.0, 4096, "seq")  # type: ignore[arg-type]


def test_decisions_to_directives_tpm(pm):
    dec = plan_gaps(_gaps((2, 10.0, 40.0, False)), pm, "tpm")
    assert acting(dec).all()
    directives = decisions_to_directives(dec, pm)
    assert [d.call.action for d in directives] == [
        PowerAction.SPIN_DOWN,
        PowerAction.SPIN_UP,
    ]
    assert directives[0].time_s == pytest.approx(10.0)
    assert directives[1].time_s == pytest.approx(40.0 - pm.spin_up_time_s)
    assert all(d.call.disk == 2 for d in directives)


def test_decisions_to_directives_drpm_trailing(pm):
    dec = plan_gaps(_gaps((1, 5.0, 60.0, True)), pm, "drpm")
    directives = decisions_to_directives(dec, pm)
    assert len(directives) == 1  # no return transition for a trailing gap
    assert directives[0].call.action is PowerAction.SET_RPM
    assert directives[0].call.rpm == 3000


def test_decisions_to_directives_skips_inert(pm):
    dec = plan_gaps(_gaps((0, 0.0, 0.01, False)), pm, "drpm")
    assert not acting(dec).any()
    assert decisions_to_directives(dec, pm) == []


def test_directives_sorted_across_disks(pm):
    gaps = _gaps((0, 50.0, 80.0, False), (1, 10.0, 40.0, False))
    directives = decisions_to_directives(plan_gaps(gaps, pm, "drpm"), pm)
    times = [d.time_s for d in directives]
    assert times == sorted(times)


def test_timed_directive_is_frozen():
    from repro.ir.nodes import PowerCall

    td = TimedDirective(1.0, PowerCall(PowerAction.SPIN_UP, 0))
    with pytest.raises(Exception):
        td.time_s = 2.0  # type: ignore[misc]
