"""Controller interface defaults and oracle directive conversion."""

import numpy as np
import pytest

from repro.analysis.idle import GAP_ROW
from repro.controllers.base import Controller
from repro.controllers.oracle import decisions_to_directives
from repro.disksim.params import DiskParams, DRPMParams
from repro.disksim.powermodel import PowerModel
from repro.disksim.replay import SEEK_CODES
from repro.power.planner import acting, plan_gaps
from repro.trace.request import (
    ACT_SET_RPM,
    ACT_SPIN_DOWN,
    ACT_SPIN_UP,
    DIRECTIVE_ROW,
    check_directives,
)


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
    timed = c.timed_directives()
    assert timed.dtype == DIRECTIVE_ROW and timed.size == 0
    # The hook is a no-op and must accept the full signature.
    c.prepare(4, pm)
    c.on_request_complete(None, 0.0, 0.0, 1.0, 4096, SEEK_CODES["seq"])  # type: ignore[arg-type]


def test_decisions_to_directives_tpm(pm):
    dec = plan_gaps(_gaps((2, 10.0, 40.0, False)), pm, "tpm")
    assert acting(dec).all()
    directives = decisions_to_directives(dec, pm)
    assert directives["action"].tolist() == [ACT_SPIN_DOWN, ACT_SPIN_UP]
    assert directives["time"][0] == pytest.approx(10.0)
    assert directives["time"][1] == pytest.approx(40.0 - pm.spin_up_time_s)
    assert directives["disk"].tolist() == [2, 2]
    assert directives["rpm"].tolist() == [-1, -1]


def test_decisions_to_directives_drpm_trailing(pm):
    dec = plan_gaps(_gaps((1, 5.0, 60.0, True)), pm, "drpm")
    directives = decisions_to_directives(dec, pm)
    assert directives.size == 1  # no return transition for a trailing gap
    assert directives["action"][0] == ACT_SET_RPM
    assert directives["rpm"][0] == 3000


def test_decisions_to_directives_skips_inert(pm):
    dec = plan_gaps(_gaps((0, 0.0, 0.01, False)), pm, "drpm")
    assert not acting(dec).any()
    directives = decisions_to_directives(dec, pm)
    assert directives.dtype == DIRECTIVE_ROW and directives.size == 0


def test_directives_sorted_across_disks(pm):
    """The rows come down-then-up per decision, in decision (disk-major)
    order; the simulator's one stable sort orders them across disks."""
    gaps = _gaps((0, 50.0, 80.0, False), (1, 10.0, 40.0, False))
    directives = decisions_to_directives(plan_gaps(gaps, pm, "drpm"), pm)
    assert directives["disk"].tolist() == [0, 0, 1, 1]
    assert directives["rpm"][1] == directives["rpm"][3] == pm.disk.rpm
    ordered = directives[np.argsort(directives["time"], kind="stable")]
    assert ordered["disk"].tolist() == [1, 1, 0, 0]
    times = ordered["time"].tolist()
    assert times == sorted(times)


def test_oracle_directives_are_valid_rows(pm):
    """Sorted by time, an oracle's rows pass the directive validator."""
    gaps = _gaps(
        (0, 50.0, 80.0, False), (1, 10.0, 40.0, False), (2, 5.0, 60.0, True)
    )
    for kind in ("tpm", "drpm"):
        rows = decisions_to_directives(plan_gaps(gaps, pm, kind), pm)
        assert rows.dtype == DIRECTIVE_ROW and rows.size
        check_directives(rows[np.argsort(rows["time"], kind="stable")])
