"""Golden regression pins for the benchmark models.

These freeze deterministic facts of the current models — exact request
counts, DAP structure, nest inventories — so an accidental change to a
workload or to the trace generator shows up as a diff here rather than as
a silent drift in the reproduced figures.  If you change a model on
purpose, update the pins, regenerate ``artifacts/`` with
``tools/regen_experiments.py`` and re-run
``tests/experiments/test_artifacts.py``, which checks the paper's shapes.
"""

import pytest

from repro.analysis.dap import build_dap
from repro.layout.files import default_layout
from repro.trace.generator import generate_trace
from repro.workloads.registry import build_workload

GOLDEN_REQUESTS = {
    # paper Table 2:  24718   3159   12288   7004   3072   2048
    "wupwise": 24640,
    "swim": 3136,
    "mgrid": 12288,  # exact match with the paper
    "applu": 7104,
    "mesa": 3136,
    "galgel": 2112,
}

GOLDEN_NESTS = {
    "wupwise": 20,
    "swim": 7,
    "mgrid": 19,
    "applu": 9,
    "mesa": 5,
    "galgel": 5,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REQUESTS))
def test_request_counts_pinned(name):
    wl = build_workload(name)
    lay = default_layout(wl.program.arrays, num_disks=8)
    trace = generate_trace(wl.program, lay, wl.trace_options)
    assert trace.num_requests == GOLDEN_REQUESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_NESTS))
def test_nest_counts_pinned(name):
    wl = build_workload(name)
    assert len(wl.program.nests) == GOLDEN_NESTS[name]


def test_swim_dap_structure_pinned():
    """swim's calc1 touches all 8 disks from iteration 0; disk 0's first
    entry is paper-format 'active at nest 0 iteration 0'."""
    wl = build_workload("swim")
    lay = default_layout(wl.program.arrays, num_disks=8)
    dap = build_dap(wl.program, lay, cached_threshold_bytes=1024)
    first = dap.entries(0)[0]
    assert str(first) == "< Nest 0, iteration 0, active >"
    assert all(dap.ever_active(d) for d in range(8))


def test_wupwise_zgemm_touches_all_disks_every_iteration():
    """The non-conforming ZP walk: every outer iteration of the zgemm nest
    activates all 8 disks (stride 9 is coprime to the stripe rotation) —
    the structural fact TL+DL exists to fix."""
    import numpy as np

    from repro.analysis.access import analyze_nest

    wl = build_workload("wupwise")
    lay = default_layout(wl.program.arrays, num_disks=8)
    zg_idx = next(
        i for i, nest in enumerate(wl.program.nests) if nest.var == "zg_cb"
    )
    mat = analyze_nest(wl.program.nests[zg_idx], zg_idx).active_disk_matrix(lay)
    assert mat.all()


def test_traces_are_bitwise_deterministic():
    wl = build_workload("galgel")
    lay = default_layout(wl.program.arrays, num_disks=8)
    t1 = generate_trace(wl.program, lay, wl.trace_options)
    t2 = generate_trace(wl.program, lay, wl.trace_options)
    assert [
        (r.nominal_time_s, r.array, r.offset, r.nbytes) for r in t1.requests
    ] == [(r.nominal_time_s, r.array, r.offset, r.nbytes) for r in t2.requests]
