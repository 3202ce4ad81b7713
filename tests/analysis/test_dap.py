"""Disk access patterns: entries, timelines, timed intervals."""

import numpy as np
import pytest

from repro.analysis.cycles import compute_timing
from repro.analysis.dap import DiskAccessPattern, build_dap
from repro.util.errors import AnalysisError


def test_paper_style_entries(tiny_program, tiny_layout):
    """The tiny program reproduces the paper's Figure 2 DAP structure:
    nest 0 uses disks 0-1 (via A and B's first stripes), nest 1 uses the
    stripe holding B's third quarter."""
    dap = build_dap(tiny_program, tiny_layout)
    e0 = [str(e) for e in dap.entries(0)]
    assert e0[0] == "< Nest 0, iteration 0, active >"
    # Disk 3 never used.
    assert dap.entries(3) == []
    assert not dap.ever_active(3)
    assert dap.ever_active(0)


def test_utilization(tiny_program, tiny_layout):
    dap = build_dap(tiny_program, tiny_layout)
    # Disk 0: active for A[0:8192] and B[0:8192] writes => first 8192 of
    # 16384 iterations of nest 0, none of nest 1.
    u = dap.utilization(0)
    assert 0 < u < 1
    assert dap.utilization(3) == 0.0


def test_disk_timeline_concatenates(tiny_program, tiny_layout):
    dap = build_dap(tiny_program, tiny_layout)
    tl = dap.disk_timeline(0)
    assert tl.shape == (16384 + 8192,)
    with pytest.raises(AnalysisError):
        dap.disk_timeline(9)


def test_active_intervals_timed(tiny_program, tiny_layout):
    dap = build_dap(tiny_program, tiny_layout)
    timing = compute_timing(tiny_program)
    per_disk = dap.active_intervals(timing)
    starts, ends = per_disk[0]
    assert len(starts) == len(ends) == 1
    assert starts[0] == pytest.approx(0.0)
    # Disk 0 is active for the first 8192 iterations of nest 0.
    assert ends[0] == pytest.approx(timing.nest(0).iteration_start_s(8192))
    assert [len(c) for c in per_disk[3]] == [0, 0]
    assert all(c.dtype == np.float64 for cols in per_disk for c in cols)


def test_active_intervals_merge_gap(tiny_program, tiny_layout):
    dap = build_dap(tiny_program, tiny_layout)
    timing = compute_timing(tiny_program)
    merged = dap.active_intervals(timing, merge_gap_s=1e9)
    # With an enormous merge threshold every disk has at most one interval.
    assert all(len(starts) <= 1 for starts, _ in merged)


def test_active_fractions_split_iterations(tiny_program, tiny_layout):
    dap = build_dap(tiny_program, tiny_layout)
    timing = compute_timing(tiny_program)
    full = dap.active_intervals(timing)
    frac = dap.active_intervals(timing, active_fractions=[0.25, 0.25])
    # With fraction 0.25 and zero merge threshold, each active iteration
    # becomes its own quarter-length interval.
    total_full = float(np.sum(full[0][1] - full[0][0]))
    total_frac = float(np.sum(frac[0][1] - frac[0][0]))
    assert total_frac == pytest.approx(0.25 * total_full, rel=1e-6)
    with pytest.raises(AnalysisError):
        dap.active_intervals(timing, active_fractions=[0.5])


def test_bad_shapes_rejected():
    with pytest.raises(AnalysisError):
        DiskAccessPattern(
            num_disks=2,
            activity=(np.zeros((4, 3), dtype=bool),),
            outer_values=(np.arange(4),),
        )


def test_timing_nest_count_checked(tiny_program, tiny_layout, phase_program):
    dap = build_dap(tiny_program, tiny_layout)
    wrong = compute_timing(phase_program)
    with pytest.raises(AnalysisError):
        dap.active_intervals(wrong)
