"""Gap statistics: the quantitative form of §5.1's TPM explanation."""

import numpy as np
import pytest

from repro.analysis.gapstats import (
    GapStatistics,
    exploitable_fractions,
    gap_statistics,
)
from repro.analysis.idle import GAP_ROW
from repro.disksim.params import SubsystemParams
from repro.disksim.powermodel import PowerModel
from repro.disksim.simulator import simulate
from repro.experiments.schemes import run_workload
from repro.workloads.registry import build_workload


def _gaps(*durs):
    out = []
    t = 0.0
    for d in durs:
        out.append((0, t, t + d, False))
        t += d + 1.0
    return np.array(out, dtype=GAP_ROW)


def test_statistics_summary():
    s = GapStatistics.from_gaps(_gaps(1.0, 2.0, 3.0, 10.0))
    assert s.count == 4
    assert s.total_s == pytest.approx(16.0)
    assert s.mean_s == pytest.approx(4.0)
    assert s.median_s == pytest.approx(2.5)
    assert s.max_s == pytest.approx(10.0)
    empty = GapStatistics.from_gaps(_gaps())
    assert empty.count == 0 and empty.total_s == 0.0


def test_paper_section_5_1_explanation_holds_on_galgel():
    """On the original codes: essentially no idle time sits in
    TPM-exploitable gaps, while most of it is DRPM-exploitable — the
    sentence 'the idle times ... are much smaller in length', quantified."""
    wl = build_workload("galgel")
    suite = run_workload(wl, schemes=("Base",))
    params = SubsystemParams()
    pm = PowerModel(params.disk, params.drpm)
    fracs = exploitable_fractions(suite.base, pm)
    assert fracs["tpm"] < 0.02
    assert fracs["drpm_any"] > 0.6
    assert fracs["drpm_full"] <= fracs["drpm_any"]
    stats = gap_statistics(suite.base)
    assert stats.max_s < params.disk.tpm_breakeven_s
    assert stats.count > 0


def test_transformed_code_creates_tpm_gaps():
    """After LF+DL the same metric flips: a meaningful share of idle time
    becomes TPM-exploitable — §6.2's 'transformations create such
    opportunities'."""
    from repro.experiments.schemes import run_schemes
    from repro.layout.files import default_layout
    from repro.transform.pipeline import make_version

    wl = build_workload("swim")
    lay = default_layout(wl.program.arrays, num_disks=8)
    tv = make_version("LF+DL", wl.program, lay)
    suite = run_schemes(
        tv.program, tv.layout, SubsystemParams(), wl.trace_options,
        wl.estimation, schemes=("Base",),
    )
    params = SubsystemParams()
    pm = PowerModel(params.disk, params.drpm)
    fracs = exploitable_fractions(suite.base, pm)
    assert fracs["tpm"] > 0.3
