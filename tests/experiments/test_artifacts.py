"""Pin the paper's artifacts and check the paper's claims on them.

Every artifact with a committed text file is rendered in one shared serial
context (uncached, so the engines really run) and compared byte for byte,
in the form the CLI prints it: each report's rendering followed by a blank
line.

The paper's shape claims (§5, §6 and the ablations) are then asserted on
the same serial reports, so a deliberate result change that regenerates
``artifacts/`` must still reproduce the paper's qualitative findings.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.experiments.cli import EXPERIMENT_IDS, run_experiment
from repro.experiments.runner import ExperimentContext
from repro.workloads.registry import WORKLOAD_NAMES

ARTIFACTS = Path(__file__).resolve().parents[2] / "artifacts"

#: Artifact ids with a committed rendering, in CLI order.
PINNED = tuple(i for i in EXPERIMENT_IDS if (ARTIFACTS / f"{i}.txt").is_file())


def _render(reports: list) -> str:
    return "".join(rep.render() + "\n" for rep in reports)


@pytest.fixture(scope="module")
def serial_reports():
    """``exp_id -> reports`` of one shared serial, uncached context; each
    artifact runs once and serves both its byte pin and its claims."""
    ctx = ExperimentContext(cache=False)
    memo: dict[str, list] = {}

    def reports(exp_id: str) -> list:
        if exp_id not in memo:
            memo[exp_id] = run_experiment(exp_id, ctx)
        return memo[exp_id]

    return reports


def test_every_committed_artifact_is_pinned():
    committed = {p.stem for p in ARTIFACTS.glob("*.txt")}
    assert committed == set(PINNED)


@pytest.mark.parametrize("exp_id", PINNED)
def test_serial_rendering_matches_committed(exp_id, serial_reports):
    want = (ARTIFACTS / f"{exp_id}.txt").read_bytes()
    assert _render(serial_reports(exp_id)).encode() == want


# --------------------------------------------------------------------- #
# The paper's shape claims, one function per artifact.
# --------------------------------------------------------------------- #
def _table1(rep):
    # Table 1 values straight from the paper.
    assert rep.value("RPM", "value") == 15000.0
    assert rep.value("Average seek time (ms)", "value") == 3.4
    assert rep.value("Internal transfer rate (MB/s)", "value") == 55.0
    assert rep.value("Power active (W)", "value") == 13.5
    assert rep.value("Energy spin up (J)", "value") == 135.0
    assert rep.value("Minimum RPM level", "value") == 3000.0
    assert rep.value("Stripe unit (KB)", "value") == 64.0


def _table2(rep):
    """Measured benchmark characteristics track the paper's."""
    for name in WORKLOAD_NAMES:
        measured_mb = rep.value(name, "MB")
        paper_mb = rep.value(name, "MB(p)")
        assert abs(measured_mb - paper_mb) / paper_mb < 0.03
        reqs, reqs_p = rep.value(name, "reqs"), rep.value(name, "reqs(p)")
        assert abs(reqs - reqs_p) / reqs_p < 0.13
        t, t_p = rep.value(name, "time_ms"), rep.value(name, "time(p)")
        assert abs(t - t_p) / t_p < 0.12
        e, e_p = rep.value(name, "baseE_J"), rep.value(name, "baseE(p)")
        assert abs(e - e_p) / e_p < 0.12


def _table3(rep):
    """Paper band: 5.14-27.35 % mispredicted speeds; modest mispredictions
    are what let CMDRPM track the oracle."""
    values = [rep.value(n, "measured_%") for n in WORKLOAD_NAMES]
    assert all(0.0 <= v < 35.0 for v in values)
    assert sum(values) / len(values) < 25.0
    # At least some estimation imperfection must show (the compiler is not
    # an oracle).
    assert max(values) > 2.0


def _fig3(rep):
    """§5.1: TPM family flat at 1.0; reactive DRPM ~26 % savings; IDRPM
    ~51 %; CMDRPM ~46 %, close to the oracle."""
    rows = list(WORKLOAD_NAMES)
    for scheme in ("TPM", "ITPM", "CMTPM"):
        assert abs(rep.column_mean(scheme, rows) - 1.0) < 0.01
    drpm = rep.column_mean("DRPM", rows)
    idrpm = rep.column_mean("IDRPM", rows)
    cmdrpm = rep.column_mean("CMDRPM", rows)
    assert 0.60 < drpm < 0.80          # paper: 0.74
    assert 0.44 < idrpm < 0.62         # paper: 0.49
    assert 0.48 < cmdrpm < 0.62        # paper: 0.54
    assert idrpm <= cmdrpm + 0.02      # oracle is the lower bound
    assert cmdrpm < drpm               # proactive beats reactive


def _fig4(rep):
    """§5.1: only reactive DRPM pays a penalty (~15.9 % average); every
    other scheme runs at Base speed."""
    rows = list(WORKLOAD_NAMES)
    for scheme in ("TPM", "ITPM", "IDRPM", "CMTPM"):
        assert abs(rep.column_mean(scheme, rows) - 1.0) < 0.005
    drpm = rep.column_mean("DRPM", rows)
    assert 1.08 < drpm < 1.25          # paper: 1.159
    assert rep.column_mean("CMDRPM", rows) < 1.005  # "almost no penalty"


def _fig5(energy):
    """§5.2: CMDRPM's savings are consistent across stripe sizes."""
    for row in energy.rows:
        assert energy.value(row, "CMDRPM") < 0.80, row
        assert abs(energy.value(row, "TPM") - 1.0) < 0.01
        assert abs(energy.value(row, "CMTPM") - 1.0) < 0.01
    # Consistency: spread of CMDRPM savings across sizes stays bounded.
    vals = [energy.value(r, "CMDRPM") for r in energy.rows]
    assert max(vals) - min(vals) < 0.25


def _fig6(time):
    """§5.2: the compiler-based approach never slows the program down at
    any stripe size, while conventional DRPM's behaviour 'becomes really
    worse when we increase the stripe size'."""
    for row in time.rows:
        assert abs(time.value(row, "CMDRPM") - 1.0) < 0.01, row
        assert abs(time.value(row, "IDRPM") - 1.0) < 0.005, row
        assert time.value(row, "DRPM") > 1.05, row
    # DRPM degrades from the default toward larger stripes.
    assert time.value("256KB", "DRPM") > time.value("64KB", "DRPM")
    assert time.value("128KB", "DRPM") > time.value("64KB", "DRPM")


def _fig7(energy):
    """§5.2: 'the CMDRPM scheme generates more savings with the increased
    number of disks' and 'remains very close to the IDRPM'."""
    rows = list(energy.rows)
    cm = [energy.value(r, "CMDRPM") for r in rows]
    # Monotone improvement with more disks (paper's headline trend).
    assert cm[-1] < cm[0] - 0.1
    for r in rows:
        gap = energy.value(r, "CMDRPM") - energy.value(r, "IDRPM")
        assert gap < 0.20, f"{r}: CMDRPM strays from the oracle"
        assert abs(energy.value(r, "TPM") - 1.0) < 0.01


def _fig8(time):
    """§5.2: CMDRPM remains at Base speed for every disk count; only
    reactive DRPM pays."""
    for r in time.rows:
        assert abs(time.value(r, "CMDRPM") - 1.0) < 0.01, r
        assert abs(time.value(r, "IDRPM") - 1.0) < 0.005, r
        assert time.value(r, "DRPM") > 1.03, r


def _fig13(rep):
    """§6.2: LF and TL alone do not help; LF+DL helps swim, mgrid, applu,
    mesa; TL+DL helps wupwise, applu, mesa; galgel gains from neither; the
    transformations make TPM viable (paper: CMTPM averages 31 % savings
    where it previously saved nothing)."""

    def v(row, col):
        return rep.value(row, col)

    # LF / TL alone: within noise of the original results.
    for name in ("wupwise", "swim", "mgrid", "applu", "mesa", "galgel"):
        assert abs(v(name, "LF/CMDRPM") - v(name, "orig/CMDRPM")) < 0.08
        assert abs(v(name, "TL/CMDRPM") - v(name, "orig/CMDRPM")) < 0.08
        assert v(name, "LF/CMTPM") > 0.90
        assert v(name, "TL/CMTPM") > 0.90

    # LF+DL beneficiaries: CMTPM becomes viable (was 1.0).
    lfdl_cmtpm = []
    for name in ("swim", "mgrid", "applu", "mesa"):
        assert v(name, "orig/CMTPM") > 0.99
        assert v(name, "LF+DL/CMTPM") < 0.85, name
        assert v(name, "LF+DL/CMDRPM") < v(name, "orig/CMDRPM"), name
        lfdl_cmtpm.append(v(name, "LF+DL/CMTPM"))

    # TL+DL beneficiaries.
    for name in ("wupwise", "applu", "mesa"):
        assert v(name, "TL+DL/CMDRPM") < v(name, "orig/CMDRPM") - 0.01, name

    # galgel: the negative control.
    for col in ("LF/CMDRPM", "TL/CMDRPM", "LF+DL/CMDRPM", "TL+DL/CMDRPM"):
        assert v("galgel", col) == v("galgel", "orig/CMDRPM")

    # Transformed-CMTPM average lands near the paper's 31 % savings.
    avg = sum(lfdl_cmtpm) / len(lfdl_cmtpm)
    assert 0.50 < avg < 0.80  # paper: 0.69


def _ablation_preactivation(rep):
    """§3: without pre-activation 'we incur the associated spin-up delay
    fully' — lazy wake-up blows execution time up while pre-activation
    keeps it at Base speed."""
    for name in WORKLOAD_NAMES:
        assert rep.value(name, "T_preact") <= 1.005, name
        assert rep.value(name, "T_lazy") > 1.2, name
        assert rep.value(name, "E_lazy") > rep.value(name, "E_preact"), name


def _ablation_estimation_error(rep):
    rows = list(rep.rows)
    # Savings at oracle-grade estimates are at least as good as at +-40 %.
    assert rep.value(rows[0], "energy") <= rep.value(rows[-1], "energy") + 0.02
    for row in rows:
        assert rep.value(row, "time") < 1.05


def _ablation_transition_speed(rep):
    rows = list(rep.rows)
    cm = [rep.value(r, "CMDRPM") for r in rows]
    assert cm == sorted(cm), "savings must shrink monotonically as steps slow"
    for row in rows:
        assert rep.value(row, "IDRPM") <= rep.value(row, "CMDRPM") + 0.03


def _ext_multitiling(rep):
    """§6.1 future work: tiling every nest extends the savings."""
    for name in ("wupwise", "applu", "mesa"):
        single = rep.value(name, "TL+DL/CMDRPM")
        multi = rep.value(name, "TL*+DL/CMDRPM")
        assert multi < single, f"{name}: multi-nest tiling should extend savings"
        assert multi < rep.value(name, "orig/CMDRPM")


def _ext_pdc(rep):
    """The PDC baseline (related work [16]) against the compiler-directed
    scheme, plus the fixed-vs-adaptive TPM thrash contrast."""
    for name in WORKLOAD_NAMES:
        # Concentration + foresight composes: PDC/CMDRPM beats plain CMDRPM.
        assert rep.value(name, "PDC/CMDRPM") < rep.value(name, "CMDRPM"), name
        # The adaptive threshold bounds the thrash the fixed threshold can
        # fall into (fixed blows up >100x on some benchmarks).
        assert rep.value(name, "PDC/ATPM") < 10.0, name
    assert any(rep.value(n, "PDC/TPM") > 10.0 for n in WORKLOAD_NAMES), (
        "the fixed-threshold thrash pathology should be visible"
    )


#: Artifact id -> the claim check its report must pass.
CLAIMS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig13": _fig13,
    "ablation_preactivation": _ablation_preactivation,
    "ablation_estimation_error": _ablation_estimation_error,
    "ablation_transition_speed": _ablation_transition_speed,
    "ext_multitiling": _ext_multitiling,
    "ext_pdc": _ext_pdc,
}


@pytest.mark.parametrize("exp_id", list(CLAIMS))
def test_paper_claims_hold(exp_id, serial_reports):
    (rep,) = serial_reports(exp_id)
    CLAIMS[exp_id](rep)


def test_fig3_claim_fails_when_reactive_drpm_wins(serial_reports):
    (rep,) = serial_reports("fig3")
    # Every other fig3 bound still holds at 0.61 for both DRPM columns, so
    # only "proactive beats reactive" is violated.
    cols = (rep.columns.index("DRPM"), rep.columns.index("CMDRPM"))
    rows = {
        name: tuple(0.61 if i in cols else v for i, v in enumerate(vals))
        for name, vals in rep.rows.items()
    }
    broken = dataclasses.replace(rep, rows=rows)
    with pytest.raises(AssertionError):
        _fig3(broken)
