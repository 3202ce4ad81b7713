"""Runner memoization and the figure-module report structures."""

import pytest

from repro.experiments.cli import build_parser
from repro.experiments.runner import ExperimentContext
from repro.util.errors import ReproError


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


def test_suite_is_memoized(ctx):
    a = ctx.suite("galgel")
    b = ctx.suite("galgel")
    assert a is b


def test_distinct_keys_are_distinct_runs(ctx):
    from repro.layout.files import default_layout
    from repro.util.units import KB

    wl = ctx.workload("galgel")
    lay = default_layout(wl.program.arrays, num_disks=8, stripe_size=32 * KB)
    a = ctx.suite("galgel")
    b = ctx.suite("galgel", layout=lay, key=("stripe_size", 32 * KB))
    assert a is not b
    assert b.layout.layout_tuple("G1")[2] == 32 * KB


def test_workload_is_memoized(ctx):
    assert ctx.workload("swim") is ctx.workload("swim")


def test_context_runs_in_one_process():
    assert ExperimentContext(jobs=1, cache=False).jobs == 1
    with pytest.raises(ReproError, match="jobs must be 1"):
        ExperimentContext(jobs=2, cache=False)


@pytest.mark.parametrize("flag", ["--jobs", "-j"])
def test_cli_has_no_worker_count_option(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([flag, "2", "all"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fig3_report_structure(ctx):
    from repro.experiments.fig3 import run

    rep = run(ctx)
    assert rep.experiment_id == "fig3"
    assert "average" in rep.rows
    assert len(rep.rows) == 7  # 6 benchmarks + average
    assert rep.columns == (
        "Base", "TPM", "ITPM", "DRPM", "IDRPM", "CMTPM", "CMDRPM",
    )


def test_fig4_average_row_consistent(ctx):
    from repro.experiments.fig4 import run

    rep = run(ctx)
    names = [r for r in rep.rows if r != "average"]
    for col in rep.columns:
        manual = sum(rep.value(n, col) for n in names) / len(names)
        assert rep.value("average", col) == pytest.approx(manual)


def test_fig5_6_share_one_sweep(ctx):
    """fig5 and fig6 derive from the same suites: asking for both costs one
    set of simulations (the context cache serves the second)."""
    from repro.experiments.fig5_6 import run
    from repro.util.units import KB

    before = len(ctx._suites)
    run(ctx, stripe_sizes=(32 * KB,))
    mid = len(ctx._suites)
    run(ctx, stripe_sizes=(32 * KB,))
    after = len(ctx._suites)
    assert mid > before
    assert after == mid


def test_fig7_8_num_disks_respected(ctx):
    from repro.experiments.fig7_8 import sweep

    for factor, suite in sweep(ctx, factors=(2,)):
        assert suite.layout.num_disks == 2
        assert suite.base.num_disks == 2


def test_cli_lists_all_ids():
    from repro.experiments.cli import EXPERIMENT_IDS

    assert set(EXPERIMENT_IDS) >= {
        "table1", "table2", "table3",
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig13",
        "ablation_preactivation", "ext_multitiling", "ext_pdc", "summary_edp",
    }


def test_cli_all_expands(monkeypatch, capsys):
    """'all' expands to every id; patch run_experiment to avoid the cost."""
    from repro.experiments import cli

    seen = []

    def fake(exp_id, ctx):
        seen.append(exp_id)
        return []

    monkeypatch.setattr(cli, "run_experiment", fake)
    cli.main(["all"])
    assert list(seen) == list(cli.EXPERIMENT_IDS)


def test_top_level_package_exports():
    import repro

    assert repro.__version__ == "1.0.0"
    suiteless = repro.build_workload("galgel")
    assert suiteless.name == "galgel"
    assert "CMDRPM" in repro.SCHEME_NAMES
