"""End-to-end observability: instrumented runs change nothing but add data.

Two contracts: (1) a scheme suite run with observability on produces
bit-identical results to one with it off, while the recorder/registry fill
with the pipeline's spans and counters; (2) the CLI's ``--obs`` artifacts
(Chrome trace + run manifest) validate against their schemas and leave
stdout byte-identical to a no-flag run.
"""

from __future__ import annotations

import os

from repro import obs
from repro.analysis.cycles import EstimationModel
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import AUTO_MIN_REQUESTS
from repro.experiments import cli
from repro.experiments.parallel import available_cpus
from repro.experiments.schemes import SCHEME_NAMES, run_schemes
from repro.obs.export import load_and_validate as load_trace
from repro.obs.export import span_names
from repro.obs.manifest import load_and_validate as load_manifest

#: Spans every full suite run must emit (pipeline stage coverage).
PIPELINE_SPANS = {
    "analysis.access",
    "analysis.timing",
    "analysis.dap",
    "power.plan",
    "trace.generate",
    "sim.replay",
    "suite.run",
}


def _suite(phase_program, phase_layout, small_trace_options):
    return run_schemes(
        phase_program,
        phase_layout,
        SubsystemParams(num_disks=4),
        small_trace_options,
        EstimationModel(relative_error=0.05),
    )


def test_observed_suite_is_bit_identical_and_fully_spanned(
    phase_program, phase_layout, small_trace_options, assert_results_identical
):
    plain = _suite(phase_program, phase_layout, small_trace_options)

    rec = obs.enable()
    observed = _suite(phase_program, phase_layout, small_trace_options)

    for scheme in SCHEME_NAMES:
        assert_results_identical(plain.results[scheme], observed.results[scheme])

    recorded = {s["name"] for s in rec.spans}
    assert PIPELINE_SPANS <= recorded
    # every scheme replayed at least once, and the registry saw it
    replay_schemes = {
        s["args"].get("scheme") for s in rec.spans if s["name"] == "sim.replay"
    }
    assert set(SCHEME_NAMES) <= replay_schemes
    counters = obs.metrics.snapshot()["counters"]
    total_replays = sum(
        v for k, v in counters.items() if k.startswith("sim.replays{")
    )
    assert total_replays >= len(SCHEME_NAMES)
    assert any(k.startswith("sim.replay_wall_s") for k in obs.metrics.snapshot()["histograms"])


def test_cli_obs_artifacts_validate_and_stdout_is_flag_invariant(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # keep any default artifact out of the repo
    trace_path = tmp_path / "run.trace.json"
    manifest_path = tmp_path / "run.manifest.json"

    rc = cli.main(
        [
            "--no-cache",
            "--obs",
            "--trace-out",
            str(trace_path),
            "--manifest-out",
            str(manifest_path),
            "table1",
            "fig2",
        ]
    )
    assert rc == 0
    observed_out = capsys.readouterr().out
    obs.disable(reset_metrics=True)

    rc = cli.main(["--no-cache", "table1", "fig2"])
    assert rc == 0
    plain_out = capsys.readouterr().out
    assert observed_out == plain_out  # reports are byte-stable under --obs

    trace = load_trace(trace_path)  # schema-validates
    assert {"experiment"} <= set(span_names(trace))

    manifest = load_manifest(manifest_path)  # schema-validates
    assert manifest["config"]["experiments"] == ["table1", "fig2"]
    assert [p["name"] for p in manifest["phases"]] == ["table1", "fig2"]
    assert manifest["config"]["cache"] is None  # --no-cache
    assert manifest["metrics"]["counters"]  # registry snapshot embedded
    assert manifest["total_wall_s"] > 0


def test_cli_obs_manifest_captures_suite_metrics(tmp_path, capsys):
    """A real suite experiment lands engine stats + cache stats in the manifest."""
    manifest_path = tmp_path / "m.json"
    rc = cli.main(
        [
            "--cache-dir",
            str(tmp_path / "cache"),
            "--obs",
            "--manifest-out",
            str(manifest_path),
            "table2",
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "result cache" in err  # one-line cache summary on stderr
    assert "run manifest" in err

    manifest = load_manifest(manifest_path)
    assert manifest["cache"]["misses"] > 0  # cold cache
    counters = manifest["metrics"]["counters"]
    assert any(k.startswith("sim.replays{") for k in counters)
    assert any(k.startswith("sim.subrequests{rpm=") for k in counters)
    assert any(k.startswith("cache.misses") for k in counters)
    # The routing policy that produced these numbers rides along with the
    # coverage counters: the engine-level crossover plus every in-kernel
    # vector/scalar gate (AUTO_ROUTING, measured on this container).
    routing = manifest["engine"]["routing"]
    assert routing["min_requests"] == AUTO_MIN_REQUESTS
    assert routing["auto_vector_min_requests"] > 0
    assert routing["drpm_vector_min_window"] > 0
    assert manifest["engine"]["replays_segmented"] > 0


def test_cli_obs_manifest_records_effective_jobs(tmp_path, capsys):
    """``--jobs 0`` means one worker per CPU: the manifest records the
    worker count that ran (after the CPU clamp), not the raw argument."""
    manifest_path = tmp_path / "m.json"
    rc = cli.main(
        [
            "--no-cache",
            "--jobs",
            "0",
            "--obs",
            "--manifest-out",
            str(manifest_path),
            "table1",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    jobs = load_manifest(manifest_path)["config"]["jobs"]
    assert isinstance(jobs, int) and jobs >= 1
    assert jobs == min(os.cpu_count() or 1, available_cpus())
