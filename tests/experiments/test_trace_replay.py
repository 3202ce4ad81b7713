"""The ``trace_replay`` suite: sources, synth specs, caching, CLI wiring."""

from pathlib import Path

import numpy as np
import pytest

from repro.cache import ResultCache
from repro.controllers.compiler_directed import CompilerDirected
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.experiments.cli import build_parser, main
from repro.experiments.runner import ExperimentContext
from repro.experiments.trace_replay import (
    TRACE_REPLAY_SCHEMES,
    STREAM_THRESHOLD_REQUESTS,
    TraceSource,
    default_sources,
    last_manifest_section,
    parse_synth_spec,
    run_trace_replay,
)
from repro.trace.synth import SynthConfig
from repro.util.errors import ReproError

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "fixtures" / "traces" / "small.trace"
)


# --------------------------------------------------------------------- #
# Synth-spec parsing
# --------------------------------------------------------------------- #
def test_parse_synth_spec_fields_and_alias():
    cfg = parse_synth_spec("model=onoff, n=5000, lba_skew=0.8, seed=7")
    assert cfg.model == "onoff"
    assert cfg.num_requests == 5000
    assert cfg.lba_skew == 0.8
    assert cfg.seed == 7
    # Empty spec: the documented default size.
    assert parse_synth_spec("").num_requests == 20_000


@pytest.mark.parametrize(
    "spec",
    [
        "model",                 # not key=value
        "wibble=3",              # unknown key
        "num_disks=8",           # reserved: comes from the params
        "n=lots",                # unconvertible value
    ],
)
def test_parse_synth_spec_rejects(spec):
    with pytest.raises(ReproError):
        parse_synth_spec(spec)


# --------------------------------------------------------------------- #
# TraceSource construction
# --------------------------------------------------------------------- #
def test_trace_source_is_file_xor_synth():
    with pytest.raises(ReproError):
        TraceSource(label="neither")
    with pytest.raises(ReproError):
        TraceSource(
            label="both", path="x.trace", synth=SynthConfig(num_requests=10)
        )


def test_trace_source_constructors():
    src = TraceSource.from_file(FIXTURE)
    assert src.label == "small"
    assert not src.streamed
    small = TraceSource.from_synth(SynthConfig(num_requests=100))
    assert small.label == "synth-poisson-100" and not small.streamed
    big = TraceSource.from_synth(
        SynthConfig(num_requests=STREAM_THRESHOLD_REQUESTS)
    )
    assert big.streamed  # large synthetics replay bounded-memory
    assert len(default_sources()) == 2


# --------------------------------------------------------------------- #
# The suite itself
# --------------------------------------------------------------------- #
def _sources():
    return (
        TraceSource.from_file(FIXTURE),
        TraceSource.from_synth(
            SynthConfig(num_requests=800, model="onoff", seed=5)
        ),
    )


def test_run_trace_replay_report_and_manifest():
    ctx = ExperimentContext(cache=False)
    rep = run_trace_replay(ctx, sources=_sources())
    assert rep.experiment_id == "trace_replay"
    assert rep.columns == TRACE_REPLAY_SCHEMES
    assert list(rep.rows) == [
        "small (E)", "small (T)",
        "synth-onoff-800 (E)", "synth-onoff-800 (T)",
    ]
    for label in ("small", "synth-onoff-800"):
        assert rep.value(f"{label} (E)", "Base") == 1.0
        assert rep.value(f"{label} (T)", "Base") == 1.0
        # The documented degradation: no directives == Base, bit-exactly.
        for scheme in ("CMTPM", "CMDRPM"):
            assert rep.value(f"{label} (E)", scheme) == 1.0
            assert rep.value(f"{label} (T)", scheme) == 1.0
    assert any("degrade to the no-directive baseline" in n for n in rep.notes)

    section = last_manifest_section()
    assert section["mode"] == "open-loop"
    assert section["degraded_schemes"] == ["CMTPM", "CMDRPM"]
    kinds = {s["kind"] for s in section["sources"]}
    assert kinds == {"ingest", "synth"}
    assert section["sources"][0]["requests"] == 48  # the bundled fixture


def test_streamed_source_skips_oracles():
    ctx = ExperimentContext(cache=False)
    src = TraceSource(
        label="forced-stream",
        synth=SynthConfig(num_requests=600, model="poisson", seed=2),
        streamed=True,
    )
    rep = run_trace_replay(ctx, sources=(src,))
    assert rep.value("forced-stream (E)", "ITPM") == "-"
    assert rep.value("forced-stream (E)", "IDRPM") == "-"
    assert rep.value("forced-stream (E)", "TPM") != "-"
    assert any("oracle schemes skipped" in n for n in rep.notes)


def test_ctx_sources_default_and_fallback():
    src = TraceSource.from_synth(
        SynthConfig(num_requests=300, model="poisson", seed=9)
    )
    ctx = ExperimentContext(cache=False, trace_sources=(src,))
    rep = run_trace_replay(ctx)
    assert list(rep.rows) == [
        "synth-poisson-300 (E)", "synth-poisson-300 (T)",
    ]


def test_cache_round_trip_is_exact(tmp_path):
    sources = _sources()
    first = run_trace_replay(
        ExperimentContext(cache=ResultCache(tmp_path)), sources=sources
    )
    again = run_trace_replay(
        ExperimentContext(cache=ResultCache(tmp_path)), sources=sources
    )
    for row in first.rows:
        for col in TRACE_REPLAY_SCHEMES:
            assert again.value(row, col) == first.value(row, col)


class _Capture(ResultCache):
    """Never hits; keeps every stored result in order."""

    def __init__(self):
        super().__init__()
        self.stored: list = []

    def load(self, key):
        return None

    def store(self, key, payload):
        self.stored.append(payload)


@pytest.mark.parametrize("streamed", [False, True], ids=["whole", "streamed"])
def test_degraded_schemes_equal_real_compiler_directed_replays(
    streamed, assert_results_identical
):
    """CMTPM/CMDRPM are built from the Base result, not replayed; they
    must still pass through the cache in scheme order and equal a real
    compiler-directed replay with no directives, field by field."""
    params = SubsystemParams(num_disks=4)
    synth = SynthConfig(num_requests=600, num_disks=4, model="onoff", seed=3)
    source = TraceSource(label="cm", synth=synth, streamed=streamed)
    capture = _Capture()
    run_trace_replay(
        ExperimentContext(params=params, cache=capture), sources=(source,)
    )
    oracles = [] if streamed else ["ITPM", "IDRPM"]
    assert [r.scheme for r in capture.stored] == [
        "Base", "TPM", "DRPM", *oracles, "CMTPM", "CMDRPM",
    ]
    trace = source.load(params.num_disks)
    for got, kind in zip(capture.stored[-2:], ("tpm", "drpm")):
        real = simulate(trace, params, CompilerDirected(kind), open_loop=True)
        assert_results_identical(got, real)
        assert got == real
        assert (got.engine, got.engine_forced) == (real.engine, real.engine_forced)
        assert got.busy_columns == real.busy_columns == ()
        assert np.array_equal(got.response_array, real.response_array)


# --------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------- #
def test_cli_parses_trace_flags():
    args = build_parser().parse_args(
        [
            "--trace-in", "a.trace", "--trace-in", "b.trace",
            "--trace-format", "text", "--trace-mapping", "range",
            "--synth", "model=onoff,n=1000",
            "trace_replay",
        ]
    )
    assert args.trace_in == ["a.trace", "b.trace"]
    assert args.trace_format == "text"
    assert args.trace_mapping == "range"
    assert args.synth == ["model=onoff,n=1000"]


def test_cli_runs_trace_replay_end_to_end(capsys):
    rc = main(
        [
            "--no-cache",
            "--trace-in", str(FIXTURE),
            "--synth", "model=poisson,n=500",
            "trace_replay",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace_replay" in out
    assert "small (E)" in out
    assert "synth-poisson-500 (E)" in out
