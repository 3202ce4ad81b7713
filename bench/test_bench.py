"""Tests of the benchmark's own machinery.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench/``
(outside the tier-1 ``testpaths``).  Nothing here runs a workload pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run
import tracer
import workloads


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #
def _tick(times):
    it = iter(times)
    return lambda: float(next(it))


def test_self_times_of_a_nested_call_tree_sum_to_the_root():
    # root [0, 20]: A [1, 11] holds B [2, 5] and a nested A [6, 9];
    # C [12, 14]; the root's remaining 20 - 10 - 2 = 8 is unattributed.
    t = tracer.Tracer(clock=_tick([0, 1, 2, 5, 6, 9, 11, 12, 14, 20]))
    root = t.begin(tracer.ROOT)
    a = t.begin("A")
    b = t.begin("B")
    t.end(b)
    a2 = t.begin("A")
    t.end(a2)
    t.end(a)
    c = t.begin("C")
    t.end(c)
    t.end(root)

    table = tracer.layer_table(t.spans)
    assert table == {
        tracer.ROOT: {"calls": 1, "self_s": 8.0},
        "A": {"calls": 2, "self_s": 7.0},
        "B": {"calls": 1, "self_s": 3.0},
        "C": {"calls": 1, "self_s": 2.0},
    }
    assert sum(row["self_s"] for row in table.values()) == 20.0
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1, 0]

    events = tracer.chrome_events([t.spans])
    assert [e["name"] for e in events] == [tracer.ROOT, "A", "B", "A", "C"]
    assert events[2]["args"]["parent"] == "A"
    assert events[1]["dur"] == 10e6


def test_a_span_ends_when_the_traced_call_raises():
    t = tracer.Tracer(clock=_tick([0, 1, 2, 3]))

    def boom():
        raise ValueError("x")

    root = t.begin(tracer.ROOT)
    with pytest.raises(ValueError):
        tracer._wrap(t, "L", boom)()
    t.end(root)
    assert tracer.layer_table(t.spans)["L"] == {"calls": 1, "self_s": 1.0}


def test_install_covers_from_imports_and_restore_puts_back_every_original():
    import repro.disksim.simulator as simulator
    import repro.experiments.schemes as schemes
    from repro.cache import ResultCache
    from repro.disksim.replay import ReplayPlan
    from repro.trace.stream import TraceStream
    from repro.trace.synth import SynthConfig, synth_stream

    simulate = simulator.simulate
    load = ResultCache.__dict__["load"]
    for_trace = ReplayPlan.__dict__["for_trace"]
    iter_chunks = TraceStream.__dict__["iter_chunks"]
    sys.modules.pop("repro.experiments.fig2", None)

    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        assert schemes.simulate is simulator.simulate is not simulate
        assert schemes.simulate.__wrapped__ is simulate
        # A module first imported while tracing binds the wrapper too.
        fig2 = importlib.import_module("repro.experiments.fig2")
        assert fig2.simulate is simulator.simulate

        import repro.experiments.runner as runner

        runner.build_workload("swim")
        chunks = list(synth_stream(SynthConfig(10, chunk_requests=4)).iter_chunks())
    finally:
        restore()

    assert len(chunks) == 3
    # 3 chunks plus the exhausted fourth call.
    assert [s[0] for s in t.spans] == ["workloads"] + ["trace.generate"] * 4
    assert schemes.simulate is simulator.simulate
    assert simulator.simulate is simulate
    assert fig2.simulate is simulate
    assert ResultCache.__dict__["load"] is load
    assert ReplayPlan.__dict__["for_trace"] is for_trace
    assert TraceStream.__dict__["iter_chunks"] is iter_chunks


def test_every_layer_target_exists():
    for targets in tracer.LAYERS.values():
        for target in targets:
            modname, _, qual = target.partition(":")
            obj = importlib.import_module(modname)
            for part in qual.split("."):
                obj = getattr(obj, part)
            assert callable(obj), target


# ---------------------------------------------------------------------- #
# compare.py verdicts
# ---------------------------------------------------------------------- #
STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


@pytest.mark.parametrize(
    "b, better, expected",
    [
        ([v * 1.20 for v in STEADY], "lower", compare.WORSE),
        ([v * 0.80 for v in STEADY], "lower", compare.BETTER),
        ([v * 1.05 for v in STEADY], "lower", compare.UNCHANGED),
        ([v * 1.20 for v in STEADY], "higher", compare.BETTER),
        ([0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 0.6, 1.4, 1.0], "lower", compare.UNRESOLVED),
        # Wide spread, but every B run beats every A run: the median move
        # decides, past the bound or inside it.
        ([0.5, 0.9, 0.6, 0.8, 0.7, 0.55, 0.95, 0.65, 0.85, 0.75], "lower", compare.BETTER),
        ([0.70, 0.97, 0.75, 0.96, 0.92, 0.95, 0.97, 0.78, 0.93, 0.94], "lower",
         compare.UNCHANGED),
    ],
)
def test_compare_verdicts_apply_the_bound_and_the_spread_rule(b, better, expected):
    got, _change = compare.verdict(STEADY, b, better, "s", 0.1)
    assert got == expected


def test_compare_counts_exactly():
    assert compare.verdict([5, 5, 5], [5, 5], "lower", "count", None)[0] == compare.UNCHANGED
    assert compare.verdict([5, 5, 5], [6, 6], "lower", "count", None)[0] == compare.WORSE
    assert compare.verdict([5, 5, 5], [6, 6], "higher", "count", None)[0] == compare.BETTER
    assert compare.verdict([5, 5, 5], [5, 6], "lower", "count", None)[0] == compare.UNRESOLVED
    assert compare.verdict([0.1], [0.2], "lower", "ratio", None)[0] == compare.UNBOUNDED


def test_compare_reads_recorded_runs(tmp_path):
    def record(path, workload, wall, failed=0):
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "workload": workload, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}},
            }) + "\n")

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for v in STEADY:
        record(a, "w", v)
        record(b, "w", v * 1.3, failed=1)
    rows = {r["metric"]: r["verdict"] for r in compare.compare(a, b, compare.load_spec())["rows"]}
    assert rows == {"wall_s": compare.WORSE, "ops_failed": compare.WORSE}
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


# ---------------------------------------------------------------------- #
# Correctness gate
# ---------------------------------------------------------------------- #
def test_the_gate_flags_a_one_byte_artifact_change():
    text = (workloads.ROOT / "artifacts" / "fig3.txt").read_text()
    assert workloads.check_artifacts({"fig3": text}, {}) == []
    i = text.index("0.")
    flipped = text[:i] + "1" + text[i + 1:]
    assert len(flipped) == len(text)
    assert workloads.check_artifacts({"fig3": flipped}, {}) == [
        ("fig3", "differs from artifacts/fig3.txt")
    ]

    pin = {"x": hashlib.sha256(b"abc\n").hexdigest()}
    assert workloads.check_artifacts({"x": "abc\n"}, pin) == []
    assert workloads.check_artifacts({"x": "abd\n"}, pin) == [("x", "differs from its sha256 pin")]
    assert workloads.check_artifacts({"nope": "abc\n"}, {})[0][0] == "nope"


def test_every_artifact_has_a_file_or_a_pin():
    from repro.experiments.cli import EXPERIMENT_IDS

    pins = workloads.load_pins()["artifacts_sha256"]
    for exp_id in EXPERIMENT_IDS:
        assert (workloads.ROOT / "artifacts" / f"{exp_id}.txt").is_file() != (exp_id in pins)


@pytest.fixture(scope="module")
def small_replays():
    from repro.controllers.base import Controller
    from repro.controllers.compiler_directed import CompilerDirected
    from repro.disksim.params import SubsystemParams
    from repro.disksim.simulator import simulate
    from repro.trace.synth import SynthConfig, synth_trace

    trace = synth_trace(SynthConfig(300, model="onoff", seed=3))
    params = SubsystemParams(num_disks=trace.layout.num_disks)
    base = simulate(trace, params, Controller(), collect_busy_intervals=True, open_loop=True)
    cm = simulate(trace, params, CompilerDirected("tpm"), open_loop=True)
    return base, cm


def test_digest_sees_one_ulp_and_skips_only_what_it_is_told(small_replays):
    base, _cm = small_replays
    nudged = dataclasses.replace(
        base, execution_time_s=math.nextafter(base.execution_time_s, math.inf)
    )
    assert workloads.result_digest(base) == workloads.result_digest(
        dataclasses.replace(base)
    )
    assert workloads.result_digest(nudged) != workloads.result_digest(base)
    assert workloads.result_digest(base, skip=("busy_intervals",)) != workloads.result_digest(base)


def test_ingest_invariants(small_replays):
    base, cm = small_replays
    expected = [("s", "Base", 300), ("s", "CMTPM", 300)]
    assert workloads.check_ingest([base, cm], expected, None) == []
    pinned = {"s/Base": workloads.result_digest(base), "s/CMTPM": "0"}
    assert workloads.check_ingest([base, cm], expected, pinned) == [
        ("s/CMTPM", "differs from its digest pin")
    ]
    off = dataclasses.replace(cm, num_directives=1)
    assert workloads.check_ingest([base, off], expected, None) == [
        ("s/CMTPM", "differs from its Base replay")
    ]
    assert workloads.check_ingest([base], expected, None) == [("s/CMTPM", "never ran")]


# ---------------------------------------------------------------------- #
# BENCHMARK.json
# ---------------------------------------------------------------------- #
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_bench_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
