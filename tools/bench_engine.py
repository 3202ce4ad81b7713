"""Benchmark the experiment engine end to end; emit ``BENCH_engine.json``,
``BENCH_trace.json``, and ``BENCH_sim.json``.

Run from the repository root::

    PYTHONPATH=src python tools/bench_engine.py [--against REF] [-o PATH]

Measures wall-clock time for the engine's main entry points on the current
tree — the full default suite set (``ExperimentContext.all_suites()``) and
the stripe sweeps (figures 5-8) — serial/parallel and uncached/cold/warm
cache, plus a trace-generation microbench comparing the columnar pipeline
against the retained seed algorithm (``generate_trace_reference``) and a
simulator-only microbench timing ``simulate()`` per scheme under the
stepwise, segmented, and auto replay engines.  With
``--against REF`` it additionally checks out ``REF`` into a temporary git
worktree and measures the same serial-uncached workload there, so the
emitted JSON carries both baseline and optimized timings from the same
machine.  Older trees without the parallel/cache engine are detected and
measured in their only mode (serial, uncached).

``--smoke`` is the CI quick mode: trace microbench (with bit-identity
asserted between the two generator paths), the ingest+synth microbench
(text/binary/streamed column identity asserted), one serial-uncached
suite, and the per-cell replay parity gate, exiting non-zero when the
hot path regresses below its required speedup.

``--check-sim`` runs just the per-cell gate: every (workload, scheme)
replay is re-measured and the run fails if any cell's ``auto`` engine
drops below 1.0x vs stepwise (the invariant ``BENCH_sim.json`` records).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return round(time.perf_counter() - t0, 3)


def _time_us(fn) -> float:
    """Microsecond-resolution timing for millisecond-scale replays."""
    t0 = time.perf_counter()
    fn()
    return round(time.perf_counter() - t0, 6)


def collect_timings() -> dict[str, float]:
    """Time the engine's entry points on whatever tree PYTHONPATH selects."""
    from repro.experiments import fig5_6, fig7_8
    from repro.experiments.runner import ExperimentContext

    try:
        ExperimentContext(cache=False)
        legacy = False
    except TypeError:  # pre-engine tree: serial and uncached is all it has
        legacy = True

    def fresh_ctx(**kw):
        return ExperimentContext() if legacy else ExperimentContext(**kw)

    def sweeps(ctx):
        fig5_6.run(ctx)
        fig7_8.run(ctx)

    timings = {
        "all_suites_serial_uncached": _time(
            lambda: fresh_ctx(cache=False).all_suites()
        ),
        "sweeps_serial_uncached": _time(lambda: sweeps(fresh_ctx(cache=False))),
    }
    if legacy:
        return timings

    from repro.cache import ResultCache

    timings["all_suites_parallel_uncached"] = _time(
        lambda: fresh_ctx(jobs=0, cache=False).all_suites()
    )
    with tempfile.TemporaryDirectory(prefix=".bench-cache-", dir=REPO) as td:
        timings["all_suites_cold_cache"] = _time(
            lambda: fresh_ctx(cache=ResultCache(td)).all_suites()
        )
        timings["all_suites_warm_cache"] = _time(
            lambda: fresh_ctx(cache=ResultCache(td)).all_suites()
        )
        timings["sweeps_cold_cache"] = _time(
            lambda: sweeps(fresh_ctx(cache=ResultCache(td)))
        )
        timings["sweeps_warm_cache"] = _time(
            lambda: sweeps(fresh_ctx(cache=ResultCache(td)))
        )
    return timings


def collect_trace_timings(repeats: int = 3) -> dict:
    """Time trace generation per bundled workload: seed algorithm vs
    columnar pipeline.

    The seed path (per-line cache walk, one ``IORequest`` object per chunk)
    is retained in-tree as ``generate_trace_reference``, so both sides run
    on the current tree with identical analysis inputs — the comparison
    isolates exactly the generator rewrite.  Bit-identity of the two
    streams is asserted as a side effect.
    """
    from repro.layout.files import default_layout
    from repro.trace.generator import generate_trace, generate_trace_reference
    from repro.workloads import all_workloads

    per_workload: dict[str, dict] = {}
    seed_total = 0.0
    opt_total = 0.0
    for wl in all_workloads():
        layout = default_layout(wl.program.arrays, num_disks=4)
        inputs = (wl.program, layout, wl.trace_options)
        ref = generate_trace_reference(*inputs)
        opt = generate_trace(*inputs)
        if opt.requests != ref.requests:  # pragma: no cover - equivalence bug
            raise SystemExit(f"trace mismatch on {wl.name}: bench aborted")
        seed_s = min(_time(lambda: generate_trace_reference(*inputs))
                     for _ in range(repeats))
        opt_s = min(_time(lambda: generate_trace(*inputs))
                    for _ in range(repeats))
        seed_total += seed_s
        opt_total += opt_s
        per_workload[wl.name] = {
            "num_requests": ref.num_requests,
            "seed_s": seed_s,
            "optimized_s": opt_s,
            "speedup": round(seed_s / opt_s, 2) if opt_s else None,
        }
    return {
        "per_workload": per_workload,
        "totals_s": {"seed": round(seed_total, 3), "optimized": round(opt_total, 3)},
        "speedup": round(seed_total / opt_total, 2) if opt_total else None,
    }


def collect_ingest_timings(repeats: int = 3, num_requests: int = 50_000) -> dict:
    """Time recorded-trace ingestion and the synthetic generator.

    One record set is serialized in both on-disk formats and each is timed
    through parse → normalize, plus the chunked streaming reader and a
    same-size ``synth_stream`` pass.  Bit-identity — text vs binary columns,
    and streamed chunks concatenating to the whole-file ingest (binary, and
    two passes over the text stream's spill) — is asserted as a side
    effect; the smoke mode runs this cell as its ingest gate.
    """
    import numpy as np

    from repro.trace.ingest import (
        ingest_trace,
        stream_ingest,
        write_binary_records,
        write_text_records,
    )
    from repro.trace.synth import SynthConfig, synth_stream

    rng = np.random.default_rng(12345)
    arrivals = np.cumsum(rng.exponential(1.0 / 2000.0, num_requests))
    devices = rng.integers(0, 8, num_requests)
    lbas = rng.integers(0, 1 << 20, num_requests) * 8
    sizes = rng.choice([4096, 8192, 65536], num_requests)
    writes = rng.random(num_requests) < 0.3
    records = [
        (float(a), int(d), int(l), int(s), bool(w))
        for a, d, l, s, w in zip(arrivals, devices, lbas, sizes, writes)
    ]
    fields = (
        "nominal_time_s", "array_id", "offset", "nbytes", "is_write",
        "nest", "iteration",
    )
    config = SynthConfig(num_requests=num_requests, num_disks=8, model="onoff")

    def consume_synth():
        for _ in synth_stream(config).iter_chunks():
            pass

    with tempfile.TemporaryDirectory(prefix=".bench-ingest-") as td:
        tp = Path(td) / "bench.trace"
        bp = Path(td) / "bench.btrace"
        write_text_records(tp, records)
        write_binary_records(bp, records)
        ct = ingest_trace(tp, num_disks=8).columns
        cb = ingest_trace(bp, num_disks=8).columns
        for f in fields:
            if not np.array_equal(getattr(ct, f), getattr(cb, f)):
                raise SystemExit(
                    f"ingest text/binary identity broken on {f}: bench aborted"
                )

        def consume_stream():
            for _ in stream_ingest(
                bp, num_disks=8, chunk_requests=8192
            ).iter_chunks():
                pass

        # The text stream is parsed once and replayed from its binary
        # spill, so two passes over it must both match the whole ingest.
        for path, whole, passes in ((bp, cb, 1), (tp, ct, 2)):
            streamed = stream_ingest(path, num_disks=8, chunk_requests=8192)
            for _ in range(passes):
                chunks = list(streamed.iter_chunks())
                for f in fields:
                    got = np.concatenate([getattr(c, f) for c in chunks])
                    if not np.array_equal(got, getattr(whole, f)):
                        raise SystemExit(
                            f"streamed {path.suffix} ingest identity broken "
                            f"on {f}: bench aborted"
                        )
        text_s = min(
            _time_us(lambda: ingest_trace(tp, num_disks=8))
            for _ in range(repeats)
        )
        binary_s = min(
            _time_us(lambda: ingest_trace(bp, num_disks=8))
            for _ in range(repeats)
        )
        stream_s = min(_time_us(consume_stream) for _ in range(repeats))
    synth_s = min(_time_us(consume_synth) for _ in range(repeats))
    return {
        "num_requests": num_requests,
        "text_ingest_s": text_s,
        "binary_ingest_s": binary_s,
        "binary_stream_s": stream_s,
        "synth_onoff_s": synth_s,
        "binary_ingest_per_s": (
            round(num_requests / binary_s) if binary_s else None
        ),
        "synth_per_s": round(num_requests / synth_s) if synth_s else None,
        "identity": "text == binary == streamed-chunk columns (asserted)",
    }


def _scheme_replay_setups(workload):
    """Per-scheme (trace, controller, collect_busy) triples for one workload.

    Trace generation, oracle derivation, and compiler planning all happen
    here, *outside* the timed region — the microbench isolates exactly the
    ``simulate()`` replay.
    """
    import numpy as np

    from repro.analysis.access import analyze_program
    from repro.analysis.cycles import compute_timing, measured_timing
    from repro.controllers.base import Controller
    from repro.controllers.compiler_directed import CompilerDirected
    from repro.controllers.drpm import ReactiveDRPM
    from repro.controllers.oracle import OracleDRPM, OracleTPM
    from repro.controllers.tpm import ReactiveTPM
    from repro.disksim.params import SubsystemParams
    from repro.disksim.replay import ReplayPlan
    from repro.disksim.simulator import simulate
    from repro.layout.files import default_layout
    from repro.power.insertion import plan_power_calls
    from repro.trace.generator import directives_at_positions, generate_trace

    params = SubsystemParams()
    program = workload.program
    layout = default_layout(program.arrays, num_disks=params.num_disks)
    accesses = analyze_program(program)
    timing = compute_timing(program)
    trace = generate_trace(
        program, layout, workload.trace_options, accesses=accesses, timing=timing
    )
    plan = ReplayPlan.for_trace(trace)
    base = simulate(
        trace, params, Controller(), collect_busy_intervals=True, plan=plan,
        engine="stepwise",
    )
    measured = measured_timing(
        program, trace.request_nests, np.asarray(base.request_responses)
    )
    setups = {
        "Base": (trace, Controller(), True),
        "TPM": (trace, ReactiveTPM(params.effective_tpm_threshold_s), False),
        "ITPM": (trace, OracleTPM(base, params), False),
        "DRPM": (trace, ReactiveDRPM(params.drpm), False),
        "IDRPM": (trace, OracleDRPM(base, params), False),
    }
    for scheme, kind in (("CMTPM", "tpm"), ("CMDRPM", "drpm")):
        cplan = plan_power_calls(
            program, layout, params, kind,
            estimation=workload.estimation, accesses=accesses, measured=measured,
        )
        directives = directives_at_positions(cplan.placements, timing)
        setups[scheme] = (
            trace.with_directives(directives), CompilerDirected(kind), False
        )
    return params, plan, setups


SIM_ENGINES = ("stepwise", "segmented", "auto")


def collect_sim_timings(repeats: int = 3, workloads=None) -> dict:
    """Time ``simulate()`` alone, per bundled workload and scheme, under
    each replay engine.

    Every scheme — including reactive DRPM (window heuristic lifted into
    the kernel) and the directive-dense DRPM family (directives applied
    as mirror boundary edits) — replays on the segmented engine under
    ``auto``; the per-scheme rows document where the batch kernels pay
    off.  Engines are timed round-robin *within* each repeat rather than
    all repeats of one engine back to back, so slow drift in machine
    speed lands evenly across engines before the per-engine minimum is
    taken.
    """
    from repro.disksim.simulator import (
        replay_coverage,
        reset_replay_coverage,
        simulate,
    )
    from repro.workloads import all_workloads

    per_workload: dict[str, dict] = {}
    totals = {eng: 0.0 for eng in SIM_ENGINES}
    reset_replay_coverage()
    for wl in workloads if workloads is not None else all_workloads():
        params, plan, setups = _scheme_replay_setups(wl)
        rows: dict[str, dict] = {}
        for scheme, (trace, ctrl, collect) in setups.items():
            best = {eng: float("inf") for eng in SIM_ENGINES}
            for _ in range(repeats):
                for eng in SIM_ENGINES:
                    took = _time_us(
                        lambda: simulate(
                            trace, params, ctrl,
                            collect_busy_intervals=collect, plan=plan, engine=eng,
                        )
                    )
                    if took < best[eng]:
                        best[eng] = took
            row: dict[str, float | None] = {}
            for eng in SIM_ENGINES:
                row[f"{eng}_s"] = best[eng]
                totals[eng] += best[eng]
            seg = row["segmented_s"]
            row["speedup_segmented"] = (
                round(row["stepwise_s"] / seg, 2) if seg else None
            )
            rows[scheme] = row
        per_workload[wl.name] = rows
    totals_r = {eng: round(t, 3) for eng, t in totals.items()}
    return {
        "per_workload": per_workload,
        "totals_s": totals_r,
        "speedup_auto": (
            round(totals["stepwise"] / totals["auto"], 2)
            if totals["auto"]
            else None
        ),
        "coverage": replay_coverage(),
    }


def write_sim_report(path: str | Path, repeats: int = 3) -> dict:
    sim = collect_sim_timings(repeats=repeats)
    payload = {
        "schema": 1,
        "bench": "simulator-only replay wall clock per scheme (seconds)",
        "command": "PYTHONPATH=src python tools/bench_engine.py",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus_available": _cpus(),
        },
        "engines": list(SIM_ENGINES),
        "note": (
            "simulate() only — trace generation, oracle derivation, and "
            "compiler planning run outside the timed region; every scheme "
            "replays segmented under auto (directives are mirror boundary "
            "edits, the reactive-DRPM window fold and TPM spin-down checks "
            "run in-kernel), with stepwise reserved for reactive "
            "per-completion controller hooks"
        ),
        "results": sim,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return sim


def write_trace_report(path: str | Path, repeats: int = 3) -> dict:
    trace = collect_trace_timings(repeats=repeats)
    ingest = collect_ingest_timings(repeats=repeats)
    payload = {
        "schema": 1,
        "bench": "serial uncached trace generation wall clock (seconds)",
        "command": "PYTHONPATH=src python tools/bench_engine.py",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus_available": _cpus(),
        },
        "baseline": {
            "path": "repro.trace.generator.generate_trace_reference",
            "note": "seed per-line algorithm, retained as the reference",
        },
        "optimized": {"path": "repro.trace.generator.generate_trace"},
        "results": trace,
        "ingest": ingest,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return {"trace": trace, "ingest": ingest}


#: Allowed slowdown of the obs-disabled engine vs the committed baseline.
OBS_OVERHEAD_TOLERANCE = 0.02

#: Allowed slowdown of a zero-rate fault plan vs no fault plan at all.
FAULT_OVERHEAD_TOLERANCE = 0.02


def collect_fault_overhead(repeats: int = 15, inner: int = 3) -> dict:
    """A/B the replay hot path: no fault plan vs an all-zero-rate plan.

    A ``FaultConfig`` whose every rate is zero still builds a
    :class:`~repro.faults.FaultPlan` and threads the flag checks through
    both engines, so this measures exactly the tax every faulted replay
    pays on its clean requests.  Each sample times ``inner`` back-to-back
    replays (the single replay is milliseconds).  Samples are taken in
    tight clean/zero *pairs* and the reported overhead is the median of
    the per-pair ratios: the two halves of a pair are adjacent in time,
    so machine-wide drift (cpufreq, a noisy container neighbour) hits
    both sides equally and cancels in the ratio — min-of-N on absolute
    times does not converge under that kind of drift.  The smoke mode
    gates the result at :data:`FAULT_OVERHEAD_TOLERANCE`.
    """
    from repro.disksim.params import SubsystemParams
    from repro.disksim.replay import ReplayPlan
    from repro.disksim.simulator import simulate
    from repro.faults import FaultConfig, FaultRates
    from repro.layout.files import default_layout
    from repro.trace.generator import generate_trace
    from repro.workloads import all_workloads

    wl = next(w for w in all_workloads() if w.name == "swim")
    params = SubsystemParams()
    layout = default_layout(wl.program.arrays, num_disks=params.num_disks)
    trace = generate_trace(wl.program, layout, wl.trace_options)
    plan = ReplayPlan.for_trace(trace)
    null = FaultConfig(rates=FaultRates())

    def one(faults):
        def run():
            for _ in range(inner):
                simulate(trace, params, plan=plan, engine=eng, faults=faults)

        return _time_us(run)

    repeats += repeats % 2  # even split between the two pair orderings
    rows: dict[str, dict] = {}
    for eng in ("stepwise", "segmented"):
        one(None), one(null)  # warm both paths before sampling
        cz, zc, clean, zero = [], [], [], []
        for i in range(repeats):
            # Alternate which side of the pair runs first: any systematic
            # second-runner penalty inflates the clean-first ratios and
            # deflates the zero-first ones symmetrically, so the geometric
            # mean of the two per-ordering medians cancels it.
            if i % 2:
                z, c = one(null), one(None)
                zc.append(z / c)
            else:
                c, z = one(None), one(null)
                cz.append(z / c)
            clean.append(c)
            zero.append(z)
        ratio = (statistics.median(cz) * statistics.median(zc)) ** 0.5
        rows[eng] = {
            "clean_s": min(clean),
            "zero_rate_s": min(zero),
            "overhead": round(ratio - 1.0, 4),
        }
    return rows


def check_fault_overhead(
    repeats: int = 24, inner: int = 3, attempts: int = 4
) -> tuple[bool, str]:
    """Gate the zero-rate fault path's cost on the replay hot loop.

    The measured quantity is a couple of percent of a few milliseconds,
    so a single noise burst (CI container neighbours) can push one
    attempt over the limit.  A genuine regression is persistent where a
    burst is not: the gate passes on the first attempt under the
    tolerance and fails only when every attempt is over it.
    """
    for attempt in range(1, attempts + 1):
        rows = collect_fault_overhead(repeats=repeats, inner=inner)
        worst = max(r["overhead"] for r in rows.values())
        if worst <= FAULT_OVERHEAD_TOLERANCE:
            break
    parts = ", ".join(
        f"{eng} {r['clean_s']*1e3:.1f}ms->{r['zero_rate_s']*1e3:.1f}ms "
        f"({r['overhead']:+.1%})"
        for eng, r in rows.items()
    )
    msg = (
        f"zero-rate fault overhead (swim replay x{inner}, "
        f"attempt {attempt}/{attempts}): {parts} "
        f"(limit {FAULT_OVERHEAD_TOLERANCE:.0%})"
    )
    return worst <= FAULT_OVERHEAD_TOLERANCE, msg


def check_sim_cells(
    baseline_path: str | Path, repeats: int = 3, attempts: int = 3
) -> tuple[bool, list[str]]:
    """Per-cell replay-speedup regression gate (``--check-sim``).

    Re-measures the simulator microbench on this machine and fails when
    any (workload, scheme) cell's ``auto`` engine falls below parity
    (speedup < 1.0x) against the stepwise reference — the invariant the
    committed ``BENCH_sim.json`` documents.  The committed file supplies
    the expected cell set, so a scheme silently dropping out of the bench
    also fails; absolute committed timings are *not* compared (they are
    only meaningful on the machine that produced them).

    Individual cells are milliseconds, so one noisy container neighbour
    can sink a single measurement; failing cells are re-measured up to
    ``attempts`` times (keeping each cell's best ratio) before the gate
    gives up, the same persistent-vs-burst reasoning as
    :func:`check_fault_overhead`.
    """
    from repro.workloads import all_workloads

    committed_cells = None
    base = Path(baseline_path)
    if base.exists():
        try:
            data = json.loads(base.read_text())
            committed_cells = {
                (wl, sc)
                for wl, rows in data["results"]["per_workload"].items()
                for sc in rows
            }
        except (KeyError, ValueError):
            committed_cells = None

    sim = collect_sim_timings(repeats=repeats)
    cells = {
        (wl, sc): row["stepwise_s"] / row["auto_s"]
        for wl, rows in sim["per_workload"].items()
        for sc, row in rows.items()
    }
    msgs = []
    ok = True
    if committed_cells is not None and committed_cells != set(cells):
        missing = sorted(committed_cells - set(cells))
        extra = sorted(set(cells) - committed_cells)
        msgs.append(
            f"cell set drifted from {base.name}: missing {missing}, "
            f"new {extra}"
        )
        ok = False
    elif committed_cells is None:
        msgs.append(f"no committed {base.name}; parity gate only")

    wl_by_name = {w.name: w for w in all_workloads()}
    failing = sorted(k for k, v in cells.items() if v < 1.0)
    for _ in range(attempts - 1):
        if not failing:
            break
        for wl_name in sorted({wl for wl, _ in failing}):
            again = collect_sim_timings(
                repeats=repeats, workloads=[wl_by_name[wl_name]]
            )
            for sc, row in again["per_workload"][wl_name].items():
                sp = row["stepwise_s"] / row["auto_s"]
                if sp > cells[(wl_name, sc)]:
                    cells[(wl_name, sc)] = sp
        failing = sorted(k for k, v in cells.items() if v < 1.0)

    worst = min(cells, key=cells.get)
    msgs.append(
        f"{len(cells)} cells, worst auto speedup "
        f"{cells[worst]:.2f}x ({worst[0]}/{worst[1]})"
    )
    for wl, sc in failing:
        msgs.append(f"CELL REGRESSION: {wl}/{sc} auto {cells[(wl, sc)]:.2f}x "
                    f"< 1.0x vs stepwise")
        ok = False
    return ok, msgs


def check_obs_overhead(repeats: int = 3) -> tuple[bool, str]:
    """Gate the disabled observability layer's cost on the full suite set.

    ``repro.obs`` must be free when off: every instrumented call site
    reduces to an attribute load plus a no-op call, and the per-RPM serve
    accounting is gated on a ``None`` check.  This measures
    ``all_suites_serial_uncached`` (min of ``repeats``, obs disabled — the
    default) and compares it against the committed ``BENCH_engine.json``
    baseline with the :data:`OBS_OVERHEAD_TOLERANCE` (2 %) tolerance.
    Returns ``(ok, message)``; missing/foreign baselines skip rather than
    fail (the committed numbers are only meaningful on the machine that
    produced them).
    """
    from repro import obs
    from repro.experiments.runner import ExperimentContext

    baseline_path = REPO / "BENCH_engine.json"
    if not baseline_path.exists():
        return True, "obs overhead: skipped (no BENCH_engine.json baseline)"
    try:
        committed = json.loads(baseline_path.read_text())
        baseline_s = committed["optimized"]["timings_s"][
            "all_suites_serial_uncached"
        ]
    except (KeyError, ValueError):
        return True, "obs overhead: skipped (baseline lacks the suite timing)"
    if obs.enabled():  # the gate measures the *disabled* path
        obs.disable()
    now_s = min(
        _time(lambda: ExperimentContext(cache=False).all_suites())
        for _ in range(repeats)
    )
    limit_s = baseline_s * (1.0 + OBS_OVERHEAD_TOLERANCE)
    msg = (
        f"obs-disabled all_suites_serial_uncached: {now_s:.3f}s "
        f"(baseline {baseline_s:.3f}s, limit {limit_s:.3f}s)"
    )
    return now_s <= limit_s, msg


def run_smoke() -> int:
    """Quick hot-path regression check for CI.

    Runs the trace microbench once per workload (asserting bit-identity of
    the two generator paths), the simulator microbench on one workload,
    plus one serial-uncached suite; fails when the columnar pipeline has
    lost its edge over the seed algorithm, the segmented replay engine
    has lost its edge on the directive-free Base replay, or the disabled
    observability layer costs more than the committed-baseline tolerance
    on the full suite set.
    """
    from repro.workloads import all_workloads

    trace = collect_trace_timings(repeats=1)
    for name, row in trace["per_workload"].items():
        print(f"  trace {name}: seed {row['seed_s']:.3f}s -> "
              f"optimized {row['optimized_s']:.3f}s ({row['speedup']}x)")
    # SystemExits when any ingest identity assertion fails.
    ingest = collect_ingest_timings(repeats=1, num_requests=20_000)
    print(f"  ingest+synth ({ingest['num_requests']} requests): "
          f"text {ingest['text_ingest_s']:.3f}s, "
          f"binary {ingest['binary_ingest_s']:.3f}s, "
          f"stream {ingest['binary_stream_s']:.3f}s, "
          f"synth {ingest['synth_onoff_s']:.3f}s — identities ok")
    wupwise = [wl for wl in all_workloads() if wl.name == "wupwise"]
    sim = collect_sim_timings(repeats=3, workloads=wupwise)
    base_row = sim["per_workload"]["wupwise"]["Base"]
    print(f"  sim wupwise Base: stepwise {base_row['stepwise_s']*1e3:.1f}ms -> "
          f"segmented {base_row['segmented_s']*1e3:.1f}ms "
          f"({base_row['speedup_segmented']}x)")
    suite_s = _time(lambda: _smoke_suite())
    print(f"  suite swim (serial, uncached): {suite_s:.3f}s")
    speedup = trace["speedup"] or 0.0
    print(f"  trace generation speedup: {speedup}x")
    failed = False
    if speedup < 2.0:
        print("SMOKE FAIL: columnar trace pipeline below 2x vs seed path")
        failed = True
    if (base_row["speedup_segmented"] or 0.0) < 1.2:
        print("SMOKE FAIL: segmented Base replay below 1.2x vs stepwise")
        failed = True
    else:
        print(f"  segmented Base replay speedup: "
              f"{base_row['speedup_segmented']}x")
    obs_ok, obs_msg = check_obs_overhead()
    print(f"  {obs_msg}")
    if not obs_ok:
        print("SMOKE FAIL: obs-disabled engine exceeds baseline tolerance")
        failed = True
    fault_ok, fault_msg = check_fault_overhead()
    print(f"  {fault_msg}")
    if not fault_ok:
        print("SMOKE FAIL: zero-rate fault plan exceeds replay overhead limit")
        failed = True
    sim_ok, sim_msgs = check_sim_cells(REPO / "BENCH_sim.json", repeats=2)
    for m in sim_msgs:
        print(f"  {m}")
    if not sim_ok:
        print("SMOKE FAIL: per-cell auto replay speedup below parity")
        failed = True
    if failed:
        return 1
    print("smoke ok")
    return 0


def _smoke_suite():
    from repro.experiments.runner import ExperimentContext

    ExperimentContext(cache=False).suite("swim")


def measure_ref(ref: str) -> dict[str, float]:
    """Measure ``ref`` in a temporary worktree (same machine, same tool)."""
    wt = REPO / ".bench-worktree"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(wt), ref],
        cwd=REPO,
        check=True,
        capture_output=True,
    )
    try:
        env = dict(os.environ, PYTHONPATH=str(wt / "src"))
        env.pop("REPRO_JOBS", None)
        env.pop("REPRO_CACHE", None)
        out = subprocess.run(
            [sys.executable, str(REPO / "tools" / "bench_engine.py"), "--timings-only"],
            env=env,
            cwd=wt,
            check=True,
            capture_output=True,
            text=True,
        )
        return json.loads(out.stdout)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(wt)],
            cwd=REPO,
            check=False,
            capture_output=True,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against",
        metavar="REF",
        default=None,
        help="git ref to benchmark as the baseline (in a temp worktree)",
    )
    parser.add_argument(
        "--timings-only",
        action="store_true",
        help="print the current tree's timings as JSON and exit",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: trace microbench + one suite, fail on regression",
    )
    parser.add_argument(
        "--check-sim",
        action="store_true",
        help="per-cell regression mode: re-measure every (workload, scheme) "
        "replay and fail if any cell's auto speedup drops below 1.0x "
        "vs stepwise (cell set from the committed BENCH_sim.json)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(REPO / "BENCH_engine.json"),
        help="where to write the report (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--trace-output",
        default=str(REPO / "BENCH_trace.json"),
        help="where to write the trace microbench (default: BENCH_trace.json)",
    )
    parser.add_argument(
        "--sim-output",
        default=str(REPO / "BENCH_sim.json"),
        help="where to write the simulator microbench (default: BENCH_sim.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    if args.check_sim:
        ok, msgs = check_sim_cells(args.sim_output)
        for m in msgs:
            print(m)
        print("check-sim ok" if ok else "check-sim FAILED")
        return 0 if ok else 1

    if args.timings_only:
        print(json.dumps(collect_timings()))
        return 0

    report = write_trace_report(args.trace_output)
    trace, ingest = report["trace"], report["ingest"]
    print(f"wrote {args.trace_output}")
    print(f"  trace generation (serial, uncached): "
          f"seed {trace['totals_s']['seed']:.3f}s -> "
          f"optimized {trace['totals_s']['optimized']:.3f}s "
          f"({trace['speedup']}x)")
    print(f"  ingest+synth ({ingest['num_requests']} requests): "
          f"text {ingest['text_ingest_s']:.3f}s, "
          f"binary {ingest['binary_ingest_s']:.3f}s "
          f"({ingest['binary_ingest_per_s']}/s), "
          f"synth {ingest['synth_onoff_s']:.3f}s "
          f"({ingest['synth_per_s']}/s)")

    sim = write_sim_report(args.sim_output)
    print(f"wrote {args.sim_output}")
    print(f"  simulator replays (all workloads x schemes): "
          f"stepwise {sim['totals_s']['stepwise']:.3f}s -> "
          f"auto {sim['totals_s']['auto']:.3f}s ({sim['speedup_auto']}x)")

    fault = collect_fault_overhead(repeats=24)
    worst_fault = max(r["overhead"] for r in fault.values())
    print(f"  zero-rate fault-path overhead (worst engine): {worst_fault:+.1%}")

    current = collect_timings()
    baseline = measure_ref(args.against) if args.against else None

    payload = {
        "schema": 1,
        "bench": "experiment engine end-to-end wall clock (seconds)",
        "command": "PYTHONPATH=src python tools/bench_engine.py --against <ref>",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus_available": _cpus(),
        },
        "optimized": {"timings_s": current},
        "fault_overhead": {
            "note": (
                "zero-rate FaultPlan vs no plan on the swim replay "
                "(x3 per sample, median of 24 order-balanced pairs); "
                f"gate: {FAULT_OVERHEAD_TOLERANCE:.0%}"
            ),
            "per_engine": fault,
        },
    }
    if baseline is not None:
        payload["baseline"] = {"ref": args.against, "timings_s": baseline}
        ref_suites = baseline.get("all_suites_serial_uncached")
        ref_sweeps = baseline.get("sweeps_serial_uncached")
        speedups = {}
        for mode, t in current.items():
            ref = ref_suites if mode.startswith("all_suites") else ref_sweeps
            if ref and t:
                speedups[mode] = round(ref / t, 2)
        payload["speedup_vs_baseline_serial"] = speedups

    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    for mode, t in current.items():
        print(f"  {mode}: {t:.3f}s")

    # Bench trajectory: every regeneration appends a machine-stamped
    # snapshot to BENCH_history.jsonl and reports >10% regressions.
    import bench_history

    for report_path in (args.trace_output, args.sim_output, args.output):
        for flag in bench_history.record(report_path):
            print(f"  REGRESSION {Path(report_path).name}: {flag}")
    return 0


def _cpus() -> int:
    try:
        from repro.experiments.parallel import available_cpus

        return available_cpus()
    except ImportError:  # pragma: no cover
        return os.cpu_count() or 1


if __name__ == "__main__":
    sys.exit(main())
