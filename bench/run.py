#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload paper_cold [--seed 11] [--seconds 20] \\
        [--trace 0|1] [--record runs.jsonl]

A run sets the workload's inputs up three times in fresh processes
(``setup_s`` is the median), then times passes — each in a fresh,
single-threaded process — until ``--seconds`` would be exceeded, with at
least three passes.  Every output of every pass is checked (see
``bench/workloads.py``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, measured with tracing off; with
``--trace 1`` the per-layer metrics of a traced run, whose spans are also
written as Chrome trace-event JSON to ``.bench_out/trace-<workload>.json``.

The exit status is 0 only when every operation succeeded and matched its
pinned output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from compare import quartiles
from tracer import LAYERS, ROOT as TRACE_ROOT, chrome_events, layer_table
from workloads import DEFAULT_SEED, OPS_PER_PASS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 3
SETUPS = 5
CHILD_TIMEOUT_S = 150

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

_COVERAGE_COUNTS = (
    "subrequests_vector", "subrequests_scalar", "subrequests_stepwise",
    "directive_edits", "bailouts", "segments_fused",
)

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "traced.wall_s": "s",
    "tracing_overhead_frac": "ratio",
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_frac": "ratio" for layer in (*LAYERS, TRACE_ROOT)},
    "disksim.us_per_subrequest": "us",
    "disksim.subrequests": "count",
    **{f"disksim.{key}": "count" for key in _COVERAGE_COUNTS},
    "disksim.vector_frac": "ratio",
    "disksim.escapes": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes_stored": "bytes",
}


class BenchError(RuntimeError):
    """A set-up step failed, so nothing could be measured."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_OBS", None)
    env.update(
        REPRO_JOBS="1", REPRO_CACHE="0", OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def spawn(spec: dict) -> dict | None:
    """Run one set-up or pass in a fresh process; its JSON result, or
    ``None`` (with the reason on stderr) when the process failed."""
    spec = {**spec, "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {spec['mode']} timed out after {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: {spec['mode']} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_workload(args: argparse.Namespace, work: Path) -> dict:
    """Set up, prefill (``paper_warm``) and time the passes of one run."""
    base = {"workload": args.workload, "seed": args.seed, "work": str(work)}
    setups = []
    for _ in range(1 if args.trace else SETUPS):
        res = spawn({**base, "mode": "setup"})
        if res is None:
            raise BenchError("set-up failed")
        setups.append(res["setup_s"])

    prefill_s = None
    if args.workload == "paper_warm":
        t0 = time.monotonic()
        res = spawn({**base, "mode": "pass", "workload": "paper_cold",
                     "cache_dir": str(work / "cache")})
        prefill_s = time.monotonic() - t0
        if res is None or res["failed"]:
            raise BenchError("prefilling the result cache failed")

    passes: list[dict | None] = []
    t_start = time.monotonic()
    while True:
        spec = {**base, "mode": "pass", "trace": bool(args.trace)}
        if args.workload == "paper_cold":
            spec["cache_dir"] = str(work / f"cache-{len(passes)}")
        elif args.workload == "paper_warm":
            spec["cache_dir"] = str(work / "cache")
        res = spawn(spec)
        if res is not None and res.get("error"):
            print(f"bench: pass raised {res['error']}", file=sys.stderr)
        passes.append(res)
        if args.workload == "paper_cold":
            shutil.rmtree(spec["cache_dir"], ignore_errors=True)
        elapsed = time.monotonic() - t_start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    return {"setups": setups, "prefill_s": prefill_s, "passes": passes}


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = res["spans"]
    wall = spans[0][2] - spans[0][1]
    table = layer_table(spans)
    cov = res["coverage"]
    sub = sum(cov[k] for k in ("subrequests_vector", "subrequests_scalar",
                               "subrequests_stepwise"))
    cache = res.get("cache", {"hits": 0, "misses": 0, "bytes_stored": 0})
    lookups = cache["hits"] + cache["misses"]
    sim_self = table.get("disksim.simulate", {"self_s": 0.0})["self_s"]
    out = {
        "traced.wall_s": wall,
        "tracing_overhead_frac": (len(spans) - 1) * res["span_cost_s"] / wall,
        "disksim.us_per_subrequest": sim_self / sub * 1e6 if sub else 0.0,
        "disksim.subrequests": sub,
        **{f"disksim.{key}": cov[key] for key in _COVERAGE_COUNTS},
        "disksim.vector_frac": cov["subrequests_vector"] / sub if sub else 0.0,
        "disksim.escapes": sum(v for k, v in cov.items() if k.startswith("fallback_")),
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.bytes_stored": cache["bytes_stored"],
    }
    for layer in (*LAYERS, TRACE_ROOT):
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        if layer != TRACE_ROOT:
            out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_frac"] = row["self_s"] / wall
    return out


def print_layer_table(res: dict) -> None:
    spans = res["spans"]
    wall = spans[0][2] - spans[0][1]
    table = layer_table(spans)
    print(f"  {'layer':<22}{'calls':>8}{'self_s':>10}{'share':>8}")
    total = 0.0
    for layer in (*LAYERS, TRACE_ROOT):
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        total += row["self_s"]
        label = f"{layer} (rest)" if layer == TRACE_ROOT else layer
        print(f"  {label:<22}{row['calls']:>8}{row['self_s']:>10.4f}"
              f"{row['self_s'] / wall:>8.1%}")
    print(f"  {'sum of self times':<30}{total:>10.4f}   traced wall {wall:.4f} s")
    print(f"  tracing_overhead_frac {layer_metrics(res)['tracing_overhead_frac']:.5f}"
          f" ({len(spans) - 1} spans x {res['span_cost_s'] * 1e6:.2f} us)")


def machine_stamp() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def summarize(args: argparse.Namespace, run: dict) -> dict:
    """Print the human-readable report and return the result object."""
    w = args.workload
    done = [p for p in run["passes"] if p is not None]
    attempted = failed = 0
    for p in run["passes"]:
        attempted += p["ops"] if p is not None else OPS_PER_PASS[w]
        failed += len(p["failed"]) if p is not None else OPS_PER_PASS[w]
        for op, reason in (p or {}).get("failed", ()):
            print(f"bench: FAILED {w}/{op}: {reason}", file=sys.stderr)
    if not done:
        raise BenchError("every pass failed")

    walls = [p["wall_s"] for p in done]
    print(f"workload {w}  seed {args.seed}  trace {args.trace}  passes {len(done)}"
          f"  ops {attempted} ({failed} failed, frac {failed / attempted:.3f})")
    if args.trace:
        order = sorted(range(len(done)), key=lambda i: walls[i])
        median_pass = done[order[(len(order) - 1) // 2]]
        print_layer_table(median_pass)
        values = layer_metrics(median_pass)
        units = PER_LAYER
        with open(OUT_DIR / f"trace-{w}.json", "w", encoding="utf-8") as fh:
            json.dump({
                "traceEvents": chrome_events([p["spans"] for p in done]),
                "displayTimeUnit": "ms",
                "metadata": {"workload": w, "seed": args.seed},
            }, fh)
    else:
        values = {
            "setup_s": statistics.median(run["setups"]),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": statistics.median(p["rss_mib"] for p in done),
        }
        units = END_TO_END
        for name, samples in (("setup_s", run["setups"]), ("wall_s", walls)):
            q1, q2, q3 = quartiles(samples)
            print(f"  {name:<16}{q2:>10.4f} s   n={len(samples)}  q1 {q1:.4f}  q3 {q3:.4f}")
        print(f"  {'peak_rss_mib':<16}{values['peak_rss_mib']:>10.1f} MiB")
        if run["prefill_s"] is not None:
            print(f"  {'prefill_s':<16}{run['prefill_s']:>10.4f} s   (untimed cold pass)")
        if "requests" in done[0]:
            print(f"  {'requests_per_s':<16}{done[0]['requests'] / values['wall_s']:>10.0f}"
                  f" req/s   ({done[0]['requests']} logical requests per pass)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives the trace_ingest inputs (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure passes for about this long (at least "
                        f"{MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--record", metavar="PATH",
                        help="append this run's result as one JSON line")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: no repro sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = run_workload(args, work)
        result = summarize(args, run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "machine": machine_stamp(), **result,
                "samples": {
                    "setup_s": run["setups"],
                    "wall_s": [p["wall_s"] for p in run["passes"] if p is not None],
                },
            }) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
