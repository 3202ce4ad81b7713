"""Profile the experiment engine's hot path under cProfile.

Run from the repository root::

    PYTHONPATH=src python tools/profile_sim.py [workload ...] [--sort KEY]
                                               [--limit N] [--coverage]
                                               [--engine ENGINE]
    PYTHONPATH=src python tools/profile_sim.py --memory [--disks N]
                                               [--requests N,N,...]

With no arguments, profiles the full default suite set (every Table 2
benchmark under all 7 schemes), serial and uncached — the same work
``ExperimentContext.all_suites()`` does on a cold run.  Prints the top
functions by ``tottime`` (override with ``--sort cumulative`` etc.).
``--coverage`` additionally prints the replay-engine coverage counters
plus a breakdown of where sub-requests ran (vector/scalar/stepwise) and
*why* work left the batch kernels — the ``fallback_*`` escape reasons and
the window-level bailout counters; ``--engine`` forces a replay engine
(default ``auto``).

``--memory`` switches to the bounded-memory verification instead of
cProfile: it replays synthetic scale cells
(:mod:`repro.experiments.scale`) as chunked streams under ``tracemalloc``
and reports the Python-heap peak plus the process's ``ru_maxrss`` at each
trace length.  Because the streamed pipeline holds one chunk of columns
plus per-disk state, the heap peak must stay essentially flat from 10^6
to 10^7 requests — the run exits non-zero if it does not.  Scales run
smallest first, so a flat ``ru_maxrss`` across rows corroborates the
tracemalloc numbers (RSS never shrinks within a process).

This is the harness behind the numbers in docs/performance.md; use it to
check that a change actually moves the needle before trusting wall-clock
timings, and ``tools/bench_engine.py`` for the end-to-end measurement.
"""
from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def print_coverage_breakdown(cov: dict[str, int]) -> None:
    """Pretty-print the raw coverage counters plus a scalar-bailout digest.

    The digest answers the two tuning questions directly: *where did the
    sub-requests run* (vector / scalar kernel / stepwise escapes) and *why
    did work leave the batch kernels* (per-reason ``fallback_*`` escapes
    and window-level bailouts), so a routing change can be judged without
    mentally diffing sixteen counters.
    """
    print("replay engine coverage:")
    for key, value in cov.items():
        print(f"  {key}: {value}")

    sub_paths = (
        ("vector kernel", cov.get("subrequests_vector", 0)),
        ("scalar kernel", cov.get("subrequests_scalar", 0)),
        ("stepwise/exact", cov.get("subrequests_stepwise", 0)),
    )
    total_subs = sum(v for _, v in sub_paths)
    print("sub-request placement:")
    if total_subs:
        for name, value in sub_paths:
            print(f"  {name}: {value} ({100.0 * value / total_subs:.1f}%)")
    else:
        print("  (no sub-requests replayed)")

    fallbacks = {
        key[len("fallback_"):].replace("_", " "): value
        for key, value in cov.items()
        if key.startswith("fallback_")
    }
    total_fb = sum(fallbacks.values())
    print("scalar bailout reasons (escapes to the exact state machine):")
    if total_fb:
        for name, value in sorted(
            fallbacks.items(), key=lambda kv: kv[1], reverse=True
        ):
            if value:
                print(f"  {name}: {value} ({100.0 * value / total_fb:.1f}%)")
    else:
        print("  (none — every sub-request stayed on the batch kernels)")

    print("vector-window bailouts:")
    print(f"  rounding-guard exits: {cov.get('bailouts', 0)}")
    print(
        "  windows too short for the vector kernel: "
        f"{cov.get('windows_scalar_short_run', 0)}"
    )
    print(
        "  directives clamped mid-service: "
        f"{cov.get('directive_mid_service', 0)}"
    )

    import resource

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        f"process peak RSS: {rss_kib / 2**10:.1f} MiB "
        "(bounded-memory verification: tools/profile_sim.py --memory)"
    )


#: ``--memory`` fails if the Python-heap peak grows by more than this
#: factor while the request count grows 10x — a truly streaming replay
#: is chunk-bounded, so the expected growth is ~1.0x.
MEMORY_GROWTH_LIMIT = 2.0


def run_memory(
    engine: str,
    num_disks: int,
    requests_list: list[int],
    chunk_requests: int,
) -> int:
    """Verify streamed-replay peak memory is bounded by the chunk size."""
    import resource
    import time
    import tracemalloc

    from repro.disksim.simulator import simulate
    from repro.experiments.scale import scale_cell

    print(
        f"streamed replay memory profile: {num_disks} disks, "
        f"engine={engine}, chunk_requests={chunk_requests}"
    )
    rows = []
    for nr in sorted(requests_list):
        cell = scale_cell(num_disks, nr, chunk_requests=chunk_requests)
        tracemalloc.start()
        tracemalloc.reset_peak()
        t0 = time.perf_counter()
        res = simulate(cell.stream(), cell.params, engine=engine)
        took = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if res.num_requests != nr:  # pragma: no cover - replay bug
            print(f"ERROR: replayed {res.num_requests} of {nr} requests")
            return 1
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rows.append((nr, peak))
        print(
            f"  {nr:>12,} requests: tracemalloc peak {peak / 2**20:7.1f} MiB,"
            f" ru_maxrss {rss_kib / 2**10:7.1f} MiB, {took:7.2f}s"
        )
    if len(rows) >= 2:
        growth = rows[-1][1] / rows[0][1]
        scale = rows[-1][0] / rows[0][0]
        print(
            f"  heap-peak growth: {growth:.2f}x over a {scale:.0f}x longer "
            f"trace (limit {MEMORY_GROWTH_LIMIT}x)"
        )
        if growth > MEMORY_GROWTH_LIMIT:
            print("MEMORY FAIL: streamed replay peak grows with trace length")
            return 1
        print("bounded-memory check ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workloads",
        nargs="*",
        help="benchmark names to profile (default: all Table 2 workloads)",
    )
    parser.add_argument("--sort", default="tottime", help="pstats sort key")
    parser.add_argument(
        "--limit", type=int, default=25, help="rows of profile output"
    )
    parser.add_argument(
        "--coverage",
        action="store_true",
        help="print the replay-engine coverage counters after the run",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="run with repro.obs enabled and print the metric snapshot "
        "(engine selection, fallbacks, per-RPM service counts, cache)",
    )
    parser.add_argument(
        "--engine",
        default="auto",
        choices=("auto", "stepwise", "segmented"),
        help="replay engine to profile (default: auto)",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="verify streamed-replay peak memory stays bounded across "
        "trace lengths (tracemalloc + ru_maxrss on scale cells)",
    )
    parser.add_argument(
        "--disks",
        type=int,
        default=256,
        help="disk count for --memory scale cells (default: 256)",
    )
    parser.add_argument(
        "--requests",
        default="1000000,10000000",
        help="comma-separated request counts for --memory "
        "(default: 1000000,10000000)",
    )
    parser.add_argument(
        "--chunk-requests",
        type=int,
        default=65536,
        help="streaming chunk size for --memory (default: 65536)",
    )
    args = parser.parse_args(argv)

    if args.memory:
        try:
            requests_list = [
                int(r) for r in args.requests.split(",") if r.strip()
            ]
        except ValueError:
            parser.error(f"bad --requests list {args.requests!r}")
        return run_memory(
            args.engine if args.engine != "auto" else "segmented",
            args.disks,
            requests_list,
            args.chunk_requests,
        )

    from repro import obs
    from repro.disksim.simulator import replay_coverage, reset_replay_coverage
    from repro.experiments.schemes import run_workload
    from repro.workloads.registry import WORKLOAD_NAMES, build_workload

    names = list(args.workloads) or list(WORKLOAD_NAMES)
    unknown = set(names) - set(WORKLOAD_NAMES)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; choose from {WORKLOAD_NAMES}")
    workloads = [build_workload(n) for n in names]

    if args.metrics:
        # Note: observability adds per-replay bookkeeping, so profile rows
        # are no longer strictly comparable to a --metrics-free run.
        obs.enable()
    reset_replay_coverage()
    profiler = cProfile.Profile()
    profiler.enable()
    for wl in workloads:
        run_workload(wl, engine=args.engine)
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.coverage:
        print_coverage_breakdown(replay_coverage())
    if args.metrics:
        snap = obs.metrics.snapshot()
        print("metric snapshot:")
        for key in sorted(snap["counters"]):
            print(f"  {key}: {snap['counters'][key]}")
        for key in sorted(snap["histograms"]):
            h = snap["histograms"][key]
            print(
                f"  {key}: count={h['count']} sum={h['sum']:.4f}s "
                f"max={h['max']:.4f}s"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
