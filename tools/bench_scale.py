"""Scale-out replay benchmark; emits ``BENCH_scale.json``.

Run from the repository root::

    PYTHONPATH=src python tools/bench_scale.py [-o PATH]

Measures streamed replay throughput over the scale grid
(:data:`repro.experiments.scale.SCALE_DISKS` x
:data:`repro.experiments.scale.SCALE_REQUESTS` — disks in {8, 64, 256},
requests in {25k, 1M, 10M}) for the per-object stepwise engine and the
columnar segmented engine.  Cells up to :data:`PREMATERIALIZE_MAX`
requests pre-materialize their chunk list so the timed region is the
``simulate()`` replay alone; the 10M-request cells regenerate the trace
chunk stream inside the timed region (pre-materializing them would hold
~0.5 GB, defeating the bounded-memory design they exist to exercise), so
their throughput includes chunked generation and is labelled
``streamed-end-to-end``.

Every cell replays both engines from the same chunk sequence and records
whether the two :class:`~repro.disksim.simulator.SimulationResult`\\ s are
identical — the structure-of-arrays kernels are required to be bit-equal
to the per-object path at every scale.

``--smoke`` is the CI quick mode: the 25k-request column only, gating on
result identity, on the committed ``BENCH_scale.json``'s cell set, and on
the 256-disk segmented speedup staying above
:data:`SMOKE_MIN_SPEEDUP` (with re-measurement, since individual cells
are tens of milliseconds and CI neighbours are noisy — a genuine
regression is persistent, a noise burst is not).
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Cells at or below this many requests keep their chunk list in memory
#: and time the replay alone; larger cells stream end to end.
PREMATERIALIZE_MAX = 1_000_000

#: Smoke gate on the 256-disk, 25k-request cell's segmented speedup.
#: The full-grid acceptance bar is 4x on the 1M-request column; the smoke
#: cell is milliseconds, so the gate keeps head-room for timer noise
#: while still catching any real loss of the columnar kernels.
SMOKE_MIN_SPEEDUP = 2.0

ENGINES = ("stepwise", "segmented")


def _time_us(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return round(time.perf_counter() - t0, 6)


def _repeats(num_requests: int) -> int:
    if num_requests <= 100_000:
        return 3
    if num_requests <= PREMATERIALIZE_MAX:
        return 2
    return 1


def bench_cell(
    num_disks: int,
    num_requests: int,
    repeats: int | None = None,
) -> dict:
    """Measure one grid cell; returns the cell's JSON row.

    Engines are timed round-robin within each repeat (not all repeats of
    one engine back to back) so slow machine drift lands evenly across
    engines before the per-engine minimum is taken.
    """
    from repro.disksim.simulator import simulate
    from repro.experiments.scale import scale_cell
    from repro.trace.stream import TraceStream

    if repeats is None:
        repeats = _repeats(num_requests)
    cell = scale_cell(num_disks, num_requests)
    replay_only = num_requests <= PREMATERIALIZE_MAX
    if replay_only:
        chunks = list(cell.stream().iter_chunks())

        def stream() -> TraceStream:
            return TraceStream(
                cell.program.name, cell.layout, 0.0,
                chunks=lambda: iter(chunks),
            )
    else:
        stream = cell.stream

    results: dict[str, object] = {}
    best = {eng: float("inf") for eng in ENGINES}
    for _ in range(repeats):
        for eng in ENGINES:
            took = _time_us(
                lambda: results.__setitem__(
                    eng, simulate(stream(), cell.params, engine=eng)
                )
            )
            if took < best[eng]:
                best[eng] = took

    identical = results["stepwise"] == results["segmented"]
    row: dict[str, object] = {
        "num_disks": num_disks,
        "num_requests": num_requests,
        "chunk_requests": cell.chunk_requests,
        "mode": "replay-only" if replay_only else "streamed-end-to-end",
        "repeats": repeats,
        "identical": bool(identical),
    }
    rps = {}
    drps = {}
    for eng in ENGINES:
        row[f"{eng}_s"] = best[eng]
        rps[eng] = round(num_requests / best[eng])
        drps[eng] = round(num_disks * num_requests / best[eng])
    row["requests_per_s"] = rps
    row["disk_requests_per_s"] = drps
    row["speedup_segmented"] = round(best["stepwise"] / best["segmented"], 2)
    return row


def collect_grid(disks=None, requests=None) -> dict:
    from repro.experiments.scale import SCALE_DISKS, SCALE_REQUESTS

    disks = list(disks if disks is not None else SCALE_DISKS)
    requests = list(requests if requests is not None else SCALE_REQUESTS)
    cells = []
    for nr in requests:
        for nd in disks:
            row = bench_cell(nd, nr)
            cells.append(row)
            print(
                f"  {nd:4d} disks x {nr:>10,} requests [{row['mode']}]: "
                f"stepwise {row['stepwise_s']:.3f}s -> "
                f"segmented {row['segmented_s']:.3f}s "
                f"({row['speedup_segmented']}x, "
                f"{row['requests_per_s']['segmented']:,} req/s, "
                f"identical={row['identical']})"
            )
    return {"disks": disks, "requests": requests, "cells": cells}


def write_report(path: str | Path) -> dict:
    from repro.experiments.parallel import available_cpus

    grid = collect_grid()
    payload = {
        "schema": 1,
        "bench": "streamed replay throughput across (disks x requests) "
        "scale grid (seconds)",
        "command": "PYTHONPATH=src python tools/bench_scale.py",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": available_cpus(),
        },
        "engines": list(ENGINES),
        "note": (
            "replay-only cells pre-materialize the chunk list and time "
            "simulate() alone; streamed-end-to-end cells regenerate the "
            "chunk stream inside the timed region (bounded memory at 10M "
            "requests), so their throughput includes chunked trace "
            "generation.  'identical' asserts the segmented "
            "(structure-of-arrays) result equals the stepwise "
            "(per-object) result bit for bit at that scale."
        ),
        "results": grid,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return grid


def _committed_cells(path: Path):
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        return {
            (c["num_disks"], c["num_requests"]): c
            for c in data["results"]["cells"]
        }
    except (KeyError, TypeError, ValueError):
        return None


def run_smoke(baseline_path: Path, attempts: int = 3) -> int:
    """CI quick mode: 25k column, identity + speedup + cell-set gates."""
    from repro.experiments.scale import SCALE_DISKS, SCALE_REQUESTS

    failed = False
    committed = _committed_cells(baseline_path)
    if committed is None:
        print(f"  no committed {baseline_path.name}; measurement gates only")
    else:
        expected = {
            (nd, nr) for nr in SCALE_REQUESTS for nd in SCALE_DISKS
        }
        if set(committed) != expected:
            print(
                f"SMOKE FAIL: {baseline_path.name} cell set drifted: "
                f"missing {sorted(expected - set(committed))}, "
                f"extra {sorted(set(committed) - expected)}"
            )
            failed = True
        not_identical = [k for k, c in committed.items() if not c.get("identical")]
        if not_identical:
            print(
                f"SMOKE FAIL: committed {baseline_path.name} records "
                f"non-identical engine results at {sorted(not_identical)}"
            )
            failed = True

    smoke_requests = min(SCALE_REQUESTS)
    rows = {}
    for nd in SCALE_DISKS:
        row = bench_cell(nd, smoke_requests, repeats=3)
        rows[nd] = row
        print(
            f"  {nd:4d} disks x {smoke_requests:,} requests: "
            f"stepwise {row['stepwise_s']*1e3:.1f}ms -> "
            f"segmented {row['segmented_s']*1e3:.1f}ms "
            f"({row['speedup_segmented']}x, identical={row['identical']})"
        )
        if not row["identical"]:
            print(
                f"SMOKE FAIL: engines disagree at {nd} disks x "
                f"{smoke_requests} requests"
            )
            failed = True

    gate_disks = max(SCALE_DISKS)
    speedup = rows[gate_disks]["speedup_segmented"]
    for attempt in range(2, attempts + 1):
        if speedup >= SMOKE_MIN_SPEEDUP:
            break
        # Persistent-vs-burst: a real regression survives re-measurement,
        # one noisy container neighbour does not.  Keep the best ratio.
        again = bench_cell(gate_disks, smoke_requests, repeats=3)
        print(
            f"  re-measure {attempt}/{attempts}: "
            f"{again['speedup_segmented']}x"
        )
        speedup = max(speedup, again["speedup_segmented"])
        if not again["identical"]:
            print("SMOKE FAIL: engines disagree on re-measure")
            failed = True
    print(
        f"  gate: {gate_disks}-disk segmented speedup {speedup}x "
        f"(limit {SMOKE_MIN_SPEEDUP}x)"
    )
    if speedup < SMOKE_MIN_SPEEDUP:
        print(
            f"SMOKE FAIL: segmented replay below {SMOKE_MIN_SPEEDUP}x at "
            f"{gate_disks} disks"
        )
        failed = True
    if failed:
        return 1
    print("smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: 25k-request column, identity + speedup gates",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(REPO / "BENCH_scale.json"),
        help="where to write the report (default: BENCH_scale.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke(Path(args.output))

    grid = write_report(args.output)
    print(f"wrote {args.output}")
    import bench_history

    for flag in bench_history.record(args.output):
        print(f"  REGRESSION {Path(args.output).name}: {flag}")
    bad = [c for c in grid["cells"] if not c["identical"]]
    if bad:
        for c in bad:
            print(
                f"ENGINE MISMATCH: {c['num_disks']} disks x "
                f"{c['num_requests']} requests"
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
