#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage (from the repository root)::

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds results appended by ``bench/run.py --record``; A is the
reference (the parent commit), B the candidate.  One row is printed per
(workload, metric) with each side's median, quartiles and sample count,
and a verdict:

* metrics with a bound in ``BENCHMARK.json``: *worse* / *better* when B's
  median moved past the bound, *unchanged* inside it, and *unresolved*
  when either side's run-to-run spread (interquartile range over median)
  exceeds the bound — unless every B run beats every A run;
* counts compare exactly: *unchanged* only when every run on both sides
  reads the same value, *unresolved* when a side does not repeat;
* other per-layer metrics have no bound and print ``-``.

``ops_failed`` (failed operations per run) is compared as a count.  The
exit status is 1 when any row is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORSE, BETTER, UNCHANGED, UNRESOLVED, UNBOUNDED = (
    "worse", "better", "unchanged", "unresolved", "-",
)


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict[str, dict]:
    """Metric name -> its ``BENCHMARK.json`` entry (end-to-end and per-layer)."""
    spec = json.loads(path.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics["ops_failed"] = {"name": "ops_failed", "unit": "count", "better": "lower"}
    return metrics


def load_runs(path: str | Path) -> tuple[dict[tuple[str, str], list[float]], list[dict]]:
    """``{(workload, metric): [value per run]}`` and the machine stamps."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    machines = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
        values[(run["workload"], "ops_failed")].append(run["failed"])
        if run.get("machine") not in machines:
            machines.append(run.get("machine"))
    return dict(values), machines


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: list[float], b: list[float], better: str, unit: str,
            bound: float | None) -> tuple[str, float]:
    """(verdict, change) of B against A; ``change`` is the relative median
    move, positive when B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else sign * float("inf"))
    if unit == "count":
        if len(set(a)) > 1 or len(set(b)) > 1:
            return UNRESOLVED, change
        if a[0] == b[0]:
            return UNCHANGED, change
        return (WORSE if change > 0 else BETTER), change
    if bound is None:
        return UNBOUNDED, change
    all_better = max(b) < min(a) if sign > 0 else min(b) > max(a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return UNRESOLVED, change
    if change > bound:
        return WORSE, change
    if change < -bound:
        return BETTER, change
    return UNCHANGED, change


def compare(a_path: str, b_path: str, spec: dict[str, dict]) -> dict:
    a, a_machines = load_runs(a_path)
    b, b_machines = load_runs(b_path)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        meta = spec.get(name)
        if meta is None:
            continue
        v, change = verdict(a[key], b[key], meta["better"], meta["unit"], meta.get("bound"))
        rows.append({
            "workload": workload, "metric": name, "unit": meta["unit"],
            "bound": meta.get("bound"), "verdict": v, "change": change,
            "a": {"n": len(a[key]), "q1_median_q3": quartiles(a[key])},
            "b": {"n": len(b[key]), "q1_median_q3": quartiles(b[key])},
        })
    return {
        "a": {"file": str(a_path), "machines": a_machines},
        "b": {"file": str(b_path), "machines": b_machines},
        "rows": rows,
    }


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<14}{'metric':<32}{'A median [q1, q3] n':>40}"
          f"{'B median [q1, q3] n':>40}{'change':>9}{'bound':>7}  verdict")
    for r in rows:
        cells = []
        for side in ("a", "b"):
            q1, q2, q3 = r[side]["q1_median_q3"]
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {r[side]['n']}")
        bound = f"{r['bound']:.0%}" if r["bound"] is not None else "-"
        print(f"{r['workload']:<14}{r['metric']:<32}{cells[0]:>40}{cells[1]:>40}"
              f"{r['change']:>+9.1%}{bound:>7}  {r['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="reference runs (JSON lines)")
    parser.add_argument("b", help="candidate runs (JSON lines)")
    args = parser.parse_args(argv)
    result = compare(args.a, args.b, load_spec())
    for side in ("a", "b"):
        print(f"{side.upper()}: {result[side]['file']}")
        for machine in result[side]["machines"]:
            print(f"   {json.dumps(machine)}")
    print_rows(result["rows"])
    bad = [r for r in result["rows"] if r["verdict"] in (WORSE, UNRESOLVED)]
    print(f"{len(result['rows'])} rows, {len(bad)} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
