"""The benchmark's workloads, one set-up or one pass per process.

``bench/run.py`` starts this file once per set-up and once per pass::

    python bench/workloads.py '{"mode": "pass", "workload": "stream_scale", ...}'

and reads one JSON object from the last line of its standard output.  A
fresh process per pass is deliberate: every ``repro-experiments`` run pays
the import and module-memo warm-up, so a pass does too.  Each pass runs
single-threaded (``jobs=1``, no pipeline ring, observability off).

Workloads
---------
``paper_cold``
    All 20 paper artifacts through ``run_experiment`` into an empty
    result cache: planning, analysis, cache writes and directive-dense
    replays.
``paper_warm``
    The same 20 artifacts over a cache filled by one earlier cold pass:
    cache reads plus the work the cache does not cover.
``stream_scale``
    One streamed Base replay of the 256-disk x 10^7-request scale cell:
    chunked generation, per-chunk plans and the vector kernel.
``trace_ingest``
    ``run_trace_replay`` over two recorded-format traces written by the
    set-up from seeded synthetic columns: a binary Pareto trace replayed
    whole (with oracles) and a text on-off trace replayed streamed.

Every operation's output is checked after the timed region: rendered
artifacts against ``artifacts/<id>.txt`` or a sha256 pin, replay results
against a canonical digest pin (default seed) or, at other seeds, against
invariants that hold for any input.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import resource
import sys
import time
from pathlib import Path

from tracer import ROOT as TRACE_ROOT, Tracer, install, span_cost_s

WORKLOADS = ("paper_cold", "paper_warm", "stream_scale", "trace_ingest")
DEFAULT_SEED = 11

#: Operations per pass: artifacts rendered, or replays run.
OPS_PER_PASS = {"paper_cold": 20, "paper_warm": 20, "stream_scale": 1, "trace_ingest": 12}

SCALE_DISKS = 256
SCALE_REQUESTS = 10_000_000

PARETO_RECORDS = 100_000
ONOFF_RECORDS = 200_000
#: Schemes of the whole-trace (oracle-capable) and streamed sources, in the
#: order ``run_trace_replay`` runs them.
WHOLE_SCHEMES = ("Base", "TPM", "DRPM", "ITPM", "IDRPM", "CMTPM", "CMDRPM")
STREAMED_SCHEMES = ("Base", "TPM", "DRPM", "CMTPM", "CMDRPM")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "pins.json"


# ---------------------------------------------------------------------- #
# Canonical result digests
# ---------------------------------------------------------------------- #
def _canon(value, out: list[str]) -> None:
    if isinstance(value, float):
        out.append(value.hex())
    elif isinstance(value, bool) or value is None or isinstance(value, str):
        out.append(repr(value))
    elif isinstance(value, numbers.Integral):
        out.append(str(int(value)))
    elif dataclasses.is_dataclass(value):
        out.append(type(value).__name__ + "(")
        for f in dataclasses.fields(value):
            if f.compare:
                out.append(f.name + "=")
                _canon(getattr(value, f.name), out)
        out.append(")")
    elif isinstance(value, dict):
        out.append("{")
        for key in sorted(value):
            _canon(key, out)
            out.append(":")
            _canon(value[key], out)
        out.append("}")
    elif isinstance(value, (tuple, list)):
        out.append("[")
        for item in value:
            _canon(item, out)
            out.append(",")
        out.append("]")
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")


def result_digest(result, skip: tuple[str, ...] = ()) -> str:
    """sha256 over every compared field of a ``SimulationResult`` (floats
    as ``float.hex``), leaving out the top-level fields in ``skip``."""
    out: list[str] = []
    for f in dataclasses.fields(result):
        if f.compare and f.name not in skip:
            out.append(f.name + "=")
            _canon(getattr(result, f.name), out)
    return hashlib.sha256("|".join(out).encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


# ---------------------------------------------------------------------- #
# paper_cold / paper_warm
# ---------------------------------------------------------------------- #
def _paper_setup(spec: dict) -> None:
    from repro.experiments import cli, runner  # noqa: F401
    from repro import cache  # noqa: F401


def _cache_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*.pkl"))


def _paper_pass(spec: dict) -> dict:
    from repro.cache import ResultCache
    from repro.experiments.cli import EXPERIMENT_IDS, run_experiment
    from repro.experiments.runner import ExperimentContext

    cache_dir = Path(spec["cache_dir"])
    cache_dir.mkdir(parents=True, exist_ok=True)
    bytes_before = _cache_bytes(cache_dir)
    ctx = ExperimentContext(jobs=1, cache=ResultCache(cache_dir))
    rendered: dict[str, str] = {}
    errors: dict[str, str] = {}

    def work() -> None:
        for exp_id in EXPERIMENT_IDS:
            try:
                rendered[exp_id] = "".join(
                    rep.render() + "\n" for rep in run_experiment(exp_id, ctx)
                )
            except Exception as exc:  # an op that raises is a failed op
                errors[exp_id] = f"raised {type(exc).__name__}: {exc}"

    out = _timed(spec, work)
    out["failed"] = sorted(errors.items())
    out["failed"] += check_artifacts(rendered, load_pins()["artifacts_sha256"])
    out["ops"] = len(EXPERIMENT_IDS)
    out["cache"] = {
        "hits": ctx.result_cache.hits,
        "misses": ctx.result_cache.misses,
        "bytes_stored": _cache_bytes(cache_dir) - bytes_before,
    }
    return out


def check_artifacts(
    rendered: dict[str, str],
    pinned_sha256: dict[str, str],
    artifacts_dir: Path = ROOT / "artifacts",
) -> list[tuple[str, str]]:
    """Failed ``(artifact id, reason)`` pairs: a rendering must equal the
    committed ``artifacts/<id>.txt`` byte for byte, or its sha256 pin
    where no file is committed."""
    failed = []
    for exp_id, text in rendered.items():
        data = text.encode()
        path = artifacts_dir / f"{exp_id}.txt"
        if exp_id in pinned_sha256:
            if hashlib.sha256(data).hexdigest() != pinned_sha256[exp_id]:
                failed.append((exp_id, "differs from its sha256 pin"))
        elif not path.is_file():
            failed.append((exp_id, f"no committed {path.name} and no pin"))
        elif path.read_bytes() != data:
            failed.append((exp_id, f"differs from artifacts/{path.name}"))
    return failed


# ---------------------------------------------------------------------- #
# stream_scale
# ---------------------------------------------------------------------- #
def _scale_setup(spec: dict):
    from repro.experiments.scale import scale_cell

    return scale_cell(SCALE_DISKS, SCALE_REQUESTS)


def _scale_pass(spec: dict) -> dict:
    from repro.controllers.base import Controller
    from repro.disksim import simulator

    cell = _scale_setup(spec)
    results = []
    # Looked up at call time, so a traced pass calls the traced entry point.
    out = _timed(
        spec,
        lambda: results.append(
            simulator.simulate(cell.stream(), cell.params, Controller())
        ),
    )
    out["ops"] = 1
    if not results:
        out["failed"] = [("replay", f"raised {out['error']}")]
    elif results[0].num_requests != SCALE_REQUESTS:
        out["failed"] = [("replay", f"num_requests {results[0].num_requests}")]
    elif result_digest(results[0]) != load_pins()["stream_scale"]:
        out["failed"] = [("replay", "differs from its digest pin")]
    else:
        out["failed"] = []
    out["requests"] = SCALE_REQUESTS
    return out


# ---------------------------------------------------------------------- #
# trace_ingest
# ---------------------------------------------------------------------- #
def trace_paths(work: Path) -> tuple[Path, Path]:
    return work / "pareto.btrace", work / "onoff.trace"


def _records(config):
    """Recorded-format ``(arrival, device, lba, nbytes, is_write)`` rows of a
    synthetic workload: each request keeps the disk and the on-disk byte
    its 64 KiB-striped synthetic file would give it."""
    from repro.layout.files import DEFAULT_STRIPE_SIZE
    from repro.trace.synth import synth_trace
    from repro.util.units import SECTOR_BYTES

    cols = synth_trace(config).columns
    stripe, disks = DEFAULT_STRIPE_SIZE, config.num_disks
    unit = cols.offset // stripe
    device = unit % disks
    local = (unit // disks) * stripe + cols.offset % stripe
    return zip(
        cols.nominal_time_s.tolist(),
        device.tolist(),
        (local // SECTOR_BYTES).tolist(),
        cols.nbytes.tolist(),
        cols.is_write.tolist(),
    )


def _ingest_setup(spec: dict) -> None:
    from repro.experiments import trace_replay  # noqa: F401
    from repro.trace.ingest import write_binary_records, write_text_records
    from repro.trace.synth import SynthConfig

    seed = spec["seed"]
    binary, text = trace_paths(Path(spec["work"]))
    write_binary_records(
        binary, _records(SynthConfig(PARETO_RECORDS, model="pareto", seed=seed))
    )
    write_text_records(
        text,
        _records(
            SynthConfig(
                ONOFF_RECORDS, model="onoff", lba_skew=0.6, burst_len=5000,
                off_s=40, seed=seed,
            )
        ),
    )


def _ingest_pass(spec: dict) -> dict:
    from repro.cache import ResultCache
    from repro.experiments.runner import ExperimentContext
    from repro.experiments.trace_replay import TraceSource, run_trace_replay

    class Capture(ResultCache):
        """A result cache that never hits and keeps every stored result in
        order, so the bench can check each replay without a cache."""

        def __init__(self):
            super().__init__()
            self.stored: list = []

        def load(self, key):
            return None

        def store(self, key, payload):
            self.stored.append(payload)

    binary, text = trace_paths(Path(spec["work"]))
    sources = (
        TraceSource.from_file(binary),
        TraceSource(label=text.stem, path=str(text), streamed=True),
    )
    capture = Capture()
    ctx = ExperimentContext(jobs=1, cache=capture)
    out = _timed(spec, lambda: run_trace_replay(ctx, sources).render())
    expected = [(binary.stem, s, PARETO_RECORDS) for s in WHOLE_SCHEMES] + [
        (text.stem, s, ONOFF_RECORDS) for s in STREAMED_SCHEMES
    ]
    pins = load_pins()
    pinned = pins["trace_ingest"] if spec["seed"] == pins["trace_ingest_seed"] else None
    out["ops"] = len(expected)
    out["failed"] = check_ingest(capture.stored, expected, pinned)
    out["requests"] = sum(n for _label, _scheme, n in expected)
    return out


def check_ingest(results: list, expected: list, pinned: dict | None) -> list:
    """Failed ``(label/scheme, reason)`` pairs of one ``trace_ingest`` pass.

    Every replay must cover every record written and the degraded
    CMTPM/CMDRPM replays must equal their source's Base replay bit for bit
    (busy intervals aside, which only Base collects); at the pinned seed
    each replay's digest must also equal its pin.
    """
    failed = []
    base_digest: dict[str, str] = {}
    for i, (label, scheme, records) in enumerate(expected):
        op = f"{label}/{scheme}"
        if i >= len(results):
            failed.append((op, "never ran"))
            continue
        result = results[i]
        if result.scheme != scheme:
            failed.append((op, f"got a {result.scheme} result"))
            continue
        if result.num_requests != records:
            failed.append((op, f"num_requests {result.num_requests} != {records}"))
            continue
        bare = result_digest(result, skip=("scheme", "busy_intervals"))
        if scheme == "Base":
            base_digest[label] = bare
        elif scheme in ("CMTPM", "CMDRPM") and bare != base_digest.get(label):
            failed.append((op, "differs from its Base replay"))
            continue
        if pinned is not None and result_digest(result) != pinned.get(op):
            failed.append((op, "differs from its digest pin"))
    return failed


# ---------------------------------------------------------------------- #
# Process entry
# ---------------------------------------------------------------------- #
SETUP = {
    "paper_cold": _paper_setup,
    "paper_warm": _paper_setup,
    "stream_scale": _scale_setup,
    "trace_ingest": _ingest_setup,
}
PASS = {
    "paper_cold": _paper_pass,
    "paper_warm": _paper_pass,
    "stream_scale": _scale_pass,
    "trace_ingest": _ingest_pass,
}


def _timed(spec: dict, work) -> dict:
    """Run ``work()`` once and time it; with ``spec["trace"]`` the layer
    tracer is installed around it and the pass's spans are returned."""
    from repro.disksim.simulator import replay_coverage

    tracer = Tracer() if spec.get("trace") else None
    restore = install(tracer) if tracer is not None else None
    cov0 = replay_coverage()
    error = None
    try:
        t0 = time.perf_counter()
        if tracer is not None:
            root = tracer.begin(TRACE_ROOT)
        try:
            work()
        except Exception as exc:  # the caller counts missing outputs as failed
            error = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end(root)
        wall = time.perf_counter() - t0
    finally:
        if restore is not None:
            restore()
    cov1 = replay_coverage()
    out = {
        "wall_s": wall,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "coverage": {k: cov1[k] - cov0.get(k, 0) for k in cov1},
        "error": error,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["span_cost_s"] = span_cost_s()
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    workload = spec["workload"]
    if spec["mode"] == "setup":
        SETUP[workload](spec)
        out = {"setup_s": time.monotonic() - spec["t_spawn"]}
    else:
        out = PASS[workload](spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
