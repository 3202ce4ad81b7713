"""Replay recorded / synthetic block-I/O workloads under the scheme families.

The paper's experiments drive the simulator with traces *generated* from
loop nests; this suite drives it with **ingested** recorded traces
(:mod:`repro.trace.ingest`) and **synthetic** arrival-process workloads
(:mod:`repro.trace.synth`) instead, replayed **open-loop** (issue times
from the trace — ``simulate(..., open_loop=True)``).

Scheme semantics on external traces:

* ``Base``/``TPM``/``DRPM`` — unchanged: reactive policies need no
  compile-time knowledge.  They replay in one pass over the source: each
  chunk (a whole trace is one) is read and planned once and fed to each
  scheme's :class:`~repro.disksim.simulator.Replay` in turn, so a
  streamed source is read and planned once for all three.
* ``ITPM``/``IDRPM`` — the oracles derive from the Base replay's realized
  busy intervals, so they run only for whole-trace (non-streamed)
  sources; streamed sources skip them with a report note.
* ``CMTPM``/``CMDRPM`` — the compiler-directed schemes have no program IR
  to plan against on a recorded trace, so they **degrade to the
  documented no-directive baseline**: a compiler-directed replay with an
  empty directive stream is bit-identical to ``Base``, so the result is
  built from the Base result's columns (with its own ``scheme`` and no
  busy intervals) instead of replaying again; a test checks it against a
  real replay.  The degradation is explicit in the report notes and the
  run manifest, never silent.

Every replay is cached under a fingerprint that covers the trace source
content and every normalization parameter
(:func:`repro.cache.trace_fingerprint` with its ``source`` field), the
subsystem parameters, and the open-loop mode — cached results are reused
exactly when the same recorded bytes would replay the same way.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace
from pathlib import Path

from .. import obs
from ..cache import fingerprint, trace_fingerprint
from ..disksim.replay import ReplayPlan
from ..disksim.simulator import Replay, simulate
from ..disksim.stats import SimulationResult
from ..trace.ingest import ingest_fingerprint, ingest_trace, stream_ingest
from ..trace.synth import SynthConfig, synth_stream, synth_trace
from ..util.errors import ReproError
from .report import ExperimentReport
from .schemes import controller_for

__all__ = [
    "TRACE_REPLAY_SCHEMES",
    "TraceSource",
    "default_sources",
    "last_manifest_section",
    "parse_synth_spec",
    "run_trace_replay",
]

#: Scheme presentation order of the suite (paper §4.2 order).
TRACE_REPLAY_SCHEMES: tuple[str, ...] = (
    "Base", "TPM", "ITPM", "DRPM", "IDRPM", "CMTPM", "CMDRPM",
)

#: Sources at or above this many requests replay streamed (bounded
#: memory); below it the trace is materialized whole, which the oracle
#: schemes need (they read Base's realized busy intervals).
STREAM_THRESHOLD_REQUESTS = 200_000

#: Manifest section of the most recent :func:`run_trace_replay` in this
#: process (consumed by the CLI's run-manifest writer; ``None`` until the
#: suite runs).
_LAST_MANIFEST: dict | None = None


@dataclass(frozen=True)
class TraceSource:
    """One workload of the suite: a recorded file or a synthetic config.

    Exactly one of ``path``/``synth`` is set.  ``streamed`` selects the
    bounded-memory replay path (forced for large synthetic workloads);
    streamed sources skip the oracle schemes.
    """

    label: str
    path: str | None = None
    fmt: str = "auto"
    mapping: str = "modulo"
    synth: SynthConfig | None = None
    streamed: bool = False

    def __post_init__(self) -> None:
        if (self.path is None) == (self.synth is None):
            raise ReproError(
                "a TraceSource is either a recorded file (path=) or a "
                "synthetic config (synth=), not both or neither"
            )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_file(
        cls, path: str | Path, fmt: str = "auto", mapping: str = "modulo"
    ) -> "TraceSource":
        return cls(label=Path(path).stem, path=str(path), fmt=fmt, mapping=mapping)

    @classmethod
    def from_synth(cls, config: SynthConfig) -> "TraceSource":
        return cls(
            label=f"synth-{config.model}-{config.num_requests}",
            synth=config,
            streamed=config.num_requests >= STREAM_THRESHOLD_REQUESTS,
        )

    # ------------------------------------------------------------------ #
    def source_fingerprint(self, num_disks: int) -> str:
        """Content digest of this source under one subsystem width."""
        if self.path is not None:
            return ingest_fingerprint(
                self.path, self.fmt, self.mapping, num_disks
            )
        return self.synth.describe()

    def load(self, num_disks: int):
        """The replayable trace: whole for oracle-capable sources,
        a bounded-memory stream otherwise."""
        if self.path is not None:
            if self.streamed:
                return stream_ingest(
                    self.path, num_disks, self.fmt, self.mapping
                )
            return ingest_trace(self.path, num_disks, self.fmt, self.mapping)
        if self.streamed:
            return synth_stream(self.synth)
        return synth_trace(self.synth)

    def describe(self) -> dict:
        """Manifest entry for this source."""
        if self.path is not None:
            return {
                "label": self.label,
                "kind": "ingest",
                "path": self.path,
                "format": self.fmt,
                "mapping": self.mapping,
                "streamed": self.streamed,
            }
        return {
            "label": self.label,
            "kind": "synth",
            "config": self.synth.describe(),
            "streamed": self.streamed,
        }


def parse_synth_spec(spec: str) -> SynthConfig:
    """Build a :class:`SynthConfig` from a ``key=value,...`` CLI spec.

    Keys are the config's field names (``n`` aliases ``num_requests``),
    e.g. ``--synth model=onoff,n=1000000,lba_skew=0.8,seed=7``.
    ``num_disks`` is filled in by the suite from the subsystem params.
    """
    fields = {
        "num_requests": int, "model": str, "rate_hz": float,
        "burst_len": float, "off_s": float, "pareto_alpha": float,
        "read_fraction": float, "lba_skew": float, "request_bytes": int,
        "file_bytes": int, "seed": int, "chunk_requests": int,
    }
    kwargs: dict = {"num_requests": 20_000}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ReproError(
                f"bad --synth item {item!r} (expected key=value)"
            )
        key, _, value = item.partition("=")
        key = key.strip()
        if key == "n":
            key = "num_requests"
        if key == "num_disks":
            raise ReproError(
                "--synth num_disks comes from the subsystem params"
            )
        conv = fields.get(key)
        if conv is None:
            raise ReproError(
                f"unknown --synth key {key!r} "
                f"(expected one of n, {', '.join(fields)})"
            )
        try:
            kwargs[key] = conv(value.strip())
        except ValueError as exc:
            raise ReproError(f"bad --synth value for {key}: {exc}") from exc
    return SynthConfig(**kwargs)


def default_sources() -> tuple[TraceSource, ...]:
    """The suite's workloads when the CLI passes no ``--trace-in``/
    ``--synth``: one Poisson and one bursty on-off synthetic stream, small
    enough for the oracle schemes to run."""
    return (
        TraceSource.from_synth(
            SynthConfig(num_requests=20_000, model="poisson", seed=11)
        ),
        TraceSource.from_synth(
            SynthConfig(
                num_requests=20_000, model="onoff", lba_skew=0.6, seed=11
            )
        ),
    )


def last_manifest_section() -> dict | None:
    """The manifest section of this process's most recent run."""
    return _LAST_MANIFEST


# ---------------------------------------------------------------------- #
def _replay_source(
    source: TraceSource, ctx
) -> tuple[dict[str, SimulationResult], list[str]]:
    """All schemes of one source; returns (results, notes)."""
    params = ctx.params
    cache = ctx.result_cache
    synth = source.synth
    if synth is not None and synth.num_disks != params.num_disks:
        # The synth layout must match the simulated subsystem; the width
        # always comes from the params, whatever the spec said.
        synth = replace(synth, num_disks=params.num_disks)
        source = TraceSource(
            label=source.label, synth=synth, streamed=source.streamed
        )

    trace = source.load(params.num_disks)
    suite_fp = fingerprint(
        "trace-replay",
        trace_fingerprint(
            None, trace.layout, None,
            source=source.source_fingerprint(params.num_disks),
        ),
        repr(params),
        "open-loop",
        # Streamed Base replays carry no busy intervals, so the two replay
        # modes must never share cache entries.
        "streamed" if source.streamed else "whole",
    )

    def _load(scheme: str) -> SimulationResult | None:
        if cache is None:
            return None
        got = cache.load(cache.scheme_key(suite_fp, scheme))
        obs.event(
            "cache.memo", outcome="miss" if got is None else "hit",
            entry="trace_replay", source=source.label, scheme=scheme,
        )
        return got

    def _store(scheme: str, result: SimulationResult) -> SimulationResult:
        if cache is not None:
            cache.store(cache.scheme_key(suite_fp, scheme), result)
        return result

    def _memo(scheme: str, compute) -> SimulationResult:
        got = _load(scheme)
        return _store(scheme, compute()) if got is None else got

    # Every scheme replays the same request stream, so a whole trace
    # shares one plan, built on the first cache miss.
    replay_plan = functools.cache(
        lambda: None if source.streamed else ReplayPlan.for_trace(trace)
    )
    # The shared pass: each cache entry is loaded once, only the schemes
    # that miss replay, memory stays at one chunk plus their replay
    # states, and results are stored in scheme order.
    results = {scheme: _load(scheme) for scheme in ("Base", "TPM", "DRPM")}
    missing = [scheme for scheme, got in results.items() if got is None]
    replays = [
        Replay(
            trace, params, controller_for(scheme, params),
            collect_busy_intervals=scheme == "Base" and not source.streamed,
            plan=replay_plan(), open_loop=True,
        )
        for scheme in missing
    ]
    if replays:
        with obs.span(
            "trace_replay.pass", source=source.label, schemes=",".join(missing)
        ):
            for chunk in replays[0].chunks():
                for replay in replays:
                    replay.feed(*chunk)
    for scheme, replay in zip(missing, replays):
        results[scheme] = _store(scheme, replay.finish())
    notes: list[str] = []
    if source.streamed:
        notes.append(
            f"{source.label}: streamed replay — oracle schemes skipped "
            "(they derive from whole-trace busy intervals)"
        )
    else:
        for scheme in ("ITPM", "IDRPM"):
            # The oracles read Base's busy intervals, so they replay after
            # the shared pass; the controller is built only on a miss.
            results[scheme] = _memo(scheme, lambda: simulate(
                trace, params, controller_for(scheme, params, results["Base"]),
                open_loop=True, plan=replay_plan(),
            ))
    base = results["Base"]
    for scheme in ("CMTPM", "CMDRPM"):
        results[scheme] = _memo(scheme, lambda: _no_directive_result(base, scheme))
    notes.append(
        f"{source.label}: CMTPM/CMDRPM degrade to the no-directive "
        "baseline (no compile-time knowledge on external traces)"
    )
    return results, notes


def _no_directive_result(base: SimulationResult, scheme: str) -> SimulationResult:
    """``scheme``'s result on a trace with no directives: ``base`` under
    another name, without busy intervals (only Base collects them)."""
    return SimulationResult.from_columns(
        response_array=base.response_array,
        scheme=scheme,
        program_name=base.program_name,
        execution_time_s=base.execution_time_s,
        disk_stats=copy.deepcopy(base.disk_stats),
        responses=base.responses,
        num_requests=base.num_requests,
        num_directives=0,
        engine=base.engine,
        engine_forced=base.engine_forced,
    )


def run_trace_replay(ctx, sources=None) -> ExperimentReport:
    """The ``trace_replay`` experiment: scheme families over ingested and
    synthetic block-I/O workloads, replayed open-loop.

    ``sources`` defaults to ``ctx.trace_sources`` (set by the CLI's
    ``--trace-in``/``--synth`` flags) and then to :func:`default_sources`.
    Rows report energy and execution time normalized to each source's
    Base replay; skipped schemes render as ``-``.
    """
    global _LAST_MANIFEST
    if sources is None:
        sources = getattr(ctx, "trace_sources", None) or default_sources()
    report = ExperimentReport(
        experiment_id="trace_replay",
        title=(
            "Normalized energy / time of ingested and synthetic "
            "block-I/O workloads (open-loop replay)"
        ),
        columns=TRACE_REPLAY_SCHEMES,
    )
    manifest_sources = []
    with obs.span("trace_replay.run", sources=len(sources)):
        for source in sources:
            results, notes = _replay_source(source, ctx)
            base = results["Base"]
            report.add_row(
                f"{source.label} (E)",
                tuple(
                    results[s].normalized_energy(base)
                    if s in results
                    else "-"
                    for s in TRACE_REPLAY_SCHEMES
                ),
            )
            report.add_row(
                f"{source.label} (T)",
                tuple(
                    results[s].normalized_time(base)
                    if s in results
                    else "-"
                    for s in TRACE_REPLAY_SCHEMES
                ),
            )
            report.notes.extend(notes)
            manifest_sources.append(
                {
                    **source.describe(),
                    "requests": base.num_requests,
                    "schemes": sorted(results),
                    "base_execution_time_s": base.execution_time_s,
                }
            )
    _LAST_MANIFEST = {
        "mode": "open-loop",
        "sources": manifest_sources,
        "degraded_schemes": ["CMTPM", "CMDRPM"],
    }
    return report
