"""Command-line entry point: regenerate any paper artifact.

Usage::

    repro-experiments table2
    repro-experiments fig3 fig4 table3
    repro-experiments all
    repro-experiments --no-cache fig5
    repro-experiments --obs --trace-out run.trace.json table2

Reports render as fixed-width text tables (the same renderings recorded in
EXPERIMENTS.md).  All artifacts sharing the default configuration reuse one
set of simulations; completed suite runs additionally persist under
``.repro-cache/`` (see :mod:`repro.cache`), so re-rendering is near-free —
``--no-cache`` forces everything to be recomputed.  Everything runs in
this one process.

Observability (:mod:`repro.obs`) is off by default.  ``--obs`` (or
``REPRO_OBS=1``) records spans and metrics and writes a run manifest;
``--trace-out PATH`` additionally exports the span timeline as Chrome
trace-event JSON (loadable in Perfetto / ``chrome://tracing``) — including
per-disk power-state timeline tracks from a representative replay, whose
decision-attribution ledger (conservation-verified) lands in the run
manifest — and implies ``--obs``.  ``--progress [SECS]`` streams live
progress lines (requests replayed, req/s, streamed chunks, ETA) to
stderr.  ``-v``/``-vv`` raise the ``repro`` logger to INFO/DEBUG on
stderr.  Reports always go to **stdout**; every diagnostic line (cache
summary, manifest path) goes to **stderr**, keeping rendered artifacts
byte-stable under any flag combination.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from typing import Sequence

from . import ablations, extensions, fig3, fig4, fig5_6, fig7_8, fig13, table1, table2, table3
from .. import obs
from ..cache import ResultCache
from ..disksim.simulator import AUTO_ROUTING, replay_coverage
from ..obs.manifest import build_manifest, write_manifest
from .runner import ExperimentContext

__all__ = ["main", "EXPERIMENT_IDS", "run_experiment"]

# Named explicitly (not ``__name__``): ``python -m repro.experiments.cli``
# runs this module as ``__main__``, which would escape the ``repro`` logger
# hierarchy the ``-v`` flag configures.
logger = logging.getLogger("repro.experiments.cli")

EXPERIMENT_IDS: tuple[str, ...] = (
    "fig2",
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig13",
    "ablation_preactivation",
    "ablation_estimation_error",
    "ablation_transition_speed",
    "ext_multitiling",
    "ext_pdc",
    "summary_edp",
    "gap_anatomy",
    "fault_sensitivity",
    "trace_replay",
)

#: Default manifest filename when ``--obs`` is on without ``--manifest-out``.
DEFAULT_MANIFEST_NAME = "repro-run-manifest.json"


def run_experiment(exp_id: str, ctx: ExperimentContext) -> list:
    """Produce the report(s) for one artifact id."""
    if exp_id == "fig2":
        from . import fig2

        return [fig2.run()]
    if exp_id == "table1":
        return [table1.run(ctx.params)]
    if exp_id == "table2":
        return [table2.run(ctx)]
    if exp_id == "table3":
        return [table3.run(ctx)]
    if exp_id == "fig3":
        return [fig3.run(ctx)]
    if exp_id == "fig4":
        return [fig4.run(ctx)]
    if exp_id in ("fig5", "fig6"):
        energy, time = fig5_6.run(ctx)
        return [energy if exp_id == "fig5" else time]
    if exp_id in ("fig7", "fig8"):
        energy, time = fig7_8.run(ctx)
        return [energy if exp_id == "fig7" else time]
    if exp_id == "fig13":
        return [fig13.run(ctx)]
    if exp_id == "ablation_preactivation":
        return [ablations.preactivation_ablation(ctx)]
    if exp_id == "ablation_estimation_error":
        return [ablations.estimation_error_sweep(ctx)]
    if exp_id == "ablation_transition_speed":
        return [ablations.transition_speed_ablation(ctx)]
    if exp_id == "ext_multitiling":
        return [extensions.multi_nest_tiling(ctx)]
    if exp_id == "ext_pdc":
        from . import pdc_experiment

        return [pdc_experiment.run(ctx)]
    if exp_id == "summary_edp":
        from . import summary

        return [summary.run(ctx)]
    if exp_id == "gap_anatomy":
        from . import gaps

        return [gaps.run(ctx)]
    if exp_id == "fault_sensitivity":
        from . import faults as faults_exp

        return [faults_exp.run(ctx)]
    if exp_id == "trace_replay":
        from . import trace_replay

        return [trace_replay.run_trace_replay(ctx)]
    raise SystemExit(f"unknown experiment {exp_id!r}; choose from {EXPERIMENT_IDS}")


def _configure_logging(verbosity: int) -> None:
    """Map ``-v`` counts onto the ``repro`` logger (0: silent, 1: INFO,
    2+: DEBUG), with a plain stderr handler."""
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    root = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    root.addHandler(handler)
    root.setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"artifact ids ({', '.join(EXPERIMENT_IDS)}) or 'all'",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the persistent result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result cache location (default: .repro-cache "
        "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="fault-injection seed (repro.faults); only meaningful with "
        "--fault-rates (default seed: 1)",
    )
    parser.add_argument(
        "--fault-rates",
        default=None,
        metavar="SPEC",
        help="apply a deterministic fault regime to every replay: "
        "comma-separated key=value knobs (e.g. "
        "'deadline_miss_p=0.1,request_error_p=0.002') or the "
        "'severity=X' shorthand; see repro.faults.FaultRates",
    )
    parser.add_argument(
        "--trace-in",
        action="append",
        default=None,
        metavar="PATH",
        help="recorded block-I/O trace for the trace_replay experiment "
        "(text or binary, see repro.trace.ingest; repeatable)",
    )
    parser.add_argument(
        "--trace-format",
        choices=("auto", "text", "binary"),
        default="auto",
        help="on-disk format of --trace-in files (default: sniff)",
    )
    parser.add_argument(
        "--trace-mapping",
        choices=("modulo", "range", "lba"),
        default="modulo",
        help="trace device -> simulated disk mapping policy for "
        "--trace-in files (default: modulo)",
    )
    parser.add_argument(
        "--synth",
        action="append",
        default=None,
        metavar="SPEC",
        help="synthetic workload for the trace_replay experiment: "
        "comma-separated key=value knobs, e.g. "
        "'model=onoff,n=1000000,lba_skew=0.8,seed=7' "
        "(see repro.trace.synth.SynthConfig; repeatable)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="record spans/metrics (repro.obs) and write a run manifest",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the span timeline as Chrome trace-event JSON "
        "(Perfetto-loadable); implies --obs",
    )
    parser.add_argument(
        "--progress",
        nargs="?",
        const=2.0,
        type=float,
        default=None,
        metavar="SECS",
        help="stream live progress lines to stderr every SECS seconds "
        "(default 2): requests replayed, req/s, streamed chunks, ETA; "
        "implies --obs",
    )
    parser.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help=f"run-manifest path (default with --obs: {DEFAULT_MANIFEST_NAME})",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="count",
        default=0,
        help="-v: INFO engine logs on stderr; -vv: DEBUG "
        "(incl. replay-engine routing decisions)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    ids = list(args.experiments)
    if ids == ["all"]:
        ids = list(EXPERIMENT_IDS)

    observing = (
        args.obs
        or args.trace_out is not None
        or args.progress is not None
        or obs.env_requests_obs()
    )
    if observing:
        obs.enable()

    if args.no_cache:
        cache: ResultCache | bool | None = False
    elif args.cache_dir is not None:
        cache = ResultCache(args.cache_dir)
    else:
        cache = None

    faults = None
    if args.fault_rates is not None:
        from ..faults import DEFAULT_FAULT_SEED, FaultConfig, parse_fault_rates

        seed = args.fault_seed if args.fault_seed is not None else DEFAULT_FAULT_SEED
        faults = FaultConfig(seed=seed, rates=parse_fault_rates(args.fault_rates))
        logger.info("fault regime: %r", faults)
    elif args.fault_seed is not None:
        logger.warning("--fault-seed without --fault-rates has no effect")
    trace_sources = None
    if args.trace_in or args.synth:
        from .trace_replay import TraceSource, parse_synth_spec

        trace_sources = tuple(
            [
                TraceSource.from_file(p, args.trace_format, args.trace_mapping)
                for p in args.trace_in or ()
            ]
            + [TraceSource.from_synth(parse_synth_spec(s)) for s in args.synth or ()]
        )
        if "trace_replay" not in ids:
            logger.warning(
                "--trace-in/--synth only affect the trace_replay experiment"
            )
    ctx = ExperimentContext(cache=cache, faults=faults, trace_sources=trace_sources)

    reporter = None
    if args.progress is not None:
        reporter = obs.ProgressReporter(interval_s=args.progress).start()

    phases: list[dict] = []
    t_run0 = time.perf_counter()
    try:
        for exp_id in ids:
            t0 = time.perf_counter()
            with obs.span("experiment", id=exp_id):
                reports = run_experiment(exp_id, ctx)
            phases.append(
                {"name": exp_id, "wall_s": round(time.perf_counter() - t0, 6)}
            )
            logger.info("%s rendered in %.2fs", exp_id, phases[-1]["wall_s"])
            for rep in reports:
                print(rep.render())
                print()
    finally:
        if reporter is not None:
            reporter.stop()
    total_wall_s = time.perf_counter() - t_run0

    # Satellite: surface the persistent cache's hit/miss stats.  One line,
    # on stderr — stdout stays byte-identical to a no-flag run.
    cache_stats = ctx.cache_stats()
    if cache_stats is not None:
        print(ctx.result_cache.summary(), file=sys.stderr)

    if observing:
        _write_obs_artifacts(args, ids, ctx, phases, total_wall_s, cache_stats)
    return 0


def _timeline_artifacts(ctx: ExperimentContext) -> tuple[list[dict], dict]:
    """One representative replay with the timeline recorder attached.

    Runs the first Table 2 workload under the paper's compiler-directed
    DRPM scheme (base replay -> measured timing -> power-call planning ->
    directive replay) on the run's parameters/fault regime, builds the
    decision-attribution ledger, and *verifies the conservation invariant
    at generation time* (ledger energy == DiskStats energy to the bit) so
    an exported artifact is never silently inconsistent.  Returns
    (chrome-trace events, ledger dict) for the ``--trace-out`` file and
    the run manifest.
    """
    from ..analysis.cycles import compute_timing, measured_timing
    from ..controllers.compiler_directed import CompilerDirected
    from ..disksim.simulator import simulate
    from ..disksim.timeline import AttributionLedger, TimelineRecorder
    from ..layout.files import default_layout
    from ..obs.export import timeline_events
    from ..power.insertion import plan_power_calls
    from ..trace.generator import directives_at_positions, generate_trace
    from ..workloads import WORKLOAD_NAMES, build_workload

    name = WORKLOAD_NAMES[0]
    wl = build_workload(name)
    params = ctx.params
    layout = default_layout(wl.program.arrays, num_disks=params.num_disks)
    trace = generate_trace(wl.program, layout, wl.trace_options)
    base = simulate(trace, params, faults=ctx.faults)
    meas = measured_timing(
        wl.program,
        trace.request_nests,
        base.response_array,
    )
    plan = plan_power_calls(
        wl.program, layout, params, "drpm",
        estimation=wl.estimation, measured=meas,
    )
    rec = TimelineRecorder()
    result = simulate(
        trace.with_directives(
            directives_at_positions(
                plan.placement_rows, compute_timing(wl.program)
            )
        ),
        params,
        CompilerDirected("drpm"),
        recorder=rec,
        faults=ctx.faults,
    )
    rec.verify()
    ledger = AttributionLedger.from_recorder(rec, params.disk.power_idle_w)
    ledger.verify_against(rec, result)
    events = timeline_events(rec, program=name, scheme="CMDRPM")
    info = {"workload": name, "scheme": "CMDRPM", "engine": result.engine}
    return events, {**info, "ledger": ledger.to_dict(rollup_families=True)}


def _write_obs_artifacts(
    args: argparse.Namespace,
    ids: list[str],
    ctx: ExperimentContext,
    phases: list[dict],
    total_wall_s: float,
    cache_stats: dict | None,
) -> None:
    """Export the Chrome trace and the run manifest (``--obs`` epilogue)."""
    config = {
        "experiments": ids,
        "cache": cache_stats["dir"] if cache_stats else None,
        "num_disks": ctx.params.num_disks,
        "faults": repr(ctx.faults) if ctx.faults is not None else None,
    }
    extra: dict = {"total_wall_s": round(total_wall_s, 6)}
    if "trace_replay" in ids:
        from .trace_replay import last_manifest_section

        section = last_manifest_section()
        if section is not None:
            extra["trace_replay"] = section

    timeline_extra: list[dict] = []
    if args.trace_out is not None:
        try:
            timeline_extra, attribution = _timeline_artifacts(ctx)
        except Exception as exc:  # pragma: no cover - diagnostic path
            logger.warning("timeline artifact generation failed: %s", exc)
        else:
            extra["attribution"] = attribution
            print(
                "attribution ledger ({workload}/{scheme}, {engine}): "
                "{n} causes, conservation verified".format(
                    n=len(attribution["ledger"]["causes"]), **attribution
                ),
                file=sys.stderr,
            )

    manifest = build_manifest(
        command="repro-experiments",
        config=config,
        phases=phases,
        cache_stats=cache_stats,
        engine_stats={"routing": dict(AUTO_ROUTING), **replay_coverage()},
        metrics=obs.metrics.snapshot(),
        extra=extra,
    )
    manifest_path = args.manifest_out or DEFAULT_MANIFEST_NAME
    write_manifest(manifest_path, manifest)
    print(f"run manifest: {manifest_path}", file=sys.stderr)

    if args.trace_out is not None:
        from ..obs.export import write_chrome_trace

        recorder = obs.get_recorder()
        if isinstance(recorder, obs.SpanRecorder):
            write_chrome_trace(
                args.trace_out,
                recorder,
                metadata={"command": "repro-experiments", "experiments": ids},
                extra_events=timeline_extra,
            )
            print(
                f"span timeline ({len(recorder.spans)} spans"
                + (
                    f", {len(timeline_extra)} disk-timeline events"
                    if timeline_extra
                    else ""
                )
                + f"): {args.trace_out}",
                file=sys.stderr,
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
