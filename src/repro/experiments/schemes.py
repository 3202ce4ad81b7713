"""Run the paper's eight power-management schemes over one program.

This is the per-benchmark engine behind every figure/table: it generates
the trace once, replays Base (collecting realized busy intervals and
per-request responses), derives the oracle controllers and the
measurement-based compiler timelines from that run, plans and attaches the
CMTPM/CMDRPM directives, and replays every requested scheme — all against
the *same* request stream, exactly as the paper's methodology (one trace,
many policies).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .. import obs
from ..analysis.access import NestAccess, analyze_program
from ..analysis.cycles import (
    EstimationModel,
    ProgramTiming,
    compute_timing,
    measured_timing,
)
from ..cache import ResultCache, suite_fingerprint, trace_fingerprint
from ..controllers.base import Controller
from ..controllers.compiler_directed import CompilerDirected
from ..controllers.drpm import ReactiveDRPM
from ..controllers.oracle import OracleDRPM, OracleTPM
from ..controllers.tpm import ReactiveTPM
from ..disksim.params import SubsystemParams
from ..disksim.replay import ReplayPlan
from ..disksim.simulator import simulate
from ..disksim.stats import SimulationResult
from ..ir.program import Program
from ..layout.files import SubsystemLayout, default_layout
from ..power.insertion import CompilerPlan, plan_power_calls
from ..trace.generator import TraceOptions, directives_at_positions, generate_trace
from ..trace.request import Trace
from ..util.errors import ReproError
from ..workloads.base import Workload

__all__ = [
    "Analysis",
    "SCHEME_NAMES",
    "SchemeSuite",
    "controller_for",
    "run_schemes",
    "run_workload",
]

#: Zero-argument provider of a program's ``(accesses, timing)`` analysis.
Analysis = Callable[[], "tuple[Sequence[NestAccess], ProgramTiming]"]

#: All schemes of paper §4.2, in its presentation order.
SCHEME_NAMES: tuple[str, ...] = (
    "Base",
    "TPM",
    "ITPM",
    "DRPM",
    "IDRPM",
    "CMTPM",
    "CMDRPM",
)


def controller_for(
    scheme: str, params: SubsystemParams, base: SimulationResult | None = None
) -> Controller:
    """A fresh controller for one scheme of :data:`SCHEME_NAMES`.

    ``base`` is the Base replay the oracle schemes (ITPM, IDRPM) derive
    their decisions from; the other schemes ignore it.  Oracle derivation
    runs here, so callers that can skip a replay (a cache hit) should
    skip this call too.
    """
    if scheme == "Base":
        return Controller()
    if scheme == "TPM":
        return ReactiveTPM(params.effective_tpm_threshold_s)
    if scheme == "DRPM":
        return ReactiveDRPM(params.drpm)
    if scheme in ("ITPM", "IDRPM"):
        if base is None:
            raise ReproError(f"{scheme} derives from a Base replay; pass base=")
        oracle = OracleTPM if scheme == "ITPM" else OracleDRPM
        return oracle(base, params)
    if scheme in ("CMTPM", "CMDRPM"):
        return CompilerDirected("tpm" if scheme == "CMTPM" else "drpm")
    raise ReproError(f"unknown replay scheme {scheme!r}")


@dataclass
class SchemeSuite:
    """Results of one program under a set of schemes."""

    program_name: str
    layout: SubsystemLayout
    results: dict[str, SimulationResult]
    base_trace: Trace
    measured: ProgramTiming
    plans: dict[str, CompilerPlan] = field(default_factory=dict)
    #: The suite's cache fingerprint (``None`` when run without a cache);
    #: replays derived from the suite key their cache entries off it.
    fingerprint: str | None = None

    @property
    def base(self) -> SimulationResult:
        return self.results["Base"]

    def normalized_energy(self, scheme: str) -> float:
        return self.results[scheme].normalized_energy(self.base)

    def normalized_time(self, scheme: str) -> float:
        return self.results[scheme].normalized_time(self.base)

    def energy_row(self, schemes: Sequence[str] | None = None) -> dict[str, float]:
        names = schemes or [s for s in SCHEME_NAMES if s in self.results]
        return {s: self.normalized_energy(s) for s in names}

    def time_row(self, schemes: Sequence[str] | None = None) -> dict[str, float]:
        names = schemes or [s for s in SCHEME_NAMES if s in self.results]
        return {s: self.normalized_time(s) for s in names}


def run_schemes(
    program: Program,
    layout: SubsystemLayout,
    params: SubsystemParams,
    options: TraceOptions,
    estimation: EstimationModel,
    schemes: Sequence[str] = SCHEME_NAMES,
    analysis: Analysis | None = None,
    cache: ResultCache | None = None,
    engine: str = "auto",
    faults=None,
) -> SchemeSuite:
    """Simulate ``program`` under each scheme in ``schemes``.

    ``Base`` is always run (everything is normalized to it, and the
    oracle/compiler schemes derive from its replay).

    ``analysis`` optionally supplies the layout-independent analysis
    results as a zero-argument callable returning ``(accesses, timing)``
    (``analyze_program``/``compute_timing``), which sweep drivers memoize
    per program instead of recomputing at every sweep point.  It is called
    only when a trace, replay or compiler plan actually has to be computed.

    ``cache`` optionally consults/fills a persistent
    :class:`~repro.cache.ResultCache` keyed by the full suite configuration,
    so re-rendering artifacts is near-free when nothing relevant changed;
    the generated base trace is cached the same way (keyed by program IR,
    layout, trace options, and the code digest).
    ``engine`` selects the replay engine (see
    :func:`~repro.disksim.simulator.simulate`); the default picks the
    segmented batch engine wherever it applies.
    ``faults`` optionally applies a :class:`~repro.faults.FaultConfig` to
    every replay of the suite (the event schedule is scheme-invariant —
    the same sub-request error draws hit every scheme); the suite cache
    fingerprint includes the regime, so faulty results never alias clean
    ones.
    """
    unknown = set(schemes) - set(SCHEME_NAMES)
    if unknown:
        raise ReproError(f"unknown schemes {sorted(unknown)}")
    with obs.span(
        "suite.run", program=program.name, schemes=len(schemes)
    ) as suite_span:
        suite = _run_schemes(
            program, layout, params, options, estimation, schemes,
            analysis, cache, engine, faults,
        )
        suite_span.set(results=len(suite.results))
        return suite


def _memo(cache: ResultCache | None, key: Callable[[], str], compute, **event):
    """``compute()``, through ``cache`` under ``key()`` when there is one."""
    return compute() if cache is None else cache.memo(key(), compute, **event)


def _run_schemes(
    program: Program,
    layout: SubsystemLayout,
    params: SubsystemParams,
    options: TraceOptions,
    estimation: EstimationModel,
    schemes: Sequence[str],
    analysis: Analysis | None,
    cache: ResultCache | None,
    engine: str,
    faults=None,
) -> SchemeSuite:
    # Analysis and the scheme-invariant striping fan-out are built at most
    # once, and only when something misses the cache.
    analyzed = functools.cache(
        analysis or (lambda: (analyze_program(program), compute_timing(program)))
    )
    replay_plan = functools.cache(lambda: ReplayPlan.for_trace(trace))

    def generate() -> Trace:
        accesses, timing = analyzed()
        return generate_trace(
            program, layout, options, accesses=accesses, timing=timing
        )

    trace = _memo(
        cache,
        lambda: trace_fingerprint(program, layout, options),
        generate,
        entry="trace",
        program=program.name,
    )
    suite_fp = (
        suite_fingerprint(program, layout, params, options, estimation, faults)
        if cache is not None
        else None
    )

    def replay(scheme: str, compute):
        return _memo(cache, lambda: cache.scheme_key(suite_fp, scheme), compute)

    base = replay(
        "Base",
        lambda: simulate(
            trace,
            params,
            Controller(),
            collect_busy_intervals=True,
            plan=replay_plan(),
            engine=engine,
            faults=faults,
        ),
    )
    measured = measured_timing(
        program, trace.request_nests, base.response_array
    )

    def simulate_scheme(scheme: str, replay_trace: Trace = trace) -> SimulationResult:
        return simulate(
            replay_trace,
            params,
            controller_for(scheme, params, base),
            plan=replay_plan(),
            engine=engine,
            faults=faults,
        )

    def compiler_directed(scheme: str) -> tuple[SimulationResult, CompilerPlan]:
        accesses, timing = analyzed()
        plan = plan_power_calls(
            program,
            layout,
            params,
            "tpm" if scheme == "CMTPM" else "drpm",
            estimation=estimation,
            accesses=accesses,
            measured=measured,
        )
        replay_trace = trace.with_directives(
            directives_at_positions(plan.placement_rows, timing)
        )
        return simulate_scheme(scheme, replay_trace), plan

    results: dict[str, SimulationResult] = {"Base": base}
    plans: dict[str, CompilerPlan] = {}
    for scheme in schemes:
        if scheme in ("CMTPM", "CMDRPM"):
            results[scheme], plans[scheme] = replay(
                scheme, functools.partial(compiler_directed, scheme)
            )
        elif scheme != "Base":
            results[scheme] = replay(scheme, functools.partial(simulate_scheme, scheme))

    # Present results in canonical scheme order regardless of which schemes
    # came from the cache.
    ordered = {s: results[s] for s in SCHEME_NAMES if s in results}
    return SchemeSuite(
        program_name=program.name,
        layout=layout,
        results=ordered,
        base_trace=trace,
        measured=measured,
        plans=plans,
        fingerprint=suite_fp,
    )


def run_workload(
    workload: Workload,
    params: SubsystemParams | None = None,
    layout: SubsystemLayout | None = None,
    schemes: Sequence[str] = SCHEME_NAMES,
    analysis: Analysis | None = None,
    cache: ResultCache | None = None,
    engine: str = "auto",
    faults=None,
) -> SchemeSuite:
    """Run one Table 2 benchmark under (by default) Table 1 parameters."""
    p = params or SubsystemParams()
    lay = layout or default_layout(workload.program.arrays, num_disks=p.num_disks)
    return run_schemes(
        workload.program,
        lay,
        p,
        workload.trace_options,
        workload.estimation,
        schemes=schemes,
        analysis=analysis,
        cache=cache,
        engine=engine,
        faults=faults,
    )
