"""Shared experiment context: builds workloads and caches scheme suites.

Several artifacts consume the same runs (Table 2, Figures 3/4 and Table 3
all derive from the default-parameter suite), so the context memoizes
:class:`~repro.experiments.schemes.SchemeSuite` per (workload, layout
variant) — each benchmark is simulated once per configuration no matter how
many reports are generated.

Two further layers sit behind the in-memory memo:

* a **persistent result cache** (:class:`~repro.cache.ResultCache`, on by
  default under ``.repro-cache/``; disable with ``REPRO_CACHE=0`` or
  ``cache=False``) that survives across processes, so re-rendering
  artifacts after an unrelated edit is near-free;
* a **process pool** (:class:`~repro.experiments.parallel.SuiteExecutor`,
  worker count from ``jobs=`` or ``$REPRO_JOBS``) that :meth:`prefetch`
  uses to fan independent suite configurations out across cores.  A suite
  requested without a prefetch is computed in-process at any worker
  count; with one worker (the default) everything runs serially and
  behaviour is bit-identical to the serial engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.access import NestAccess, analyze_program
from ..analysis.cycles import ProgramTiming, compute_timing
from ..cache import ResultCache
from ..disksim.params import SubsystemParams
from ..faults import FaultConfig
from ..layout.files import SubsystemLayout, default_layout
from ..workloads.base import Workload
from ..workloads.registry import WORKLOAD_NAMES, build_workload
from .parallel import SuiteExecutor, SuiteSpec
from .schemes import SCHEME_NAMES, SchemeSuite, run_schemes

__all__ = ["ExperimentContext"]


@dataclass
class ExperimentContext:
    """Memoizing runner for the experiment modules."""

    params: SubsystemParams = field(default_factory=SubsystemParams)
    #: Worker processes; ``None`` resolves ``$REPRO_JOBS`` (default 1).
    jobs: int | None = None
    #: ``None`` resolves the environment (on by default), ``False`` (or any
    #: falsy value) disables, or pass a :class:`ResultCache` directly.
    cache: "ResultCache | bool | None" = None
    #: Optional fault regime (:class:`~repro.faults.FaultConfig`) applied to
    #: every suite this context runs; per-call ``faults`` overrides win.
    faults: FaultConfig | None = None
    #: Workloads for the ``trace_replay`` suite (``--trace-in``/``--synth``
    #: on the CLI); ``None`` lets the suite fall back to its defaults.
    trace_sources: "tuple | None" = None
    _workloads: dict[str, Workload] = field(default_factory=dict)
    _suites: dict[tuple, SchemeSuite] = field(default_factory=dict)
    _analyses: dict[str, tuple] = field(default_factory=dict, repr=False)
    _executor: SuiteExecutor | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = ResultCache.from_env()
        elif isinstance(self.cache, bool):
            self.cache = ResultCache() if self.cache else None

    # ------------------------------------------------------------------ #
    @property
    def result_cache(self) -> ResultCache | None:
        return self.cache if isinstance(self.cache, ResultCache) else None

    @property
    def executor(self) -> SuiteExecutor:
        if self._executor is None:
            cache = self.result_cache
            self._executor = SuiteExecutor(
                jobs=self.jobs,
                cache_root=cache.root if cache is not None else None,
            )
        return self._executor

    # ------------------------------------------------------------------ #
    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = build_workload(name)
        return self._workloads[name]

    def analysis(self, name: str) -> "tuple[tuple[NestAccess, ...], ProgramTiming]":
        """Layout-independent analysis of one benchmark, computed once.

        ``analyze_program`` and ``compute_timing`` depend only on the
        program IR, so a sweep over layouts/parameters (fig5–8 stripe or
        disk-count sweeps) reuses one result per program instead of
        re-analyzing at every sweep point.
        """
        memo = self._analyses.get(name)
        if memo is None:
            program = self.workload(name).program
            memo = self._analyses[name] = (
                tuple(analyze_program(program)),
                compute_timing(program),
            )
        return memo

    def default_layout_for(
        self, workload: Workload, params: SubsystemParams | None = None
    ) -> SubsystemLayout:
        p = params or self.params
        return default_layout(workload.program.arrays, num_disks=p.num_disks)

    def suite(
        self,
        name: str,
        params: SubsystemParams | None = None,
        layout: SubsystemLayout | None = None,
        key: tuple = (),
        faults: FaultConfig | None = None,
    ) -> SchemeSuite:
        """Scheme suite for one benchmark under one configuration.

        ``key`` must uniquely tag any non-default ``params``/``layout``/
        ``faults`` combination (sweep modules pass e.g.
        ``("stripe_size", 32768)`` or ``("fault_severity", 0.1)``).
        A suite not yet memoized (nor prefetched) is computed in-process,
        whatever the worker count.
        """
        cache_key = (name, key)
        if cache_key not in self._suites:
            wl = self.workload(name)
            p = params or self.params
            lay = layout or self.default_layout_for(wl, p)
            accesses, timing = self.analysis(name)
            self._suites[cache_key] = run_schemes(
                wl.program,
                lay,
                p,
                wl.trace_options,
                wl.estimation,
                schemes=SCHEME_NAMES,
                accesses=accesses,
                timing=timing,
                cache=self.result_cache,
                faults=faults if faults is not None else self.faults,
            )
        return self._suites[cache_key]

    # ------------------------------------------------------------------ #
    def prefetch(self, specs: Sequence[SuiteSpec]) -> None:
        """Compute any not-yet-memoized suites, in parallel when ``jobs>1``.

        Each spec's ``key`` must match the ``key`` later passed to
        :meth:`suite` for the same configuration.  With one worker this is
        a no-op — :meth:`suite` computes lazily, exactly as before.
        """
        missing = [s for s in specs if (s.workload, s.key) not in self._suites]
        if not missing:
            return
        executor = self.executor
        if executor.serial:
            return
        for spec, suite in zip(missing, executor.run_suites(missing)):
            self._suites[(spec.workload, spec.key)] = suite

    def prefetch_defaults(self, names: Sequence[str] | None = None) -> None:
        """Prefetch the default-configuration suite of each benchmark."""
        self.prefetch(
            [
                SuiteSpec(name, params=self.params, faults=self.faults)
                for name in names or WORKLOAD_NAMES
            ]
        )

    def all_suites(self) -> dict[str, SchemeSuite]:
        """Default-configuration suites for the whole Table 2 benchmark set."""
        self.prefetch_defaults()
        return {name: self.suite(name) for name in WORKLOAD_NAMES}

    # ------------------------------------------------------------------ #
    def cache_stats(self) -> dict | None:
        """Persistent-cache hit/miss stats for reports and run manifests.

        Only the parent process's lookups are counted here; worker-side
        lookups surface through the observability metrics
        (``cache.hits``/``cache.misses``) when ``--obs`` is on.
        """
        cache = self.result_cache
        return cache.stats() if cache is not None else None
