"""Shared experiment context: builds workloads and caches scheme suites.

Several artifacts consume the same runs (Table 2, Figures 3/4 and Table 3
all derive from the default-parameter suite), so the context memoizes
:class:`~repro.experiments.schemes.SchemeSuite` per (workload, layout
variant) — each benchmark is simulated once per configuration no matter how
many reports are generated.

Behind the in-memory memo sits a **persistent result cache**
(:class:`~repro.cache.ResultCache`, on by default under ``.repro-cache/``;
disable with ``REPRO_CACHE=0`` or ``cache=False``) that survives across
processes, so re-rendering artifacts after an unrelated edit is near-free.

Everything runs in one process: :meth:`ExperimentContext.suite` is the one
way a scheme suite is computed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable

from ..analysis.access import NestAccess, analyze_program
from ..analysis.cycles import ProgramTiming, compute_timing
from ..cache import ResultCache
from ..disksim.params import SubsystemParams
from ..faults import FaultConfig
from ..layout.files import SubsystemLayout, default_layout
from ..util.errors import ReproError
from ..workloads.base import Workload
from ..workloads.registry import WORKLOAD_NAMES, build_workload
from .schemes import SCHEME_NAMES, SchemeSuite, run_schemes

__all__ = ["ExperimentContext"]


@dataclass
class ExperimentContext:
    """Memoizing runner for the experiment modules."""

    params: SubsystemParams = field(default_factory=SubsystemParams)
    #: Always 1: suites run in this process.  Kept only for callers that
    #: still pass ``jobs=1``; any other value raises :class:`ReproError`.
    jobs: int = 1
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

    def __post_init__(self) -> None:
        if self.jobs != 1:
            raise ReproError(
                f"suites run in one process; jobs must be 1, got {self.jobs!r}"
            )
        if self.cache is None:
            self.cache = ResultCache.from_env()
        elif isinstance(self.cache, bool):
            self.cache = ResultCache() if self.cache else None

    # ------------------------------------------------------------------ #
    @property
    def result_cache(self) -> ResultCache | None:
        return self.cache if isinstance(self.cache, ResultCache) else None

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
        A suite not yet memoized is computed here, on first request.
        """
        cache_key = (name, key)
        if cache_key not in self._suites:
            wl = self.workload(name)
            p = params or self.params
            lay = layout or self.default_layout_for(wl, p)
            self._suites[cache_key] = run_schemes(
                wl.program,
                lay,
                p,
                wl.trace_options,
                wl.estimation,
                schemes=SCHEME_NAMES,
                analysis=functools.partial(self.analysis, name),
                cache=self.result_cache,
                faults=faults if faults is not None else self.faults,
            )
        return self._suites[cache_key]

    def derived(self, suite: SchemeSuite, name: str, compute: Callable[[], Any]):
        """A result derived from ``suite`` outside its scheme set (an
        ablation or extension replay), cached under ``name`` in the suite's
        key space.

        ``name`` must spell out every input of ``compute`` that the suite
        fingerprint does not already cover; the code of the module that
        computes it belongs in :data:`repro.cache.RESULT_SOURCES`.
        """
        cache = self.result_cache
        if cache is None or suite.fingerprint is None:
            return compute()
        return cache.memo(cache.derived_key(suite.fingerprint, name), compute)

    # ------------------------------------------------------------------ #
    def all_suites(self) -> dict[str, SchemeSuite]:
        """Default-configuration suites for the whole Table 2 benchmark set."""
        return {name: self.suite(name) for name in WORKLOAD_NAMES}

    # ------------------------------------------------------------------ #
    def cache_stats(self) -> dict | None:
        """Persistent-cache hit/miss stats for reports and run manifests."""
        cache = self.result_cache
        return cache.stats() if cache is not None else None
