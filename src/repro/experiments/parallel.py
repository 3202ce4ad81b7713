"""Process-parallel execution of independent experiment units.

The evaluation's unit of work is embarrassingly parallel at two grains:

* **suite grain** — every ``(workload, configuration)`` scheme suite is
  independent of every other (the Table 2 set, the stripe-size/factor
  sweeps, the ablation grids);
* **replay grain** — within one suite, every non-Base scheme replays the
  same trace independently once the Base run exists (the oracles read the
  Base result; the compiler schemes only attach different directive
  streams).

:class:`SuiteExecutor` fans both out over a ``ProcessPoolExecutor``.  The
worker count comes from (in priority order) an explicit ``jobs`` argument,
the ``REPRO_JOBS`` environment variable (``0`` or ``auto`` = one worker per
CPU), else 1 — and is then clamped to the CPUs the process may run on
(the work is CPU-bound; oversubscription only buys pickling overhead).
With one worker everything runs serially in-process — no
pool, no pickling — so single-process behaviour is bit-identical to the
pre-parallel engine, and results are always returned in submission order
regardless of completion order.

Workers rebuild workloads from their registry names and may share one
persistent :class:`~repro.cache.ResultCache` directory (writes are atomic).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .. import obs
from ..cache import ResultCache
from ..disksim.params import SubsystemParams
from ..disksim.simulator import simulate
from ..disksim.stats import SimulationResult
from ..faults import FaultConfig
from ..layout.files import SubsystemLayout, default_layout
from ..trace.request import Trace
from ..util.errors import ReproError

__all__ = [
    "JOBS_ENV_VAR",
    "available_cpus",
    "resolve_jobs",
    "SuiteSpec",
    "ReplayTask",
    "SuiteExecutor",
]

JOBS_ENV_VAR = "REPRO_JOBS"


#: cgroup v2 unified-hierarchy CPU quota file (the container runtimes'
#: ``--cpus`` knob lands here, *not* in the affinity mask).
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cgroup_quota_cpus(path: str = _CGROUP_CPU_MAX) -> int | None:
    """CPU limit imposed by a cgroup v2 quota, or ``None`` when unlimited.

    The file holds ``"$MAX $PERIOD"`` (microseconds per period) with
    ``max`` meaning no quota.  A quota of e.g. ``150000 100000`` allows 1.5
    CPUs of runtime; we round *up* (a fractional allowance still lets a
    second worker make progress) and floor at 1.  Absent or malformed files
    (cgroup v1 hosts, non-Linux) read as unlimited.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            fields = fh.read().split()
        if len(fields) != 2 or fields[0] == "max":
            return None
        quota, period = int(fields[0]), int(fields[1])
        if quota <= 0 or period <= 0:
            return None
        return max(1, -(-quota // period))
    except (OSError, ValueError):
        return None


def available_cpus() -> int:
    """CPUs this process may actually run on.

    The affinity mask bounds which cores the scheduler may use; a cgroup
    v2 CPU quota (how container ``--cpus`` limits are implemented) bounds
    how much of them we get.  Both limits apply independently, so the
    effective parallelism is their minimum.
    """
    count = None
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            count = len(getaffinity(0)) or None
        except OSError:  # pragma: no cover - platform quirk
            pass
    if count is None:
        count = os.cpu_count() or 1
    quota = _cgroup_quota_cpus()
    if quota is not None and quota < count:
        count = quota
    return count


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: argument > ``$REPRO_JOBS`` > 1 (serial)."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip().lower()
        if not env:
            return 1
        if env == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(env)
        except ValueError:
            raise ReproError(
                f"{JOBS_ENV_VAR} must be an integer or 'auto', got {env!r}"
            ) from None
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ReproError(f"worker count must be >= 0, got {jobs}")
    return jobs


@dataclass(frozen=True)
class SuiteSpec:
    """Everything a worker needs to run one scheme suite."""

    workload: str
    params: SubsystemParams = field(default_factory=SubsystemParams)
    layout: SubsystemLayout | None = None
    schemes: tuple[str, ...] | None = None
    #: Opaque tag identifying the configuration (sweep key); returned
    #: untouched so callers can re-associate results.
    key: tuple = ()
    #: Optional :class:`~repro.faults.FaultConfig` applied to every replay
    #: of the suite (a frozen dataclass of numbers — cheap to pickle).
    faults: FaultConfig | None = None


@dataclass(frozen=True)
class ReplayTask:
    """One non-Base scheme replay of an already-generated trace.

    ``trace`` carries the scheme's directive stream (compiler schemes);
    ``base`` is the Base run the oracle controllers derive from (``None``
    for the reactive and compiler schemes).
    """

    scheme: str
    trace: Trace
    params: SubsystemParams
    base: SimulationResult | None = None
    #: Replay engine selector, forwarded to ``simulate`` (see
    #: :func:`repro.disksim.simulator.simulate`).
    engine: str = "auto"
    #: Optional :class:`~repro.faults.FaultConfig` forwarded to ``simulate``.
    faults: FaultConfig | None = None


def _run_suite_spec(payload: tuple[SuiteSpec, str | None]):
    """Worker: build the workload by name and run its scheme suite."""
    from ..workloads.registry import build_workload
    from .schemes import SCHEME_NAMES, run_schemes

    spec, cache_root = payload
    cache = ResultCache(cache_root) if cache_root else None
    wl = build_workload(spec.workload)
    layout = spec.layout or default_layout(
        wl.program.arrays, num_disks=spec.params.num_disks
    )
    return run_schemes(
        wl.program,
        layout,
        spec.params,
        wl.trace_options,
        wl.estimation,
        schemes=spec.schemes or SCHEME_NAMES,
        cache=cache,
        faults=spec.faults,
    )


#: Pid that last reset this process's worker-side observability state.
_OBS_FRESH_PID: int | None = None


def _reset_worker_obs() -> None:
    """Shed observability state inherited from the parent process.

    Under the ``fork`` start method a pool worker begins life with a *copy*
    of the parent's metrics registry and span recorder — everything the
    parent recorded before the fork.  Shipping that copy back in the
    worker's envelope would double-count it on merge, so the first task a
    worker runs resets the registry and installs a fresh recorder (under
    ``spawn`` both are empty and this is a no-op).
    """
    global _OBS_FRESH_PID
    pid = os.getpid()
    if _OBS_FRESH_PID == pid:
        return
    _OBS_FRESH_PID = pid
    obs.metrics.reset()
    if obs.enabled():
        obs.enable(obs.SpanRecorder())


def _obs_envelope(flag: bool) -> dict | None:
    """Drain this worker's observability state for shipping to the parent.

    ``flag`` is whether the *parent* had observability on when it submitted
    the task; the worker may also have enabled itself via ``REPRO_OBS``
    (the env is inherited across the pool spawn).  Either way the drained
    snapshot leaves the worker's registry/recorder empty, so per-task
    envelopes never double-count.
    """
    if not (flag or obs.enabled()):
        return None
    rec = obs.get_recorder()
    return {
        "metrics": obs.metrics.drain(),
        "spans": rec.drain(),
        "events": rec.drain_events() if isinstance(rec, obs.SpanRecorder) else [],
    }


def _run_suite_spec_obs(payload: tuple[SuiteSpec, str | None, bool]):
    """Pool-worker wrapper: run the suite, ship results + obs envelope."""
    spec, cache_root, obs_flag = payload
    _reset_worker_obs()
    if obs_flag and not obs.enabled():
        obs.enable()
    result = _run_suite_spec((spec, cache_root))
    return result, _obs_envelope(obs_flag)


def _run_replay_task_obs(payload: tuple[ReplayTask, bool]):
    """Pool-worker wrapper: run one replay, ship result + obs envelope."""
    task, obs_flag = payload
    _reset_worker_obs()
    if obs_flag and not obs.enabled():
        obs.enable()
    result = _run_replay_task(task)
    return result, _obs_envelope(obs_flag)


def _run_replay_task(task: ReplayTask) -> SimulationResult:
    """Worker: replay one scheme against its (directive-bearing) trace."""
    from .schemes import controller_for

    ctrl = controller_for(task.scheme, task.params, task.base)
    return simulate(
        task.trace, task.params, ctrl, engine=task.engine, faults=task.faults
    )


class SuiteExecutor:
    """Ordered, deterministic fan-out of experiment units across processes.

    With ``jobs <= 1`` (the default without ``REPRO_JOBS``) every method
    degrades to a plain in-process loop, guaranteeing behaviour identical
    to the serial engine.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache_root: str | os.PathLike | None = None,
        clamp_to_cpus: bool = True,
    ):
        self.requested_jobs = resolve_jobs(jobs)
        # The simulation is CPU-bound: workers beyond the cores we can
        # actually run on only add process-spawn and pickling overhead, so
        # a request for more is clamped (``clamp_to_cpus=False`` opts out,
        # e.g. to exercise the pool machinery on a single-core machine).
        if clamp_to_cpus:
            self.jobs = min(self.requested_jobs, available_cpus())
        else:
            self.jobs = self.requested_jobs
        self.cache_root = str(cache_root) if cache_root is not None else None

    # ------------------------------------------------------------------ #
    @property
    def serial(self) -> bool:
        return self.jobs <= 1

    def _pool(self, num_tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.jobs, num_tasks))

    # ------------------------------------------------------------------ #
    @staticmethod
    def _merge_envelope(envelope: dict | None) -> None:
        """Fold a worker's drained metrics/spans into this process."""
        if not envelope:
            return
        obs.metrics.merge(envelope.get("metrics", {}))
        rec = obs.get_recorder()
        if isinstance(rec, obs.SpanRecorder):
            rec.absorb(envelope.get("spans", []), envelope.get("events", []))

    def run_suites(self, specs: Sequence[SuiteSpec]) -> list:
        """Run one scheme suite per spec; results in spec order."""
        if self.serial or len(specs) <= 1:
            # In-process: metrics/spans land on the live registry directly.
            return [_run_suite_spec((spec, self.cache_root)) for spec in specs]
        obs_flag = obs.enabled()
        payloads = [(spec, self.cache_root, obs_flag) for spec in specs]
        with self._pool(len(specs)) as pool:
            pairs = list(pool.map(_run_suite_spec_obs, payloads))
        for _, envelope in pairs:
            self._merge_envelope(envelope)
        return [result for result, _ in pairs]

    def run_replays(self, tasks: Sequence[ReplayTask]) -> list[SimulationResult]:
        """Replay the given schemes; results in task order."""
        if self.serial or len(tasks) <= 1:
            return [_run_replay_task(t) for t in tasks]
        obs_flag = obs.enabled()
        with self._pool(len(tasks)) as pool:
            pairs = list(pool.map(_run_replay_task_obs, [(t, obs_flag) for t in tasks]))
        for _, envelope in pairs:
            self._merge_envelope(envelope)
        return [result for result, _ in pairs]
