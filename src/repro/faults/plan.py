"""Fault regimes and their deterministic materialization.

Determinism contract (what every consumer may rely on):

* every fault event is a pure function of ``(seed, kind, index)`` —
  the *index* is a stable structural coordinate (global sub-request
  index in the replay plan, directive ordinal in the directive stream,
  per-disk spin-up ordinal), never a wall-clock time or an engine
  artifact;
* sub-request and directive draws are vectorized up front at plan
  construction; spin-up draws are keyed per ``(disk, ordinal)`` so any
  engine reaching the same spin-up event sees the same outcome;
* the same :class:`FaultConfig` against the same trace therefore yields
  the same :class:`~repro.disksim.stats.SimulationResult` in any
  process, on any engine, in any replay order.

``repr`` of :class:`FaultConfig` / :class:`FaultRates` is deterministic
(frozen dataclasses of numbers), which is what lets the persistent
result cache fingerprint fault regimes the same way it fingerprints
programs and parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from ..trace.request import ACT_SET_RPM, ACT_SPIN_UP
from ..util.errors import ConfigError
from ..util.rng import derive_rng

__all__ = [
    "DEFAULT_FAULT_SEED",
    "FaultRates",
    "FaultConfig",
    "SpinUpFault",
    "FaultPlan",
    "parse_fault_rates",
]

#: Default fault seed (the experiment CLI's ``--fault-seed`` default).
DEFAULT_FAULT_SEED: int = 1

#: Delayed-deadline windows shorter than this are dropped from the
#: degraded-serve accounting (a zero-length window degrades nothing).
_MIN_WINDOW_S = 0.0


@dataclass(frozen=True)
class FaultRates:
    """Per-kind fault knobs.  All probabilities are per *event*.

    ``spinup_*`` apply to every spin-up attempt (reactive TPM wake-ups
    included — a sticky spindle does not care who asked); ``request_*``
    to every sub-request; ``deadline_*`` to every pre-activation
    directive (``spin_up`` or ``set_RPM`` back to full speed), which is
    why the directive-free reactive schemes are unaffected by
    construction.
    """

    #: P(a spin-up attempt takes longer than the datasheet time).
    spinup_jitter_p: float = 0.0
    #: Jitter magnitude ~ U(0, max) seconds, added to the spin-up time.
    spinup_jitter_max_s: float = 2.0
    #: P(a spin-up attempt fails outright; the disk stays in standby).
    spinup_fail_p: float = 0.0
    #: Bounded retry: at most this many consecutive failures per event.
    spinup_max_retries: int = 3
    #: P(a sub-request suffers at least one transient error).
    request_error_p: float = 0.0
    #: Failed attempts per faulty sub-request are drawn from
    #: U{1..request_max_retries}; the retry chain always fits the bound.
    request_max_retries: int = 4
    #: First retry backoff; doubles on every further retry.
    request_backoff_s: float = 0.005
    #: Give up (count a timeout, complete the request failed) once the
    #: next retry would start later than this after first issue.
    request_timeout_s: float = 2.0
    #: P(a pre-activation directive misses its deadline).
    deadline_miss_p: float = 0.0
    #: Deadline slip ~ U(0, max) seconds.
    deadline_miss_max_s: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "spinup_jitter_p", "spinup_fail_p", "request_error_p",
            "deadline_miss_p",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        for name in (
            "spinup_jitter_max_s", "request_backoff_s",
            "request_timeout_s", "deadline_miss_max_s",
        ):
            v = getattr(self, name)
            if v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v}")
        if self.spinup_max_retries < 0:
            raise ConfigError("spinup_max_retries must be >= 0")
        if self.request_max_retries < 1:
            raise ConfigError("request_max_retries must be >= 1")

    # ------------------------------------------------------------------ #
    @property
    def is_null(self) -> bool:
        """No fault can ever fire under these rates."""
        return (
            self.spinup_jitter_p == 0.0
            and self.spinup_fail_p == 0.0
            and self.request_error_p == 0.0
            and self.deadline_miss_p == 0.0
        )

    @classmethod
    def from_severity(cls, severity: float, **overrides) -> "FaultRates":
        """One-knob regime for sweeps: ``severity`` in [0, 1] scales every
        fault class together.  Sub-request errors scale 50x slower (they
        are per-sub-request, so even small rates touch many events)."""
        if not 0.0 <= severity <= 1.0:
            raise ConfigError(f"severity must be in [0, 1], got {severity}")
        return cls(
            spinup_jitter_p=severity,
            spinup_fail_p=severity,
            request_error_p=severity / 50.0,
            deadline_miss_p=severity,
            **overrides,
        )


@dataclass(frozen=True)
class FaultConfig:
    """A named fault regime: seed + rates.  Frozen, ``repr``-stable, and
    part of the persistent cache fingerprint."""

    seed: int = DEFAULT_FAULT_SEED
    rates: FaultRates = FaultRates()

    @property
    def is_null(self) -> bool:
        return self.rates.is_null


@dataclass(frozen=True)
class SpinUpFault:
    """Outcome of one spin-up *event* (the whole bounded-retry chain).

    ``jitter_s[i]`` extends attempt ``i``'s duration; the first
    ``failures`` attempts end still in standby, the last succeeds.
    """

    failures: int
    jitter_s: tuple[float, ...]  # length failures + 1

    @property
    def attempts(self) -> int:
        return self.failures + 1


def _stream(seed: int, key: str) -> np.random.Generator:
    return derive_rng(f"faults:{key}", seed=seed)


class FaultPlan:
    """One fault regime materialized against one concrete replay.

    Built once per :func:`~repro.disksim.simulator.simulate` call, before
    engine dispatch, and consumed read-only by whichever engine runs —
    the event schedule is engine-invariant by construction.
    """

    __slots__ = (
        "config",
        "sub_errors",
        "request_flags",
        "flagged_requests",
        "_spinup_memo",
    )

    def __init__(self, config: FaultConfig, replay_plan) -> None:
        self.config = config
        rates = config.rates
        #: Global sub-request index -> number of failed attempts (>= 1).
        self.sub_errors: dict[int, int] = {}
        #: Per logical request: does any of its sub-requests fault?
        #: ``None`` when no request can fault (zero error rate).
        self.request_flags: list[bool] | None = None
        #: Sorted indices of flagged requests (segmented window bounds).
        self.flagged_requests: list[int] = []
        #: Spin-up chains are keyed per (disk, ordinal); memoized because
        #: both the planning path and the state machine may ask twice.
        self._spinup_memo: dict[tuple[int, int], SpinUpFault | None] = {}

        n_subs = replay_plan.num_subrequests
        if rates.request_error_p > 0.0 and n_subs:
            gate = _stream(config.seed, "request-error").random(n_subs)
            faulty = np.nonzero(gate < rates.request_error_p)[0]
            if faulty.size:
                counts = _stream(config.seed, "request-error-count").integers(
                    1, rates.request_max_retries + 1, size=n_subs
                )
                self.sub_errors = {
                    int(j): int(counts[j]) for j in faulty.tolist()
                }
                mask = np.zeros(n_subs, dtype=bool)
                mask[faulty] = True
                indptr = replay_plan.indptr
                flags = np.bitwise_or.reduceat(mask, indptr[:-1])
                # reduceat on an empty request span reads the next sub's
                # flag; the striping fan-out guarantees >= 1 sub per
                # request, so no correction is needed here.
                self.request_flags = flags.tolist()
                self.flagged_requests = np.nonzero(flags)[0].tolist()

    # ------------------------------------------------------------------ #
    def spinup_fault(self, disk_id: int, ordinal: int) -> SpinUpFault | None:
        """Outcome of the ``ordinal``-th spin-up event on ``disk_id``.

        Pure in ``(seed, disk, ordinal)``: any engine reaching the same
        spin-up event — in any order, in any process — sees the same
        jitter and the same bounded failure chain.
        """
        rates = self.config.rates
        if rates.spinup_jitter_p <= 0.0 and rates.spinup_fail_p <= 0.0:
            return None
        key = (disk_id, ordinal)
        memo = self._spinup_memo
        if key in memo:
            return memo[key]
        rng = _stream(self.config.seed, f"spinup:{disk_id}:{ordinal}")
        failures = 0
        while (
            failures < rates.spinup_max_retries
            and float(rng.random()) < rates.spinup_fail_p
        ):
            failures += 1
        jitter = []
        for _ in range(failures + 1):
            if float(rng.random()) < rates.spinup_jitter_p:
                jitter.append(float(rng.random()) * rates.spinup_jitter_max_s)
            else:
                jitter.append(0.0)
        fault: SpinUpFault | None = SpinUpFault(failures, tuple(jitter))
        if failures == 0 and not any(jitter):
            fault = None  # clean event: take the unfaulted fast path
        memo[key] = fault
        return fault

    # ------------------------------------------------------------------ #
    def delay_directives(
        self, rows: np.ndarray, top_rpm: int, kind: str
    ) -> tuple[np.ndarray, tuple[tuple[int, float, float], ...]]:
        """Apply deadline misses to a directive stream
        (:data:`~repro.trace.request.DIRECTIVE_ROW`, ordered by time).

        ``kind`` is ``"trace"`` for the trace-embedded stream (nominal
        times) or ``"timed"`` for an oracle's absolute-time stream; each
        kind draws from its own RNG stream.  Only pre-activation
        directives can miss: a wake from standby, or a ramp back to full
        speed (``top_rpm``).  Down-directives carry no deadline — executing
        them late only forgoes savings, which is not a fault mode worth
        modelling.

        Returns the shifted stream, re-sorted stably (a slipped directive
        may now execute after later rows; ties keep stream order), plus one
        ``(disk, t_planned, t_actual)`` window per missed deadline — the
        windows drive both the per-disk miss counters and the
        degraded-serve accounting.
        """
        rates = self.config.rates
        m = rows.size
        if rates.deadline_miss_p <= 0.0 or not m:
            return rows, ()
        rng = _stream(self.config.seed, f"deadline-{kind}")
        gate = rng.random(m)
        amount = rng.random(m)
        action = rows["action"]
        preactivation = (action == ACT_SPIN_UP) | (
            (action == ACT_SET_RPM) & (rows["rpm"] == top_rpm)
        )
        hit = np.flatnonzero(preactivation & (gate < rates.deadline_miss_p))
        t0 = rows["time"][hit]
        t1 = t0 + amount[hit] * rates.deadline_miss_max_s
        out = rows.copy()
        out["time"][hit] = t1
        misses = tuple(zip(rows["disk"][hit].tolist(), t0.tolist(), t1.tolist()))
        return out[np.argsort(out["time"], kind="stable")], misses

    # ------------------------------------------------------------------ #
    @staticmethod
    def degraded_counts(
        replay_plan, windows: Sequence[tuple[int, float, float]]
    ) -> dict[int, int]:
        """Sub-requests served *degraded* — at the disk's current (low)
        state because a pre-activation deadline slipped past them.

        A sub-request is degraded when its parent request's nominal time
        falls inside a miss window ``[t_planned, t_actual)`` on the
        window's disk.  Nominal coordinates make the count a pure
        function of the (engine-invariant) plan, so both engines report
        identical counters without inspecting each other's timelines.
        """
        if not windows:
            return {}
        times = replay_plan.columns.nominal_time_s
        indptr = replay_plan.indptr
        sub_disk = replay_plan.sub_disk
        counts: dict[int, int] = {}
        for disk, t0, t1 in windows:
            if t1 - t0 <= _MIN_WINDOW_S:
                continue
            lo = int(np.searchsorted(times, t0, "left"))
            hi = int(np.searchsorted(times, t1, "left"))
            if hi <= lo:
                continue
            s0, s1 = int(indptr[lo]), int(indptr[hi])
            c = int(np.count_nonzero(sub_disk[s0:s1] == disk))
            if c:
                counts[disk] = counts.get(disk, 0) + c
        return counts


# ---------------------------------------------------------------------- #
def parse_fault_rates(spec: str) -> FaultRates:
    """Parse a CLI rates spec: ``key=value`` pairs, comma-separated, or the
    ``severity=X`` shorthand (:meth:`FaultRates.from_severity`) optionally
    combined with overrides, e.g. ``severity=0.2,request_timeout_s=1.0``.
    """
    severity: float | None = None
    overrides: dict[str, float | int] = {}
    valid = {f.name: f.type for f in fields(FaultRates)}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(
                f"bad fault-rates entry {part!r} (expected key=value)"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "severity":
                severity = float(value)
                continue
            if key not in valid:
                raise ConfigError(
                    f"unknown fault-rate knob {key!r} "
                    f"(choose from {sorted(valid)} or 'severity')"
                )
            parsed = (
                int(value)
                if key in ("spinup_max_retries", "request_max_retries")
                else float(value)
            )
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from None
        overrides[key] = parsed
    if severity is not None:
        base = FaultRates.from_severity(severity)
        return replace(base, **overrides) if overrides else base
    return FaultRates(**overrides)
