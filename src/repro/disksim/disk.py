"""Single-disk state machine with exact energy accounting.

A :class:`Disk` advances through a piecewise-constant-power timeline:

* **idle** — spinning at the current RPM level, no request in service;
* **active** — servicing a request (seek + rotational latency + transfer);
* **standby** — spun down (TPM);
* **spin_down / spin_up** — TPM transitions, modeled as constant-power
  segments of the datasheet's lump energy over the datasheet's time
  (13 J / 1.5 s and 135 J / 10.9 s), so the invariant
  ``energy == sum(power * duration)`` holds exactly;
* **rpm_shift** — DRPM level modulation at the faster level's idle power.

All interactions (``serve``, ``set_rpm``, ``spin_down``, ``spin_up``) carry
a timestamp; per-disk timestamps must be non-decreasing, which the
synchronous application model guarantees.  Reactive TPM's
idleness-threshold behaviour is built into the time-advance loop (the disk
autonomously spins down ``threshold`` seconds into any idle period), since
between sparse events the simulator never "sees" the moment the threshold
fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util.errors import ConfigError, SimulationError
from .powermodel import PowerModel
from .replay import SEEK_CODES
from .timeline import (
    CAUSE_EXTERNAL,
    CAUSE_SPINUP_FAULT,
    CAUSE_STANDBY_WAKE,
    CAUSE_TPM_AUTO,
)

__all__ = ["Disk", "DiskStats", "STATE_NAMES", "sequential_sum"]


def sequential_sum(acc: float, values: np.ndarray) -> float:
    """Left-fold ``values`` onto ``acc`` with strictly sequential float adds.

    ``np.add.accumulate`` applies the operation element by element (unlike
    ``np.add.reduce``, which uses pairwise summation), so the result is
    bit-identical to ``for v in values: acc += v`` — the contract the
    replay's vector kernel relies on to accrue batched stats into the same
    counters :meth:`Disk.serve` fills one request at a time.
    """
    buf = np.empty(values.size + 1, dtype=np.float64)
    buf[0] = acc
    buf[1:] = values
    return float(np.add.accumulate(buf)[-1])

STATE_NAMES: tuple[str, ...] = (
    "idle",
    "active",
    "standby",
    "spin_down",
    "spin_up",
    "rpm_shift",
)


@dataclass(slots=True)
class DiskStats:
    """Per-disk accounting: residency and energy per state, plus counters."""

    time_s: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(STATE_NAMES, 0.0)
    )
    energy_j: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(STATE_NAMES, 0.0)
    )
    num_requests: int = 0
    bytes_served: int = 0
    num_spin_downs: int = 0
    num_spin_ups: int = 0
    num_rpm_shifts: int = 0
    #: Fault accounting (``repro.faults``): transient sub-request errors,
    #: the retries they triggered, retries abandoned on timeout, failed
    #: spin-up attempts, missed pre-activation deadlines, and sub-requests
    #: served degraded (at the pre-directive state) because of a miss.
    num_request_errors: int = 0
    num_request_retries: int = 0
    num_request_timeouts: int = 0
    num_spinup_failures: int = 0
    num_deadline_misses: int = 0
    num_degraded_serves: int = 0
    #: Idle seconds spent at each RPM level (diagnostics for the planner).
    idle_time_by_rpm: dict[int, float] = field(default_factory=dict)

    @property
    def total_energy_j(self) -> float:
        return sum(self.energy_j.values())

    @property
    def total_time_s(self) -> float:
        return sum(self.time_s.values())

    def add(self, state: str, duration: float, power_w: float, rpm: int | None = None) -> None:
        if duration < 0:
            raise SimulationError(f"negative accounting duration {duration}")
        self.time_s[state] += duration
        self.energy_j[state] += duration * power_w
        if rpm is not None and state == "idle":
            by_rpm = self.idle_time_by_rpm
            by_rpm[rpm] = by_rpm.get(rpm, 0.0) + duration


class Disk:
    """One simulated disk (TPM- and DRPM-capable)."""

    __slots__ = (
        "disk_id",
        "pm",
        "auto_spindown_threshold_s",
        "rpm",
        "standby",
        "cursor_s",
        "ready_s",
        "idle_anchor_s",
        "_auto_armed",
        "_transition_end_s",
        "_transition_power_w",
        "_transition_state",
        "_transition_target_rpm",
        "_transition_to_standby",
        "_transition_cause",
        "stats",
        "last_request_end_s",
        "last_service_start_s",
        "_pending_action",
        "_standby_since_s",
        "last_standby_s",
        "recorder",
        "faults",
        "_spinup_seq",
        "_spinup_chain",
        "_lvl_seek_base",
        "_lvl_rate",
        "_lvl_active_w",
        "_lvl_idle_w",
    )

    def __init__(
        self,
        disk_id: int,
        power_model: PowerModel,
        auto_spindown_threshold_s: float | None = None,
        initial_rpm: int | None = None,
        recorder=None,
        faults=None,
    ):
        self.disk_id = disk_id
        self.pm = power_model
        self.auto_spindown_threshold_s = auto_spindown_threshold_s
        self.rpm = power_model.disk.rpm if initial_rpm is None else initial_rpm
        if self.rpm not in power_model.levels:
            raise SimulationError(f"initial rpm {self.rpm} is not a supported level")
        self.standby = False
        self.cursor_s = 0.0
        self.ready_s = 0.0
        self.idle_anchor_s = 0.0
        self._auto_armed = True
        self._transition_end_s: float | None = None
        self._transition_power_w = 0.0
        self._transition_state = ""
        self._transition_target_rpm: int | None = None
        self._transition_to_standby = False
        #: Decision that started the in-flight transition (timeline tag).
        self._transition_cause = ""
        self.stats = DiskStats()
        self.last_request_end_s = 0.0
        #: Wall-clock start of the most recent :meth:`serve` (the simulator
        #: reads it instead of re-deriving ``done - service_time``).
        self.last_service_start_s = 0.0
        #: A power call that arrived while a transition was in flight; it
        #: takes effect the moment the transition completes (latest wins).
        #: Carries the originating cause so the deferred transition keeps
        #: its attribution.
        self._pending_action: tuple[str, int | None, str] | None = None
        self._standby_since_s: float | None = None
        #: Duration of the most recent completed standby period (what the
        #: adaptive-threshold TPM policy learns from).
        self.last_standby_s: float = 0.0
        #: Optional :class:`~repro.disksim.timeline.TimelineRecorder`.
        self.recorder = recorder
        #: Optional :class:`~repro.faults.FaultPlan`.  Spin-up jitter and
        #: failure chains live entirely inside the state machine — both
        #: replay engines reach spin-ups only through ``serve`` and the
        #: power calls, so keying the draws on a per-disk event ordinal
        #: keeps them engine-invariant for free.
        self.faults = faults
        #: Ordinal of the next spin-up *event* on this disk (one event may
        #: span several attempts when the fault plan injects failures).
        self._spinup_seq: int = 0
        #: Remaining attempts of an in-flight faulty spin-up event, as
        #: ``(duration_s, power_w, ends_in_standby)`` triples drained by
        #: ``_complete_transition`` ahead of any deferred power call.
        self._spinup_chain: list[tuple[float, float, bool]] = []
        #: The current level's row of the power model's service table
        #: (seek-class code -> seek + latency, and the media rate) and its
        #: powers; refreshed whenever ``rpm`` changes.
        self._refresh_level_consts(self.rpm)

    # ------------------------------------------------------------------ #
    def _emit(
        self,
        state: str,
        t0: float,
        t1: float,
        power_w: float,
        rpm: int,
        cause: str = "",
    ) -> None:
        if self.recorder is not None and t1 > t0:
            self.recorder.record(self.disk_id, state, t0, t1, power_w, rpm, cause)

    # ------------------------------------------------------------------ #
    # Internal transition plumbing
    # ------------------------------------------------------------------ #
    @property
    def in_transition(self) -> bool:
        return self._transition_end_s is not None

    def _begin_transition(
        self,
        start_s: float,
        duration_s: float,
        power_w: float,
        state: str,
        target_rpm: int | None = None,
        to_standby: bool = False,
        cause: str = "",
    ) -> None:
        if self._transition_end_s is not None:
            raise SimulationError(
                f"disk {self.disk_id}: transition started while one is in flight"
            )
        if start_s < self.cursor_s - 1e-9:
            raise SimulationError(
                f"disk {self.disk_id}: transition start {start_s} precedes cursor "
                f"{self.cursor_s}"
            )
        self._settle_idle(start_s)
        end = start_s + duration_s
        self._transition_end_s = end
        self._transition_power_w = power_w
        self._transition_state = state
        self._transition_target_rpm = target_rpm
        self._transition_to_standby = to_standby
        self._transition_cause = cause
        if end > self.ready_s:
            self.ready_s = end

    def _accrue_transition(self, t: float) -> None:
        """Accrue the in-flight transition from the cursor to ``t``."""
        cursor = self.cursor_s
        state = self._transition_state
        power = self._transition_power_w
        dur = t - cursor if t > cursor else 0.0
        stats = self.stats
        stats.time_s[state] += dur
        stats.energy_j[state] += dur * power
        if t > cursor:
            if self.recorder is not None:
                self.recorder.record(
                    self.disk_id, state, cursor, t, power,
                    self._transition_target_rpm or self.rpm,
                    self._transition_cause,
                )
            self.cursor_s = t

    def _complete_transition(self) -> None:
        end = self._transition_end_s
        assert end is not None
        self._accrue_transition(end)
        if self._transition_target_rpm is not None:
            self.rpm = self._transition_target_rpm
            self._refresh_level_consts(self.rpm)
        if self._transition_to_standby and not self.standby:
            self._standby_since_s = end
        self.standby = self._transition_to_standby
        self._transition_end_s = None
        self._transition_target_rpm = None
        self._transition_to_standby = False
        self._transition_cause = ""
        self.idle_anchor_s = end
        self._auto_armed = True
        if self._spinup_chain:
            # Continue a faulty spin-up event: the retry attempt starts the
            # instant the failed one ends, ahead of any deferred power call
            # (the directive takes effect once the disk is actually up).
            dur, power, fail = self._spinup_chain.pop(0)
            self.stats.num_spin_ups += 1
            self._begin_transition(
                self.cursor_s, dur, power, "spin_up", to_standby=fail,
                cause=CAUSE_SPINUP_FAULT,
            )
            return
        if self._pending_action is not None:
            action, rpm, cause = self._pending_action
            self._pending_action = None
            if action == "spin_down" and not self.standby:
                self._start_spin_down(self.cursor_s, cause)
            elif action == "spin_up" and self.standby:
                self._start_spin_up(self.cursor_s, cause)
            elif action == "rpm" and not self.standby:
                assert rpm is not None
                if rpm != self.rpm:
                    self._start_rpm_shift(self.cursor_s, rpm, cause)

    def _settle_idle(self, t: float) -> None:
        """Accrue the base (idle/standby) state from the cursor to ``t``,
        assuming no transition is in flight and none should auto-fire."""
        cursor = self.cursor_s
        if t < cursor - 1e-9:
            raise SimulationError(
                f"disk {self.disk_id}: time moved backwards "
                f"({t} < cursor {cursor})"
            )
        if t > cursor:
            dur = t - cursor
            stats = self.stats
            if self.standby:
                stats.add("standby", dur, self.pm.standby_power_w)
                self._emit("standby", cursor, t, self.pm.standby_power_w, 0)
            else:
                rpm = self.rpm
                power = self._lvl_idle_w
                stats.time_s["idle"] += dur
                stats.energy_j["idle"] += dur * power
                by_rpm = stats.idle_time_by_rpm
                try:
                    by_rpm[rpm] += dur
                except KeyError:  # first idle period at this level
                    by_rpm[rpm] = dur
                if self.recorder is not None:
                    self.recorder.record(self.disk_id, "idle", cursor, t, power, rpm)
            self.cursor_s = t

    # ------------------------------------------------------------------ #
    # Time advance
    # ------------------------------------------------------------------ #
    #: Completion slack for floating-point time comparisons: a transition
    #: whose end lands within this of the advance target is considered done
    #: (leaving it "in flight" forever would wedge the state machine).
    _EPS = 1e-9

    def advance(self, t: float) -> None:
        """Bring accounting (and autonomous behaviour) up to time ``t``."""
        cursor = self.cursor_s
        if t < cursor:
            if t < cursor - 1e-9:
                raise SimulationError(
                    f"disk {self.disk_id}: advance to {t} precedes cursor {cursor}"
                )
            t = cursor
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise SimulationError("advance loop failed to converge")
            end = self._transition_end_s
            if end is not None:
                if end <= t + self._EPS:
                    self._complete_transition()
                    continue
                self._accrue_transition(t)
                return
            if (
                not self.standby
                and self.auto_spindown_threshold_s is not None
                and self._auto_armed
            ):
                fire_at = self.idle_anchor_s + self.auto_spindown_threshold_s
                if fire_at < t - self._EPS:
                    self._settle_idle(max(self.cursor_s, fire_at))
                    self._auto_armed = False
                    self._start_spin_down(self.cursor_s, CAUSE_TPM_AUTO)
                    continue
            self._settle_idle(t)
            return

    # ------------------------------------------------------------------ #
    # TPM actions
    # ------------------------------------------------------------------ #
    def _start_spin_down(self, t: float, cause: str = CAUSE_EXTERNAL) -> None:
        d = self.pm.spin_down_time_s
        p = self.pm.spin_down_energy_j / d if d > 0 else 0.0
        self.stats.num_spin_downs += 1
        self._begin_transition(t, d, p, "spin_down", to_standby=True, cause=cause)

    def _start_spin_up(self, t: float, cause: str = CAUSE_EXTERNAL) -> None:
        d = self.pm.spin_up_time_s
        p = self.pm.spin_up_energy_j / d if d > 0 else 0.0
        self.stats.num_spin_ups += 1
        if self._standby_since_s is not None:
            self.last_standby_s = max(0.0, t - self._standby_since_s)
            self._standby_since_s = None
        fault = None
        if self.faults is not None:
            seq = self._spinup_seq
            self._spinup_seq = seq + 1
            fault = self.faults.spinup_fault(self.disk_id, seq)
        if fault is None:
            self._begin_transition(t, d, p, "spin_up", to_standby=False, cause=cause)
            return
        # Faulty event: a bounded chain of attempts at datasheet power, each
        # stretched by its jitter; the first ``failures`` attempts end back
        # in standby, the last always succeeds (retry is bounded by
        # construction — the plan never draws more failures than retries).
        self.stats.num_spinup_failures += fault.failures
        chain = [
            (d + fault.jitter_s[i], p, i < fault.failures)
            for i in range(fault.attempts)
        ]
        dur0, p0, fail0 = chain[0]
        self._spinup_chain = chain[1:]
        self._begin_transition(t, dur0, p0, "spin_up", to_standby=fail0, cause=cause)

    def spin_down(self, t: float, cause: str = CAUSE_EXTERNAL) -> None:
        """Explicit ``spin_down(disk)`` call (paper §3).

        If a transition is in flight the call is deferred until it
        completes (the cursor never moves ahead of wall-clock time).
        """
        self.advance(t)
        if self._transition_end_s is not None:
            self._pending_action = ("spin_down", None, cause)
            return
        if self.standby:
            return
        self._start_spin_down(max(t, self.cursor_s), cause)

    def spin_up(self, t: float, cause: str = CAUSE_EXTERNAL) -> None:
        """Explicit ``spin_up(disk)`` pre-activation call (paper §3)."""
        self.advance(t)
        if self._transition_end_s is not None:
            self._pending_action = ("spin_up", None, cause)
            return
        if not self.standby:
            return
        self._start_spin_up(max(t, self.cursor_s), cause)

    # ------------------------------------------------------------------ #
    # DRPM action
    # ------------------------------------------------------------------ #
    def _start_rpm_shift(
        self, t: float, target_rpm: int, cause: str = CAUSE_EXTERNAL
    ) -> None:
        dur, power = self.pm._transition_by_pair[(self.rpm, target_rpm)]
        self.stats.num_rpm_shifts += 1
        self._begin_transition(
            t, dur, power, "rpm_shift", target_rpm=target_rpm, cause=cause
        )

    def set_rpm(self, t: float, target_rpm: int, cause: str = CAUSE_EXTERNAL) -> None:
        """Explicit ``set_RPM(level, disk)`` call (paper §3)."""
        if target_rpm not in self.pm.level_index:
            raise SimulationError(f"unsupported RPM level {target_rpm}")
        self.advance(t)
        if self._transition_end_s is not None:
            self._pending_action = ("rpm", target_rpm, cause)
            return
        if self.standby:
            raise SimulationError(
                f"disk {self.disk_id}: set_RPM while spun down is invalid"
            )
        if self.rpm == target_rpm:
            return
        self._start_rpm_shift(max(t, self.cursor_s), target_rpm, cause)

    # ------------------------------------------------------------------ #
    # Request service
    # ------------------------------------------------------------------ #
    def _refresh_level_consts(self, rpm: int) -> None:
        """Load level ``rpm``'s row of the power model's service table and
        its powers — the constants ``serve`` reads."""
        pm = self.pm
        self._lvl_seek_base, self._lvl_rate = pm._service_rows[rpm]
        self._lvl_active_w = pm._active_w_by_level[rpm]
        self._lvl_idle_w = pm._idle_w_by_level[rpm]

    def serve(
        self, t_issue: float, nbytes: int, seek: int = SEEK_CODES["full"]
    ) -> float:
        """Service a sub-request issued at ``t_issue``; return completion time.

        ``seek`` is the sub-request's seek-class code
        (:data:`~repro.disksim.replay.SEEK_CLASSES` order); an unknown
        code raises :class:`ConfigError` before any state changes.  The
        request waits for any in-flight transition; a disk found in
        standby pays the full spin-up penalty first (the reactive TPM cost
        that pre-activation exists to avoid).
        """
        if nbytes <= 0:
            raise SimulationError(f"request size must be positive, got {nbytes}")
        try:
            seek_base = self._lvl_seek_base[seek]
        except KeyError:
            raise ConfigError(f"unknown seek class code {seek!r}") from None
        # Fast path for the dominant replay case: the disk is plainly
        # spinning (no transition in flight, not in standby) and no
        # autonomous spin-down is due before this request, so the
        # advance/wait machinery below reduces to "settle idle time, then
        # service".  The due check mirrors ``advance``'s fire condition
        # (``fire_at < t - EPS``) exactly.
        cursor = self.cursor_s
        t = t_issue if t_issue > cursor else cursor
        threshold = self.auto_spindown_threshold_s
        if (
            self._transition_end_s is None
            and not self.standby
            and (
                threshold is None
                or not self._auto_armed
                or self.idle_anchor_s + threshold >= t - self._EPS
            )
        ):
            rpm = self.rpm
            if t > cursor:
                dur = t - cursor
                idle_power = self._lvl_idle_w
                stats = self.stats
                stats.time_s["idle"] += dur
                stats.energy_j["idle"] += dur * idle_power
                by_rpm = stats.idle_time_by_rpm
                try:
                    by_rpm[rpm] += dur
                except KeyError:  # first idle period at this level
                    by_rpm[rpm] = dur
                if self.recorder is not None:
                    self.recorder.record(
                        self.disk_id, "idle", cursor, t, idle_power, rpm
                    )
            ready = self.ready_s
            start = t if t > ready else ready
        else:
            start = self._wait_until_serviceable(t_issue)
            # The wait may have completed an RPM shift.
            rpm = self.rpm
            seek_base = self._lvl_seek_base[seek]
        # Completion epilogue, shared by both paths: the current level's
        # row of the shared service table, the same entries and arithmetic
        # the replay's vector kernel applies in batch.
        svc = seek_base + nbytes / self._lvl_rate
        active_power = self._lvl_active_w
        stats = self.stats
        stats.time_s["active"] += svc
        stats.energy_j["active"] += svc * active_power
        end = start + svc
        if self.recorder is not None:
            self.recorder.record(
                self.disk_id, "active", start, end, active_power, rpm, "", svc
            )
        self.last_service_start_s = start
        self.cursor_s = end
        self.ready_s = end
        self.idle_anchor_s = end
        self._auto_armed = True
        self.last_request_end_s = end
        stats.num_requests += 1
        stats.bytes_served += nbytes
        return end

    def _wait_until_serviceable(self, t_issue: float) -> float:
        """``serve``'s slow path: advance to ``t_issue``, wait out every
        transition (spinning a standby disk up first), and return the
        instant service can start."""
        # A request may arrive while the disk is still busy (queueing): the
        # accounting clock never rewinds, but service starts at ready time.
        c = self.cursor_s
        self.advance(t_issue if t_issue > c else c)
        start = t_issue
        guard = 0
        # Silent-stall audit: a directive arriving mid-spin-up parks in
        # ``_pending_action`` and a faulty spin-up may chain retries, so the
        # wait below must *prove* progress each turn — every iteration must
        # change the (cursor, transition, standby) signature, else the
        # transition queue has wedged and we fail loudly instead of looping
        # a request into a 100-iteration timeout with no diagnosis.
        prev_sig: tuple | None = None
        while self._transition_end_s is not None or self.standby:
            guard += 1
            if guard > 100:  # pragma: no cover - defensive
                raise SimulationError("serve wait loop failed to converge")
            sig = (self.cursor_s, self._transition_end_s, self.standby)
            if sig == prev_sig:
                raise SimulationError(
                    f"disk {self.disk_id}: request issued at {t_issue} stalled "
                    f"(no progress at cursor {self.cursor_s}; transition end "
                    f"{self._transition_end_s}, standby={self.standby}, "
                    f"pending={self._pending_action})"
                )
            prev_sig = sig
            end = self._transition_end_s
            c = self.cursor_s
            if end is not None:
                self.advance(end)
                c = self.cursor_s
                if c > start:
                    start = c
            else:
                self._start_spin_up(start if start > c else c, CAUSE_STANDBY_WAKE)
        r = self.ready_s
        if r > start:
            start = r
        c = self.cursor_s
        if c > start:
            start = c
        return start

    def serve_faulty(
        self, t_issue: float, nbytes: int, seek: int, errors: int
    ) -> float:
        """Service a sub-request whose fault plan drew ``errors`` transient
        failures: each failed attempt is re-served after an exponential
        backoff, unless the next retry would start past the per-request
        timeout — then the request completes failed (timeout counted) at
        the last attempt's end.  Every attempt runs the exact ``serve``
        state machine, so both replay engines produce identical timelines.
        A disk built without a fault plan raises :class:`SimulationError`
        before any state changes.
        """
        if self.faults is None:
            raise SimulationError(
                f"disk {self.disk_id}: serve_faulty needs a fault plan "
                "(the disk was built without one)"
            )
        rates = self.faults.config.rates
        stats = self.stats
        done = self.serve(t_issue, nbytes, seek)
        for attempt in range(errors):
            stats.num_request_errors += 1
            retry_at = done + rates.request_backoff_s * (2.0 ** attempt)
            if retry_at - t_issue > rates.request_timeout_s:
                stats.num_request_timeouts += 1
                return done
            stats.num_request_retries += 1
            done = self.serve(retry_at, nbytes, seek)
        return done

    # ------------------------------------------------------------------ #
    def finalize(self, t_end: float) -> None:
        """Close the timeline at the end of execution."""
        end = max(t_end, self.cursor_s, self.ready_s)
        self.advance(end)
        if self.in_transition:  # pragma: no cover - ready_s covers this
            self.advance(self._transition_end_s or end)
