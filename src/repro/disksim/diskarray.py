"""Structure-of-arrays mirror of the replay-hot ``Disk`` state.

The segmented engine's scalar kernel, boundary-edit path, and in-kernel
TPM/DRPM heuristics read and write a handful of per-disk fields — cursor,
ready time, RPM level row, idle anchor, one in-flight transition, standby
bookkeeping, and per-(disk, state) residency/energy partial sums.  This
module stores those fields *columnar*: one flat sequence per field,
indexed by disk id, instead of one Python object per disk, so the
scalar kernels index plain lists instead of chasing ``disk.attr``
through an object header (CPython list indexing is 3–5× faster than
NumPy scalar indexing, which is why the columns are lists, not
ndarrays).

Sync contract
-------------
The per-object :class:`~repro.disksim.disk.Disk` remains the *exact*
state machine and the single source of truth whenever anything outside
the kernel needs disk state:

* :meth:`DiskArray.refresh` — pull one disk's row from its ``Disk`` (and
  its ``DiskStats`` partial sums) into the columns.  A disk that the
  mirror refuses to hold (:attr:`Disk.mirrorable` false, or an
  auto-spin-down policy while transitioning/spun down) instead joins
  ``exact_mask`` and every touch routes through the state machine.
* :meth:`DiskArray.flush` — push one disk's row back.  A row that served
  nothing and was never edited is skipped (the ``Disk`` is already
  current).
* :meth:`DiskArray.sync_to_disks` — flush every live row; after it
  returns, the ``Disk`` objects and their stats are authoritative (the
  vector kernel and the replay epilogue both require this).

Rows are refreshed lazily after any exact-path excursion, so between a
refresh and the next flush the columns are authoritative and the
``Disk`` objects are stale — nothing outside the kernel may read them.

Bit-identity
------------
Every mutation here is the exact floating-point expression the ``Disk``
state machine evaluates, applied in the same order; the residency bank
(:class:`StatsBank`) accrues with the same sequential ``+=`` chains the
per-disk ``DiskStats`` dicts see, so a flush stores bit-identical sums.
The ``idle_time_by_rpm`` per-RPM residency keeps the single-bucket
mirror scheme (only the *current* level's bucket is columnar; a level
switch hands the old bucket back first) so the dict's key insertion
order — and therefore byte-identical reports — is preserved.
"""

from __future__ import annotations

from .disk import STATE_NAMES, Disk

__all__ = ["DiskArray", "StatsBank", "STATE_INDEX"]

#: State name -> row index in :class:`StatsBank` (order = ``STATE_NAMES``).
STATE_INDEX: dict[str, int] = {name: i for i, name in enumerate(STATE_NAMES)}

_IDLE = STATE_INDEX["idle"]
_ACTIVE = STATE_INDEX["active"]
_STANDBY = STATE_INDEX["standby"]


class StatsBank:
    """Preallocated per-(disk, state) residency/energy accrual columns.

    ``time[state_index][disk]`` / ``energy[state_index][disk]`` replace
    the per-disk ``DiskStats.time_s`` / ``energy_j`` dict lookups on the
    mirror path: one list index instead of a dict hash per accrual.  The
    rows are plain lists (see the module docstring for why not ndarrays).

    The per-RPM idle residency is *single-bucket*: ``level_bucket[d]``
    accrues the current level's ``idle_time_by_rpm`` entry, and
    ``level_hadkey``/``level_touched`` reproduce ``DiskStats.add``'s
    rule that a new RPM key appears only when some idle duration was
    actually accrued — preserving dict insertion order byte-for-byte.
    """

    __slots__ = (
        "num_disks",
        "time",
        "energy",
        "level_bucket",
        "level_hadkey",
        "level_touched",
    )

    def __init__(self, num_disks: int) -> None:
        self.num_disks = num_disks
        self.time: list[list[float]] = [
            [0.0] * num_disks for _ in STATE_NAMES
        ]
        self.energy: list[list[float]] = [
            [0.0] * num_disks for _ in STATE_NAMES
        ]
        self.level_bucket = [0.0] * num_disks
        self.level_hadkey = [False] * num_disks
        self.level_touched = [False] * num_disks

    def load(self, d: int, stats, rpm: int) -> None:
        """Pull disk ``d``'s partial sums from its ``DiskStats``."""
        ts = stats.time_s
        es = stats.energy_j
        time = self.time
        energy = self.energy
        for si, st in enumerate(STATE_NAMES):
            time[si][d] = ts[st]
            energy[si][d] = es[st]
        by_rpm = stats.idle_time_by_rpm
        self.level_bucket[d] = by_rpm.get(rpm, 0.0)
        self.level_hadkey[d] = rpm in by_rpm
        self.level_touched[d] = False

    def store(self, d: int, stats, rpm: int) -> None:
        """Push disk ``d``'s partial sums back into its ``DiskStats``."""
        ts = stats.time_s
        es = stats.energy_j
        time = self.time
        energy = self.energy
        for si, st in enumerate(STATE_NAMES):
            ts[st] = time[si][d]
            es[st] = energy[si][d]
        if self.level_hadkey[d] or self.level_touched[d]:
            stats.idle_time_by_rpm[rpm] = self.level_bucket[d]


class DiskArray:
    """Columnar mirror of every ``Disk`` field the segmented kernels touch.

    One instance lives for one ``_replay_segmented`` call; the engine
    binds the columns to locals, so kernel loops index shared list
    objects with zero indirection.  The masks summarize routing state:

    * ``exact_mask`` — disks the mirror refuses to hold; every touch
      goes through the exact state machine.
    * ``busy_mask`` — mirrored disks with a transition in flight or in
      standby; serves dispatch to the slow sub path and the vector
      kernel excludes them.
    * ``hot`` — their union (kept equal to ``exact_mask | busy_mask``
      by every mutator; the driver re-reads it after any call that can
      change routing).
    """

    __slots__ = (
        "num_disks",
        "disks",
        "stats",
        "bank",
        "recorder",
        "auto_active",
        "_row_list",
        "_level_row",
        "_idle_w_by",
        "_active_w_by",
        # columns
        "valid",
        "dirty",
        "cur",
        "rdy",
        "n_served",
        "b_served",
        "last_start",
        "last_end",
        "rpm",
        "svc",
        "iw",
        "aw",
        "thr",
        "anchor",
        "armed",
        "tr_end",
        "tr_pw",
        "tr_si",
        "tr_rpm",
        "tr_sb",
        "tr_cause",
        "standby",
        "sb_since",
        "last_sb",
        "spseq",
        # masks
        "exact_mask",
        "busy_mask",
        "hot",
    )

    def __init__(
        self,
        disks: list[Disk],
        row_list,
        level_row,
        idle_w_by,
        active_w_by,
        auto_active: bool,
    ) -> None:
        num_disks = len(disks)
        self.num_disks = num_disks
        self.disks = disks
        self.stats = [d.stats for d in disks]
        self.bank = StatsBank(num_disks)
        #: Shared timeline recorder (None when observation is off); the
        #: mirror emits the same segments ``Disk._emit`` would.
        self.recorder = disks[0].recorder if disks else None
        self.auto_active = auto_active
        self._row_list = row_list
        self._level_row = level_row
        self._idle_w_by = idle_w_by
        self._active_w_by = active_w_by

        self.valid = [False] * num_disks
        self.dirty = [False] * num_disks
        self.cur = [0.0] * num_disks
        self.rdy = [0.0] * num_disks
        self.n_served = [0] * num_disks
        self.b_served = [0] * num_disks
        self.last_start = [0.0] * num_disks
        self.last_end = [0.0] * num_disks
        self.rpm = [0] * num_disks
        self.svc: list = [()] * num_disks
        self.iw = [0.0] * num_disks
        self.aw = [0.0] * num_disks
        self.thr: list = [None] * num_disks
        self.anchor = [0.0] * num_disks
        self.armed = [False] * num_disks
        # Pending-transition image (``None`` end = no transition in flight).
        self.tr_end: list = [None] * num_disks
        self.tr_pw = [0.0] * num_disks
        self.tr_si = [0] * num_disks
        self.tr_rpm: list = [None] * num_disks
        self.tr_sb = [False] * num_disks
        self.tr_cause = [""] * num_disks
        # Standby / spin-up bookkeeping image.
        self.standby = [False] * num_disks
        self.sb_since: list = [None] * num_disks
        self.last_sb = [0.0] * num_disks
        self.spseq = [0] * num_disks

        self.exact_mask = 0
        self.busy_mask = 0
        self.hot = 0

    # ------------------------------------------------------------------ #
    # Sync contract: refresh (Disk -> columns) / flush (columns -> Disk)
    # ------------------------------------------------------------------ #
    def refresh(self, d: int) -> None:
        """Pull disk ``d``'s row from its ``Disk`` into the columns."""
        disk = self.disks[d]
        bit = 1 << d
        if not disk.mirrorable or (
            self.auto_active
            and (disk._transition_end_s is not None or disk.standby)
        ):
            self.valid[d] = False
            self.exact_mask |= bit
            self.busy_mask &= ~bit
            self.hot = self.exact_mask | self.busy_mask
            return
        self.exact_mask &= ~bit
        r = disk.rpm
        self.rpm[d] = r
        self.svc[d] = self._row_list(self._level_row[r])
        self.iw[d] = self._idle_w_by[r]
        self.aw[d] = self._active_w_by[r]
        self.cur[d] = disk.cursor_s
        self.rdy[d] = disk.ready_s
        self.thr[d] = disk.auto_spindown_threshold_s
        self.anchor[d] = disk.idle_anchor_s
        self.armed[d] = disk._auto_armed
        self.bank.load(d, self.stats[d], r)
        self.n_served[d] = 0
        self.b_served[d] = 0
        e = disk._transition_end_s
        self.tr_end[d] = e
        if e is not None:
            self.tr_pw[d] = disk._transition_power_w
            self.tr_si[d] = STATE_INDEX[disk._transition_state]
            self.tr_rpm[d] = disk._transition_target_rpm
            self.tr_sb[d] = disk._transition_to_standby
            self.tr_cause[d] = disk._transition_cause
        sb = disk.standby
        self.standby[d] = sb
        self.sb_since[d] = disk._standby_since_s
        self.last_sb[d] = disk.last_standby_s
        self.spseq[d] = disk._spinup_seq
        if e is not None or sb:
            self.busy_mask |= bit
        else:
            self.busy_mask &= ~bit
        self.hot = self.exact_mask | self.busy_mask
        self.dirty[d] = False
        self.valid[d] = True

    def flush(self, d: int) -> None:
        """Push disk ``d``'s row back into its ``Disk`` and stats."""
        self.valid[d] = False
        served = self.n_served[d]
        if not served and not self.dirty[d]:
            # Nothing was served or edited through the mirror since the
            # refresh, so the Disk and its stats are already current.
            return
        s = self.stats[d]
        self.bank.store(d, s, self.rpm[d])
        disk = self.disks[d]
        disk.rpm = self.rpm[d]
        disk.cursor_s = self.cur[d]
        disk.ready_s = self.rdy[d]
        disk.idle_anchor_s = self.anchor[d]
        disk._auto_armed = self.armed[d]
        disk.standby = self.standby[d]
        disk._standby_since_s = self.sb_since[d]
        disk.last_standby_s = self.last_sb[d]
        disk._spinup_seq = self.spseq[d]
        e = self.tr_end[d]
        disk._transition_end_s = e
        if e is not None:
            disk._transition_power_w = self.tr_pw[d]
            disk._transition_state = STATE_NAMES[self.tr_si[d]]
            disk._transition_target_rpm = self.tr_rpm[d]
            disk._transition_to_standby = self.tr_sb[d]
            disk._transition_cause = self.tr_cause[d]
        else:
            disk._transition_target_rpm = None
            disk._transition_to_standby = False
            disk._transition_cause = ""
        if served:
            s.num_requests += served
            s.bytes_served += self.b_served[d]
            disk.last_service_start_s = self.last_start[d]
            disk.last_request_end_s = self.last_end[d]

    def sync_to_disks(self) -> None:
        """Flush every live row; ``Disk`` objects become authoritative."""
        valid = self.valid
        flush = self.flush
        for d in range(self.num_disks):
            if valid[d]:
                flush(d)

    def refresh_stale(self) -> None:
        """Re-mirror every invalid, non-exact disk (post vector window)."""
        valid = self.valid
        refresh = self.refresh
        exact = self.exact_mask
        for d in range(self.num_disks):
            if not valid[d] and not (exact >> d) & 1:
                refresh(d)

    # ------------------------------------------------------------------ #
    # In-mirror state machine steps (exact ``Disk`` arithmetic)
    # ------------------------------------------------------------------ #
    def switch_level(self, d: int, new: int) -> None:
        """Re-point disk ``d``'s row caches at RPM level ``new``.

        Hands the old level's idle-by-RPM bucket back before re-pointing
        the columns at the new level's rows and bucket.
        """
        bank = self.bank
        s = self.stats[d]
        if bank.level_hadkey[d] or bank.level_touched[d]:
            s.idle_time_by_rpm[self.rpm[d]] = bank.level_bucket[d]
        self.rpm[d] = new
        self.svc[d] = self._row_list(self._level_row[new])
        self.iw[d] = self._idle_w_by[new]
        self.aw[d] = self._active_w_by[new]
        by_rpm = s.idle_time_by_rpm
        bank.level_bucket[d] = by_rpm.get(new, 0.0)
        bank.level_hadkey[d] = new in by_rpm
        bank.level_touched[d] = False

    def complete_transition(self, d: int) -> None:
        """Mirror of ``Disk._complete_transition`` for a mirrored disk.

        No pending action or spin-up chain can exist on a mirrored disk,
        so neither retry branch is reachable.  The transition-state
        accrual lands on the bank row for that state, interleaving freely
        with the idle/active columns (independent cells).
        """
        end = self.tr_end[d]
        c = self.cur[d]
        dur = end - c if end > c else 0.0
        si = self.tr_si[d]
        bank = self.bank
        bank.time[si][d] += dur
        bank.energy[si][d] += dur * self.tr_pw[d]
        rec = self.recorder
        if rec is not None and end > c:
            rec.record(
                self.disks[d].disk_id,
                STATE_NAMES[si],
                c,
                end,
                self.tr_pw[d],
                self.tr_rpm[d] or self.rpm[d],
                self.tr_cause[d],
            )
        if end > c:
            self.cur[d] = end
        tgt = self.tr_rpm[d]
        if tgt is not None and tgt != self.rpm[d]:
            self.switch_level(d, tgt)
        to_sb = self.tr_sb[d]
        if to_sb and not self.standby[d]:
            self.sb_since[d] = end
        self.standby[d] = to_sb
        self.tr_end[d] = None
        self.anchor[d] = end
        self.armed[d] = True
        self.dirty[d] = True
        if not to_sb:
            self.busy_mask &= ~(1 << d)
            self.hot = self.exact_mask | self.busy_mask

    def begin_transition(
        self,
        d: int,
        start: float,
        dur: float,
        power: float,
        state: str,
        tgt,
        to_sb: bool,
        cause: str = "",
    ) -> None:
        """Mirror of ``Disk._begin_transition`` (the caller has already
        settled the base state to ``start``, and no transition is in
        flight)."""
        e = start + dur
        self.tr_end[d] = e
        self.tr_pw[d] = power
        self.tr_si[d] = STATE_INDEX[state]
        self.tr_rpm[d] = tgt
        self.tr_sb[d] = to_sb
        self.tr_cause[d] = cause
        if e > self.rdy[d]:
            self.rdy[d] = e
        self.dirty[d] = True
        self.busy_mask |= 1 << d
        self.hot = self.exact_mask | self.busy_mask
