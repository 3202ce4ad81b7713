"""Per-RPM power, latency, and transition models.

Anchored at the Table 1 figures for 15 000 RPM and scaled by the standard
spindle-power law (power grows ~RPM^2.8; Gurumurthi et al.):

* ``P_idle(r)  = floor + (P_idle(15k)  - floor) * (r / 15k)^2.8``
* ``P_active(r)= floor + (P_active(15k)- floor) * (r / 15k)^2.8``
* rotational latency scales as ``1/r``; media transfer rate as ``r`` (the
  linear bit density is fixed, so bytes/revolution is constant);
* an RPM transition takes ``steps * transition_time_per_step`` seconds and
  draws the idle power of the **faster** level involved — the paper's stated
  conservative assumption (§4.1).

The model is exposed as a small immutable object with vectorized methods so
the planner can evaluate all 11 levels at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..util.errors import ConfigError
from .params import DiskParams, DRPMParams
from .replay import SEEK_CODES

__all__ = ["PowerModel"]


@dataclass(frozen=True)
class PowerModel:
    """Power/latency figures for every supported RPM level of one disk."""

    disk: DiskParams
    drpm: DRPMParams

    def __post_init__(self) -> None:
        if self.drpm.max_rpm != self.disk.rpm:
            raise ConfigError(
                f"DRPM max level {self.drpm.max_rpm} != disk nominal RPM {self.disk.rpm}"
            )
        if self.drpm.power_floor_w > self.disk.power_idle_w:
            raise ConfigError("power floor exceeds idle power at full speed")

    # ------------------------------------------------------------------ #
    @cached_property
    def levels(self) -> tuple[int, ...]:
        return self.drpm.levels

    def _scale(self, rpm: float | np.ndarray) -> float | np.ndarray:
        return (np.asarray(rpm, dtype=float) / self.disk.rpm) ** self.drpm.power_exponent

    @cached_property
    def _idle_w_by_level(self) -> dict[int, float]:
        """Idle watts per supported integer level (replay fast path)."""
        floor = self.drpm.power_floor_w
        span = self.disk.power_idle_w - floor
        return {int(r): float(floor + span * self._scale(int(r))) for r in self.levels}

    @cached_property
    def _active_w_by_level(self) -> dict[int, float]:
        """Active watts per supported integer level (replay fast path)."""
        floor = self.drpm.power_floor_w
        span = self.disk.power_active_w - floor
        return {int(r): float(floor + span * self._scale(int(r))) for r in self.levels}

    def idle_power_w(self, rpm: float | np.ndarray) -> float | np.ndarray:
        """Idle (spinning, not servicing) power at an RPM level."""
        if type(rpm) is int:
            w = self._idle_w_by_level.get(rpm)
            if w is not None:
                return w
        floor = self.drpm.power_floor_w
        out = floor + (self.disk.power_idle_w - floor) * self._scale(rpm)
        return float(out) if np.isscalar(rpm) or np.ndim(rpm) == 0 else out

    def active_power_w(self, rpm: float | np.ndarray) -> float | np.ndarray:
        """Power while servicing a request at an RPM level."""
        if type(rpm) is int:
            w = self._active_w_by_level.get(rpm)
            if w is not None:
                return w
        floor = self.drpm.power_floor_w
        out = floor + (self.disk.power_active_w - floor) * self._scale(rpm)
        return float(out) if np.isscalar(rpm) or np.ndim(rpm) == 0 else out

    @property
    def standby_power_w(self) -> float:
        """Power when spun down (TPM standby)."""
        return self.disk.power_standby_w

    # ------------------------------------------------------------------ #
    # Mechanics at a given level
    # ------------------------------------------------------------------ #
    def rotational_latency_s(self, rpm: float) -> float:
        """Average rotational latency (half a revolution) at a level."""
        if rpm <= 0:
            raise ConfigError(f"rotational latency undefined at rpm={rpm}")
        return 30.0 / rpm

    def transfer_rate_bps(self, rpm: float) -> float:
        """Sustained media rate at a level (linear in RPM)."""
        if rpm <= 0:
            raise ConfigError(f"transfer rate undefined at rpm={rpm}")
        return self.disk.transfer_rate_bps * (rpm / self.disk.rpm)

    @cached_property
    def level_index(self) -> dict[int, int]:
        """Row index of each supported RPM level in the service tables."""
        return {int(r): i for i, r in enumerate(self.levels)}

    @cached_property
    def service_seek_base_s(self) -> np.ndarray:
        """``(num_levels, len(SEEK_CLASSES))`` table of ``seek time +
        rotational latency`` per (RPM level, seek-class code).

        The seek times in code order are none for ``seq`` (exact stream
        continuation), the short seek for ``stream`` (resuming a recently
        served file after a brief interruption) and the average seek for
        ``full`` (unrelated target).  With :attr:`service_rate_bps`, this
        is the one definition of service time: a sub-request of ``nbytes``
        at row ``li`` and code ``sc`` takes
        ``table[li, sc] + nbytes / service_rate_bps[li]``, whether the
        vector kernel, :class:`~repro.disksim.disk.Disk` or
        :meth:`service_time_s` evaluates it.
        """
        seeks = (0.0, self.disk.short_seek_s, self.disk.avg_seek_s)
        out = np.empty((len(self.levels), len(seeks)), dtype=np.float64)
        for li, rpm in enumerate(self.levels):
            latency = self.rotational_latency_s(int(rpm))
            for sc, seek_s in enumerate(seeks):
                out[li, sc] = seek_s + latency
        return out

    @cached_property
    def service_rate_bps(self) -> np.ndarray:
        """Media transfer rate per supported level (table-order rows)."""
        return np.array(
            [self.transfer_rate_bps(int(r)) for r in self.levels],
            dtype=np.float64,
        )

    @cached_property
    def _service_rows(self) -> dict[int, tuple[dict[int, float], float]]:
        """Scalar view of the service table per supported level:
        ``rpm -> ({code: seek + latency}, rate)``.  A code outside the
        table is a missing key, never another class's column."""
        return {
            int(r): (dict(enumerate(base)), rate)
            for r, base, rate in zip(
                self.levels,
                self.service_seek_base_s.tolist(),
                self.service_rate_bps.tolist(),
            )
        }

    def service_time_s(
        self, nbytes: int, rpm: int, seek: int = SEEK_CODES["full"]
    ) -> float:
        """Service time of one request at a level: seek (by class code)
        plus average rotational latency plus media transfer."""
        if nbytes < 0:
            raise ConfigError(f"negative request size {nbytes}")
        row = self._service_rows.get(rpm)
        if row is None:
            raise ConfigError(f"rpm {rpm} is not a supported level")
        base, rate = row
        try:
            seek_base = base[seek]
        except KeyError:
            raise ConfigError(f"unknown seek class code {seek!r}") from None
        return seek_base + nbytes / rate

    # ------------------------------------------------------------------ #
    # RPM transitions
    # ------------------------------------------------------------------ #
    def transition_time_s(self, rpm_from: int, rpm_to: int) -> float:
        """Time to modulate the spindle between two levels."""
        steps = self.drpm.steps_between(rpm_from, rpm_to)
        return steps * self.drpm.transition_time_per_step_s

    @cached_property
    def _transition_by_pair(self) -> dict[tuple[int, int], tuple[float, float]]:
        """(duration, power) per supported (from, to) pair (replay fast path).

        The cached values repeat :meth:`transition_time_s` /
        :meth:`transition_power_w` exactly, so shift-heavy replays (every
        DRPM-family scheme) skip the per-shift step arithmetic without any
        numeric drift.
        """
        return {
            (int(a), int(b)): (
                self.transition_time_s(int(a), int(b)),
                self.transition_power_w(int(a), int(b)),
            )
            for a in self.levels
            for b in self.levels
        }

    def transition_energy_j(self, rpm_from: int, rpm_to: int) -> float:
        """Energy of a level change: faster level's idle power for the whole
        transition (the paper's conservative assumption)."""
        t = self.transition_time_s(rpm_from, rpm_to)
        return t * self.idle_power_w(max(rpm_from, rpm_to))

    def transition_power_w(self, rpm_from: int, rpm_to: int) -> float:
        """Instantaneous power drawn during a level change."""
        return self.idle_power_w(max(rpm_from, rpm_to))

    # ------------------------------------------------------------------ #
    # TPM transitions
    # ------------------------------------------------------------------ #
    @property
    def spin_down_time_s(self) -> float:
        return self.disk.spin_down_time_s

    @property
    def spin_up_time_s(self) -> float:
        return self.disk.spin_up_time_s

    @property
    def spin_down_energy_j(self) -> float:
        return self.disk.spin_down_energy_j

    @property
    def spin_up_energy_j(self) -> float:
        return self.disk.spin_up_energy_j

    # ------------------------------------------------------------------ #
    # Vectorized planner helpers
    # ------------------------------------------------------------------ #
    @cached_property
    def level_array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)

    @cached_property
    def idle_power_per_level(self) -> np.ndarray:
        """Idle watts for each supported level (ascending by RPM)."""
        return np.asarray(self.idle_power_w(self.level_array))

    @cached_property
    def steps_from_max(self) -> np.ndarray:
        """Step distance of each level from the top level."""
        top = self.drpm.num_levels - 1
        return top - np.arange(self.drpm.num_levels)
