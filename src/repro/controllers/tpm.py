"""Reactive TPM — traditional threshold-based spin-down (paper §2).

The classic laptop/desktop policy of Douglis et al. [7, 8]: once a disk has
been idle for the *idleness threshold*, spin it down; the next request pays
the full spin-up delay.  The behaviour is implemented autonomously inside
the :class:`~repro.disksim.disk.Disk` advance loop (the simulator's event
stream is too sparse to observe threshold crossings); this controller just
arms it.

As the paper observes (§5.1), with server-class transition costs
(1.5 s + 10.9 s, 13 J + 135 J) and the benchmarks' short idle periods this
scheme never finds a worthwhile spin-down opportunity on the original codes
— and when forced by a small threshold it *loses* energy and performance.
"""

from __future__ import annotations

from ..disksim.disk import Disk
from ..disksim.powermodel import PowerModel
from ..disksim.replay import SEEK_CODES
from .base import Controller

__all__ = ["ReactiveTPM", "AdaptiveTPM"]


class ReactiveTPM(Controller):
    """Fixed idleness-threshold spin-down."""

    name = "TPM"

    def __init__(self, idleness_threshold_s: float = 2.0):
        if idleness_threshold_s <= 0:
            raise ValueError("idleness threshold must be positive")
        self.auto_spindown_threshold_s = idleness_threshold_s


class AdaptiveTPM(Controller):
    """Adaptive-threshold spin-down (the "adaptive threshold based
    strategies" of paper §2, after Douglis et al. [7]).

    Per disk, the idleness threshold adapts on two signals:

    * **energy** — a wake whose preceding standby was shorter than the
      ~15 s break-even wasted the 148 J transition pair: raise the
      threshold;
    * **performance** — wakes arriving in quick succession mean each
      request round is eating a 10.9 s spin-up (the thrash spiral that
      fixed thresholds fall into on concentrated layouts, where every
      cycle is *individually* energy-profitable while collectively
      serializing the application): if two wakes land within
      ``refractory_spin_ups`` spin-up times of each other, raise the
      threshold regardless of energy profit.

    Only a wake that was both profitable and isolated lowers the threshold
    back toward its initial value.
    """

    name = "ATPM"

    def __init__(
        self,
        initial_threshold_s: float = 2.0,
        max_threshold_s: float = 3600.0,
        refractory_spin_ups: float = 10.0,
    ):
        if initial_threshold_s <= 0:
            raise ValueError("initial threshold must be positive")
        self.initial_threshold_s = initial_threshold_s
        self.max_threshold_s = max_threshold_s
        self.refractory_spin_ups = refractory_spin_ups
        self.auto_spindown_threshold_s = initial_threshold_s
        self._pm: PowerModel | None = None
        self._seen_spin_ups: list[int] = []
        self._last_wake_s: list[float] = []

    def prepare(self, num_disks: int, power_model: PowerModel) -> None:
        self._pm = power_model
        self._seen_spin_ups = [0] * num_disks
        self._last_wake_s = [float("-inf")] * num_disks

    def on_request_complete(
        self,
        disk: Disk,
        t_issue: float,
        t_start: float,
        t_complete: float,
        nbytes: int,
        seek: int = SEEK_CODES["full"],
    ) -> None:
        pm = self._pm
        assert pm is not None, "controller used before prepare()"
        d = disk.disk_id
        if disk.stats.num_spin_ups > self._seen_spin_ups[d]:
            self._seen_spin_ups[d] = disk.stats.num_spin_ups
            refractory = self.refractory_spin_ups * pm.spin_up_time_s
            too_soon = (t_complete - self._last_wake_s[d]) < refractory
            self._last_wake_s[d] = t_complete
            profitable = disk.last_standby_s >= pm.disk.tpm_breakeven_s
            threshold = disk.auto_spindown_threshold_s or self.initial_threshold_s
            if profitable and not too_soon:
                threshold = max(self.initial_threshold_s, threshold / 2.0)
            else:
                threshold = min(self.max_threshold_s, threshold * 2.0)
            disk.auto_spindown_threshold_s = threshold
