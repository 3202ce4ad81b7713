"""Reactive DRPM — Gurumurthi et al.'s window heuristic (paper §2, §4.1).

Each disk independently tracks the average *normalized* response time
(observed response over the full-speed service time of the same request,
which factors request size out) of its last ``window_size`` completed
requests — the paper uses a window of 30.  At each window boundary the
controller compares the window average against the **previous** window's:

* degradation above the **upper tolerance** means performance is slipping
  too fast: the disk ramps straight back to maximum RPM (the DRPM paper's
  recovery rule) and the reference window resets;
* change below the **lower tolerance** means the workload absorbed the
  current speed: the disk steps **one** RPM level down.

Because a *held* speed produces near-zero window-to-window change, the
scheme ratchets downward — one step every window or two — until a step's
marginal slowdown exceeds the upper tolerance, then snaps to full speed and
begins again.  This sawtooth is the source of both reactive DRPM's energy
savings (disks park at whatever level the last burst left them through the
following idle period) and its execution-time penalty (requests are
serviced at reduced speed until the recovery fires) — the two effects the
compiler-directed scheme eliminates (paper §5.1).
"""

from __future__ import annotations

from ..disksim.disk import Disk
from ..disksim.params import DRPMParams
from ..disksim.powermodel import PowerModel
from ..disksim.replay import SEEK_CODES
from ..disksim.timeline import CAUSE_DRPM_WINDOW
from ..power.planner import drpm_window_step
from .base import Controller

__all__ = ["ReactiveDRPM"]


class ReactiveDRPM(Controller):
    """Per-disk n-request response-time window heuristic.

    ``on_request_complete`` applies it one completion at a time, on the
    stepwise route (closed loop, or with directive rows or a fault plan).
    An open-loop replay with neither runs on the vector kernel
    (:func:`repro.disksim.simulator._run_drpm`), which reads the window
    state below at each chunk's entry, applies the same
    :func:`~repro.power.planner.drpm_window_step` per window, and writes
    the state back, so both routes leave identical disks and controller.
    """

    name = "DRPM"

    def __init__(self, drpm: DRPMParams):
        self.drpm = drpm
        self._pm: PowerModel | None = None
        self._window_sum: list[float] = []
        self._window_count: list[int] = []
        #: Previous window's mean normalized response per disk (None until
        #: the first window completes).
        self._prev_mean: list[float | None] = []
        #: Full-speed service time per (nbytes, seek-class code) — requests
        #: take only a handful of distinct sizes, so memoizing the baseline
        #: avoids recomputing it for every completion in the window.
        self._baseline: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------ #
    def prepare(self, num_disks: int, power_model: PowerModel) -> None:
        self._pm = power_model
        self._window_sum = [0.0] * num_disks
        self._window_count = [0] * num_disks
        self._prev_mean = [None] * num_disks
        self._baseline = {}

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
        # Judge the *service* characteristic (speed at the current level),
        # not end-to-end response: a request that waited out an RPM ramp
        # would otherwise poison the window with a one-off outlier and make
        # the heuristic ping-pong.  The performance COST of waits still
        # lands in execution time; this only affects the control signal.
        observed = t_complete - t_start
        key = (nbytes, seek)
        baseline = self._baseline.get(key)
        if baseline is None:
            baseline = pm.service_time_s(nbytes, self.drpm.max_rpm, seek)
            self._baseline[key] = baseline
        d = disk.disk_id
        self._window_sum[d] += observed / baseline
        self._window_count[d] += 1
        if self._window_count[d] < self.drpm.window_size:
            return
        mean = self._window_sum[d] / self._window_count[d]
        self._window_sum[d] = 0.0
        self._window_count[d] = 0
        prev = self._prev_mean[d]
        self._prev_mean[d] = mean
        target = drpm_window_step(prev, mean, disk.rpm, self.drpm)
        if target is None:
            return
        disk.set_rpm(t_complete, target, CAUSE_DRPM_WINDOW)
        if target == self.drpm.max_rpm:
            # Reference resets: the next comparison starts from the
            # recovered (full-speed) service level.
            self._prev_mean[d] = None
