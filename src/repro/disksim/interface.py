"""Controller interface: how power-management schemes plug into the simulator.

A scheme is the combination of

* an optional **autonomous disk behaviour** (reactive TPM's idleness
  threshold, applied inside the disk's time-advance loop);
* an optional **reactive hook** invoked at every sub-request completion
  (reactive DRPM's window heuristic lives here);
* an optional stream of **timed directives** at absolute times (the oracle
  schemes, which by definition know the realized timeline), returned as
  :data:`~repro.trace.request.DIRECTIVE_ROW` rows;
* and — for the compiler-directed schemes — **directive rows inside the
  trace itself**, which need no controller at all (the calls are part of
  the program; the controller here is a no-op).

The simulator treats every scheme uniformly through this interface, which
is what makes the paper's eight-scheme comparison a single code path.
"""

from __future__ import annotations

import numpy as np

from ..trace.request import DIRECTIVE_ROW
from .disk import Disk
from .powermodel import PowerModel
from .replay import SEEK_CODES

__all__ = ["Controller"]


class Controller:
    """Base controller: no power management (the paper's **Base** scheme)."""

    #: Human-readable scheme name (overridden by subclasses).
    name: str = "Base"

    #: Reactive TPM threshold; ``None`` disables autonomous spin-down.
    auto_spindown_threshold_s: float | None = None

    def prepare(self, num_disks: int, power_model: PowerModel) -> None:
        """Called once before replay starts."""

    def timed_directives(self) -> np.ndarray:
        """Absolute-time directive rows to apply during replay (oracle
        schemes), in any order: the simulator sorts them stably by time."""
        return np.empty(0, DIRECTIVE_ROW)

    def on_request_complete(
        self,
        disk: Disk,
        t_issue: float,
        t_start: float,
        t_complete: float,
        nbytes: int,
        seek: int = SEEK_CODES["full"],
    ) -> None:
        """Reactive hook, invoked after each sub-request completes.

        ``seek`` is the sub-request's seek-class code (an index into
        :data:`~repro.disksim.replay.SEEK_CLASSES`, as ``Disk.serve`` took
        it), so the controller can normalize like against like, e.g. with
        ``PowerModel.service_time_s(nbytes, rpm, seek)``.
        """
