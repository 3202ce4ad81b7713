"""Controller interface re-export.

The interface itself lives in :mod:`repro.disksim.interface` (the simulator
consumes it, and keeping it beside the engine avoids an import cycle); the
concrete policies live here in :mod:`repro.controllers`.
"""

from ..disksim.interface import Controller

__all__ = ["Controller"]
