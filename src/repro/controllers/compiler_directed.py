"""Compiler-directed schemes CMTPM / CMDRPM (paper §3).

These schemes need no runtime controller at all: the power-management
calls are *in the program* — the compiler pass
(:func:`repro.power.insertion.plan_power_calls`) produced placement rows
(:data:`~repro.trace.generator.PLACEMENT_ROW`), the trace generator
stamped them onto the instruction stream, and the simulator executes them
as :class:`~repro.trace.request.DirectiveRecord` entries when the program
reaches them.  The controller below is therefore just a named no-op whose
presence keeps the eight-scheme comparison uniform.
"""

from __future__ import annotations

from .base import Controller

__all__ = ["CompilerDirected"]


class CompilerDirected(Controller):
    """Marker controller for trace-embedded (compiler-inserted) directives."""

    def __init__(self, kind: str):
        if kind not in ("tpm", "drpm"):
            raise ValueError(f"kind must be 'tpm' or 'drpm', got {kind!r}")
        self.kind = kind
        self.name = "CMTPM" if kind == "tpm" else "CMDRPM"
