"""Power-management controllers: Base, TPM, DRPM, oracles, compiler-directed."""

from .base import Controller
from .compiler_directed import CompilerDirected
from .drpm import ReactiveDRPM
from .oracle import (
    OracleDRPM,
    OracleTPM,
    decisions_to_directives,
    oracle_decisions,
    realized_idle_gaps,
)
from .tpm import AdaptiveTPM, ReactiveTPM

__all__ = [
    "Controller",
    "CompilerDirected",
    "ReactiveDRPM",
    "OracleDRPM",
    "OracleTPM",
    "decisions_to_directives",
    "oracle_decisions",
    "realized_idle_gaps",
    "ReactiveTPM",
    "AdaptiveTPM",
]
