"""Compiler analyses: access patterns, regions, cycle estimation, DAPs."""

from .access import NestAccess, RefFootprint, analyze_nest, analyze_program
from .cycles import (
    EstimationModel,
    NestTiming,
    ProgramTiming,
    compute_timing,
    loop_body_cycles,
    measured_timing,
    scale_timing,
)
from .dap import DAPEntry, DiskAccessPattern, build_dap
from .gapstats import GapStatistics, exploitable_fractions, gap_statistics
from .idle import (
    GAP_ROW,
    idle_gaps_from_intervals,
    merge_intervals,
    total_idle_time,
)
from .regions import FlatExtents, Region

__all__ = [
    "NestAccess",
    "RefFootprint",
    "analyze_nest",
    "analyze_program",
    "EstimationModel",
    "NestTiming",
    "ProgramTiming",
    "compute_timing",
    "loop_body_cycles",
    "measured_timing",
    "scale_timing",
    "DAPEntry",
    "DiskAccessPattern",
    "build_dap",
    "GapStatistics",
    "exploitable_fractions",
    "gap_statistics",
    "GAP_ROW",
    "idle_gaps_from_intervals",
    "merge_intervals",
    "total_idle_time",
    "FlatExtents",
    "Region",
]
