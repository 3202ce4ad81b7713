"""Trace-driven multi-disk power simulator (the paper's DiskSim stand-in)."""

from .disk import STATE_NAMES, Disk, DiskStats
from .interface import Controller
from .params import DiskParams, DRPMParams, SubsystemParams
from .powermodel import PowerModel
from .simulator import apply_call, simulate
from .stats import BusyInterval, ResponseSummary, SimulationResult
from .timeline import Segment, TimelineRecorder, render_timeline, timeline_to_csv

__all__ = [
    "STATE_NAMES",
    "Disk",
    "DiskStats",
    "Controller",
    "DiskParams",
    "DRPMParams",
    "SubsystemParams",
    "PowerModel",
    "apply_call",
    "simulate",
    "BusyInterval",
    "ResponseSummary",
    "SimulationResult",
    "Segment",
    "TimelineRecorder",
    "render_timeline",
    "timeline_to_csv",
]
