#!/usr/bin/env python
"""Scenario: watch the schemes act — per-disk state timelines.

Replays galgel under Base, reactive DRPM, and CMDRPM with a
:class:`~repro.disksim.timeline.TimelineRecorder` attached, and renders the
per-disk state strip charts side by side.  The pictures make the paper's
§5.1 story immediate:

* Base: every disk idles at full speed (`=`) between its service bursts;
* reactive DRPM: the window heuristic drags levels down *during* bursts
  (slow service) and parks disks wherever the last burst left them (`-`);
* CMDRPM: disks drop to low levels for exactly the compute phases and are
  ramped back (`~`) just before the next sweep — the pre-activation of
  Eq. (1) made visible.

Run:  python examples/timeline_explorer.py
"""

from repro.analysis import EstimationModel, compute_timing, measured_timing
from repro.controllers import CompilerDirected, ReactiveDRPM
from repro.disksim import (
    SubsystemParams,
    TimelineRecorder,
    render_timeline,
    simulate,
    timeline_to_csv,
)
from repro.layout import default_layout
from repro.power import plan_power_calls
from repro.trace import directives_at_positions, generate_trace
from repro.workloads import build_workload

wl = build_workload("galgel")
params = SubsystemParams(num_disks=8)
layout = default_layout(wl.program.arrays, num_disks=8)
trace = generate_trace(wl.program, layout, wl.trace_options)

# --- Base ---------------------------------------------------------------- #
base_rec = TimelineRecorder()
base = simulate(trace, params, recorder=base_rec, collect_busy_intervals=True)
print(f"=== Base ({base.total_energy_j:.0f} J, {base.execution_time_s:.1f} s) ===")
print(render_timeline(base_rec, width=72, disks=(0, 3, 7)))

# --- Reactive DRPM ------------------------------------------------------- #
drpm_rec = TimelineRecorder()
drpm = simulate(trace, params, ReactiveDRPM(params.drpm), recorder=drpm_rec)
print(
    f"\n=== reactive DRPM ({drpm.total_energy_j:.0f} J, "
    f"{drpm.execution_time_s:.1f} s — note the stretched axis) ==="
)
print(render_timeline(drpm_rec, width=72, disks=(0, 3, 7)))

# --- CMDRPM --------------------------------------------------------------- #
measured = measured_timing(
    wl.program,
    trace.request_nests,
    base.response_array,
)
plan = plan_power_calls(
    wl.program, layout, params, "drpm",
    estimation=wl.estimation, measured=measured,
)
cm_rec = TimelineRecorder()
cm = simulate(
    trace.with_directives(
        directives_at_positions(plan.placement_rows, compute_timing(wl.program))
    ),
    params,
    CompilerDirected("drpm"),
    recorder=cm_rec,
)
print(
    f"\n=== CMDRPM ({cm.total_energy_j:.0f} J, {cm.execution_time_s:.1f} s, "
    f"{plan.num_calls} inserted calls) ==="
)
print(render_timeline(cm_rec, width=72, disks=(0, 3, 7)))

# --- Inspect one gap precisely ------------------------------------------- #
mid_gap = base.execution_time_s * 0.45  # middle of the first compute phase
for name, rec in (("Base", base_rec), ("DRPM", drpm_rec), ("CMDRPM", cm_rec)):
    seg = rec.state_at(0, mid_gap)
    print(
        f"{name:>7} @ t={mid_gap:5.1f}s disk0: {seg.state:9s} "
        f"rpm={seg.rpm:6d} power={seg.power_w:5.2f} W"
    )

# Timelines export to CSV for external plotting.
csv = timeline_to_csv(cm_rec, disks=(0,))
print(f"\nCSV export: {len(csv.splitlines()) - 1} segments for disk 0, e.g.")
print("\n".join(csv.splitlines()[:4]))
