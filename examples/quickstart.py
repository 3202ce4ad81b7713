#!/usr/bin/env python
"""Quickstart: compiler-directed disk power management in ~60 lines.

Builds a small array program (an I/O sweep, a long in-memory compute phase,
another sweep), lets the compiler extract its disk access pattern, insert
``set_RPM`` calls with pre-activation, and compares the result against the
unmanaged baseline on the simulated 4-disk subsystem.

Run:  python examples/quickstart.py
"""

from repro.analysis import EstimationModel, compute_timing, measured_timing
from repro.controllers import CompilerDirected
from repro.disksim import SubsystemParams, simulate
from repro.ir import ProgramBuilder, format_program
from repro.layout import default_layout
from repro.power import acting, plan_power_calls
from repro.trace import (
    TraceOptions,
    directives_at_positions,
    generate_trace,
    placement_calls,
)

# ----------------------------------------------------------------------- #
# 1. Write the program: sweep A, relax in memory for 3 s, sweep B.
# ----------------------------------------------------------------------- #
b = ProgramBuilder("quickstart")
N = 512
A = b.array("A", (N, 1024))  # 4 MB, 8 KB rows, disk resident
B = b.array("B", (N, 1024))
W = b.array("W", (4, 256), memory_resident=True)  # in-memory working set

with b.nest("i", 0, N) as i:
    with b.loop("j", 0, 1024) as j:
        b.stmt(reads=[A[i, j]], cycles=2.0)

with b.nest("r", 0, 300) as r:
    with b.loop("k", 0, 256) as k:
        b.stmt(reads=[W[0, k]], writes=[W[1, k]], cycles=750e6 * 3.0 / 300 / 256)

with b.nest("m", 0, N) as m:
    with b.loop("l", 0, 1024) as l:
        b.stmt(reads=[B[m, l]], writes=[B[m, l]], cycles=2.0)

program = b.build()
print(format_program(program))
print()

# ----------------------------------------------------------------------- #
# 2. Lay the arrays out on 4 disks (64 KB stripes, paper defaults).
# ----------------------------------------------------------------------- #
params = SubsystemParams(num_disks=4)
layout = default_layout(program.arrays, num_disks=4)
options = TraceOptions()

# ----------------------------------------------------------------------- #
# 3. Generate the I/O trace and replay the unmanaged baseline.
# ----------------------------------------------------------------------- #
trace = generate_trace(program, layout, options)
base = simulate(trace, params, collect_busy_intervals=True)
print(f"Base:   {base.total_energy_j:8.1f} J   {base.execution_time_s:6.2f} s   "
      f"{base.num_requests} requests")

# ----------------------------------------------------------------------- #
# 4. The compiler pass: measure, extract the DAP, plan set_RPM calls.
# ----------------------------------------------------------------------- #
measured = measured_timing(
    program,
    trace.request_nests,
    base.response_array,
)
plan = plan_power_calls(
    program, layout, params, kind="drpm",
    estimation=EstimationModel(relative_error=0.05),
    measured=measured,
)
print(f"\nCompiler inserted {plan.num_calls} power-management calls "
      f"covering {acting(plan.decision_rows).sum()} idle gaps:")
first = plan.placement_rows[:6]
for (nest, iteration), call in zip(
    first[["nest", "iteration"]].tolist(), placement_calls(first)
):
    print(f"  nest {nest}, iteration {iteration}: {call}")
if plan.num_calls > 6:
    print(f"  ... and {plan.num_calls - 6} more")

# ----------------------------------------------------------------------- #
# 5. Replay with the calls embedded in the instruction stream (CMDRPM).
# ----------------------------------------------------------------------- #
directives = directives_at_positions(plan.placement_rows, compute_timing(program))
cm = simulate(trace.with_directives(directives), params, CompilerDirected("drpm"))
print(f"\nCMDRPM: {cm.total_energy_j:8.1f} J   {cm.execution_time_s:6.2f} s")
print(f"        energy  {100 * (1 - cm.total_energy_j / base.total_energy_j):.1f}% saved")
print(f"        runtime {100 * (cm.execution_time_s / base.execution_time_s - 1):+.2f}%")
