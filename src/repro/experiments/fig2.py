"""Figure 2 — the paper's worked example, regenerated.

Figure 2 illustrates the whole §3 pipeline on a two-nest fragment:

* (a) the code: nest 1 sweeps ``U1[1..2S]`` and ``U2[1..2S]``; nest 2 reads
  ``U2[2S+1..3S]``;
* (b) the layout: both arrays striped as ``(0, 4, S)`` over four disks;
* (c) the resulting DAPs: disks 0-1 active through nest 1 (U1's first two
  stripes), disk 2 active through both nests (U2's first stripe *and* its
  third), disk 3 never used;
* (d) the compiler-modified code with ``spin_down`` / ``spin_up`` calls.

This module rebuilds the fragment in the IR, extracts the DAPs, runs the
insertion pass, and renders all three — the report is the paper's figure in
text form, and the assertions in its bench pin the disk sets the paper
states ("for array U1, we access the first two disks ...; for U2, we access
only the third disk").
"""

from __future__ import annotations

from ..analysis.cycles import EstimationModel
from ..analysis.dap import build_dap
from ..ir.builder import ProgramBuilder
from ..ir.program import Program
from ..layout.files import SubsystemLayout, default_layout
from ..power.codegen import render_plan
from ..power.insertion import plan_power_calls
from ..disksim.params import SubsystemParams
from ..disksim.simulator import simulate
from ..trace.generator import TraceOptions, generate_trace, placement_calls
from ..analysis.cycles import measured_timing
from .report import ExperimentReport

__all__ = ["build_fig2_program", "run"]

#: One stripe's worth of 8-byte elements.  The paper's S is the stripe
#: size; with 64 KB units that is 8192 elements.
S_ELEMS = 8192


def build_fig2_program() -> tuple[Program, SubsystemLayout]:
    """The paper's Figure 2(a) fragment and Figure 2(b) layout.

    U1 is striped ``(0, 4, S)`` — its accessed first half lands on disks 0
    and 1.  U2's layout differs (the paper's text: "for array U2, we access
    only the third disk (disk2)"): it is striped ``(2, 2, 2S)``, so the
    first nest's U2 accesses sit entirely on disk 2 and the second nest's
    region ``[2S, 3S)`` on disk 3 — the disk the compiler pre-activates in
    Figure 2(d).

    Statement costs are inflated so nest 1 spans ~17 s (above the TPM
    break-even: the figure's spin calls become profitable); the paper's
    figure is schematic about time, so the structure is what matters.
    """
    from ..layout.striping import Striping

    b = ProgramBuilder("fig2")
    u1 = b.array("U1", (4 * S_ELEMS,))
    u2 = b.array("U2", (4 * S_ELEMS,))
    with b.nest("i", 0, 2 * S_ELEMS) as i:
        b.stmt(reads=[u1[i], u2[i]], cycles=8.0e5)
    with b.nest("j", 0, S_ELEMS) as j:
        b.stmt(reads=[u2[j + 2 * S_ELEMS]], cycles=4.0e5)
    program = b.build()
    layout = default_layout(program.arrays, num_disks=4, stripe_factor=4)
    layout = layout.with_striping(
        {"U2": Striping(2, 2, 2 * S_ELEMS * 8)}
    )
    return program, layout


def run() -> ExperimentReport:
    program, layout = build_fig2_program()
    dap = build_dap(program, layout)
    rep = ExperimentReport(
        experiment_id="fig2",
        title="The paper's Figure 2 worked example (layout, DAPs, modified code)",
        columns=("entries",),
    )
    for name in ("U1", "U2"):
        rep.add_row(f"layout {name}", (str(layout.layout_tuple(name)),))
    for disk in range(4):
        entries = dap.entries(disk)
        text = "; ".join(str(e) for e in entries) if entries else "idle throughout"
        rep.add_row(f"DAP disk{disk}", (text,))

    # Figure 2(d): run the compiler (TPM flavour, as the paper's example
    # uses spin_down/spin_up) and weave the calls into the code.
    params = SubsystemParams(num_disks=4)
    trace = generate_trace(program, layout, TraceOptions())
    base = simulate(trace, params)
    meas = measured_timing(
        program,
        trace.request_nests,
        base.response_array,
    )
    plan = plan_power_calls(
        program,
        layout,
        params,
        "tpm",
        estimation=EstimationModel(relative_error=0.0),
        measured=meas,
    )
    rep.add_row("inserted calls", (str(plan.num_calls),))
    rows = plan.placement_rows
    for k, ((nest, iteration), call) in enumerate(
        zip(rows[["nest", "iteration"]].tolist(), placement_calls(rows))
    ):
        rep.add_row(f"call {k}", (f"{call} at nest {nest}, iteration {iteration}",))
    rep.notes.append(
        "paper: 'for array U1, we access the first two disks (disk0 and "
        "disk1); and for array U2, we access only the third disk (disk2)' "
        "during nest 1 — visible in the DAP rows above; disk 3 holds the "
        "second nest's region and is pre-activated in the modified code"
    )
    rep.notes.append("modified-code rendering:\n" + render_plan(program, rows))
    return rep
