"""Render a compiler plan as paper-style modified code (Figure 2(d)).

The paper shows its output as source code with ``spin_down``/``spin_up``
calls woven between strip-mined loops.  :func:`render_plan` produces that
view: the program's pseudo-code with every planned call printed at its
insertion point, annotated with the gap it serves.  This is a *display*
of the plan — the executable form is the directive stream the trace
generator builds from the same placement rows.

:func:`insert_calls_into_nest` additionally materializes a plan's calls for
one nest as real IR (peeled loops with :class:`~repro.ir.nodes.PowerCall`
nodes between them), which the tests use to check that the woven code is
structurally faithful.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..ir.nodes import Loop, Node, PowerCall
from ..ir.pretty import format_loop
from ..ir.program import Program
from ..trace.generator import placement_calls
from ..util.errors import TransformError

__all__ = ["render_plan", "insert_calls_into_nest"]


def render_plan(program: Program, rows: np.ndarray) -> str:
    """Pseudo-code of ``program`` with the plan's calls (placement rows,
    :data:`~repro.trace.generator.PLACEMENT_ROW`) woven in.

    Calls with fraction 0 print immediately before their iteration; calls
    with a positive fraction print inside the iteration (the strip-mined
    position after the body's accesses, paper §3).
    """
    by_nest: dict[int, list[tuple[int, float, PowerCall]]] = defaultdict(list)
    for (nest, iteration, fraction), call in zip(
        rows[["nest", "iteration", "fraction"]].tolist(), placement_calls(rows)
    ):
        if not 0 <= nest < len(program.nests):
            raise TransformError(f"placement targets unknown nest {nest}")
        by_nest[nest].append((iteration, fraction, call))

    lines: list[str] = [f"program {program.name} with inserted power calls:"]
    for idx, nest in enumerate(program.nests):
        lines.append(f"  nest {idx}:  # {nest}")
        calls = sorted(by_nest.get(idx, []), key=lambda p: (p[0], p[1]))
        if not calls:
            lines.append("    " + format_loop(nest, depth=0).replace("\n", "\n    "))
            continue
        cursor = 0
        for iteration, fraction, call in calls:
            where = (
                f"before iteration {iteration}"
                if fraction == 0.0
                else f"within iteration {iteration} (after its accesses)"
            )
            if iteration > cursor:
                lines.append(
                    f"    for {nest.var} in [{cursor}, {iteration}): ... body ..."
                )
            lines.append(f"    {call}  # {where}")
            cursor = max(cursor, iteration + (1 if fraction > 0 else 0))
            if fraction > 0:
                lines.append(
                    f"    for {nest.var} in [{iteration}, {iteration + 1}): "
                    "... body continues after the call ..."
                )
        if cursor < nest.trip_count:
            lines.append(
                f"    for {nest.var} in [{cursor}, {nest.trip_count}): ... body ..."
            )
    return "\n".join(lines)


def insert_calls_into_nest(nest: Loop, rows: np.ndarray) -> list[Node]:
    """Materialize whole-iteration placement rows for one nest as IR.

    The nest is peeled at each row's iteration ordinal, with the
    :class:`PowerCall` nodes between the peels — the executable shape of
    paper Figure 2(d).  Fractional placements are rounded *down* to their
    iteration boundary (strictly-inside-the-body positions require the
    strip-mined body form, which display uses but IR peeling approximates
    conservatively: the call runs before the iteration's accesses, i.e.
    never later than planned).

    Requires a normalized loop (lower 0, step 1).
    """
    if nest.lower != 0 or nest.step != 1:
        raise TransformError("call insertion requires a normalized loop")
    marks = list(zip(rows["iteration"].tolist(), placement_calls(rows)))
    for iteration, _ in marks:
        if not 0 <= iteration <= nest.trip_count:
            raise TransformError(
                f"placement iteration {iteration} outside [0, {nest.trip_count}]"
            )
    marks.sort(key=lambda m: m[0])

    out: list[Node] = []
    cursor = 0
    for at, call in marks:
        if at > cursor:
            out.append(Loop(nest.var, cursor, at, nest.body, nest.step))
            cursor = at
        out.append(call)
    if cursor < nest.trip_count:
        out.append(Loop(nest.var, cursor, nest.trip_count, nest.body, nest.step))
    return out
