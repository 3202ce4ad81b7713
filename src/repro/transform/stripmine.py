"""Strip-mining.

Paper §3: *"We also stripe-mine the loop, because it is unreasonable to
unroll the loop to make explicit the point at which the spin-up call is to
be inserted."*  Strip-mining splits a loop into an outer strip iterator and
an inner element iterator::

    for i in [0, N):  S(i)
      -->
    for i_s in [0, N/F):  for i_e in [0, F):  S(F*i_s + i_e)

so a power call can be placed between strips — i.e. at an iteration
boundary that exists syntactically.  In this library a plan's placement
rows (:data:`~repro.trace.generator.PLACEMENT_ROW`) already address
iteration ordinals directly, so strip-mining is provided as the explicit IR
transformation the paper describes (used by tests and examples to show the
inserted-code form of a plan, and reusable as a building block for custom
pipelines).
"""

from __future__ import annotations

from ..ir.expr import var
from ..ir.nodes import Loop, PowerCall, Statement
from ..util.errors import TransformError

__all__ = ["strip_mine", "strip_mine_with_call"]


def strip_mine(loop: Loop, strip: int) -> Loop:
    """Split ``loop`` into strips of ``strip`` iterations.

    Requires a normalized loop (lower 0, step 1) whose trip count the strip
    size divides.
    """
    if loop.lower != 0 or loop.step != 1:
        raise TransformError(f"strip-mining requires a normalized loop, got {loop}")
    if strip <= 0 or loop.upper % strip != 0:
        raise TransformError(
            f"strip size {strip} must divide trip count {loop.upper}"
        )
    outer_var, inner_var = f"{loop.var}_s", f"{loop.var}_e"
    replacement = var(outer_var) * strip + var(inner_var)

    def rewrite(node):
        if isinstance(node, Statement):
            return Statement(
                refs=tuple(r.substitute(loop.var, replacement) for r in node.refs),
                cost_cycles=node.cost_cycles,
                label=node.label,
            )
        if isinstance(node, Loop):
            return node.with_body(tuple(rewrite(n) for n in node.body))
        return node

    inner = Loop(inner_var, 0, strip, tuple(rewrite(n) for n in loop.body))
    return Loop(outer_var, 0, loop.upper // strip, (inner,))


def strip_mine_with_call(
    loop: Loop, strip: int, call: PowerCall, at_strip: int
) -> list[Loop | PowerCall]:
    """Strip-mine and insert ``call`` before strip ``at_strip`` — the
    paper's Figure 2(d) form, where ``spin_up`` appears between strips.

    The IR has no conditionals, so the outer strip loop is peeled into the
    strips before the call and the strips after it, with the call node in
    between; degenerate splits (``at_strip`` 0 or B) drop the empty side.
    Returns the node sequence that replaces the original loop.
    """
    mined = strip_mine(loop, strip)
    total_strips = mined.trip_count
    if not 0 <= at_strip <= total_strips:
        raise TransformError(
            f"strip index {at_strip} out of range [0, {total_strips}]"
        )
    out: list[Loop | PowerCall] = []
    if at_strip > 0:
        out.append(
            Loop(mined.var, 0, at_strip, mined.body, mined.step)
        )
    out.append(call)
    if at_strip < total_strips:
        out.append(
            Loop(mined.var, at_strip, total_strips, mined.body, mined.step)
        )
    return out
