"""The vectorized placement build equals the scalar one it replaced, float
for float (compared through ``float.hex``).

``locate`` below is the scalar code-position mapping, and
``placement_rows_reference`` the per-decision loop that called it twice
per acting decision; both are kept as the test oracle of
:func:`repro.power.insertion._locate` and
:func:`repro.power.insertion._placement_rows`.  The fixed-timeline tests
pin the placement at nest boundaries and program ends: a wake-up spills
into an earlier nest when the lead crosses a nest boundary, and a
spin-down never precedes the last access of its phase (the in-nest
Eq. (1) distance is pinned in ``test_preactivation.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cycles import NestTiming, ProgramTiming
from repro.disksim.params import DiskParams, DRPMParams
from repro.disksim.powermodel import PowerModel
from repro.ir.nodes import PowerAction
from repro.power.insertion import _locate, _placement_rows
from repro.power.planner import DECISION_ROW, GAP_MODES, GapMode, acting
from repro.trace.generator import PLACEMENT_ROW

PM = PowerModel(DiskParams(), DRPMParams())
_ACTIONS = tuple(PowerAction)


def locate(est, t_est, fractions, mode):
    """Map one estimated-timeline instant to ``(nest, ordinal, fraction)``:
    a linear scan over the nests; ``mode`` is ``"down"`` (at-or-after) or
    ``"up"`` (at-or-before)."""
    if t_est <= 0:
        return 0, 0, 0.0
    for i, nt in enumerate(est.nests):
        if t_est <= nt.end_s + 1e-12:
            if nt.trip_count == 0 or nt.seconds_per_iteration <= 0:
                return i, nt.trip_count, 0.0
            x = (t_est - nt.start_s) / nt.seconds_per_iteration
            ordinal = min(nt.trip_count - 1, int(x))
            xi = x - ordinal
            f = 1.0 if fractions is None else min(1.0, max(0.0, float(fractions[i])))
            if f >= 1.0 - 1e-12:
                if mode == "down":
                    ordinal = min(nt.trip_count, ordinal + (1 if xi > 1e-9 else 0))
                return i, ordinal, 0.0
            frac = (xi - f) / (1.0 - f)
            if mode == "down":
                frac = max(frac, 1e-6)  # strictly after the iteration's I/O
            frac = min(1.0, max(0.0, frac))
            if frac >= 1.0 - 1e-9:
                return i, min(nt.trip_count, ordinal + 1), 0.0
            return i, ordinal, frac
    last = est.nests[-1]
    return last.nest_index, last.trip_count, 0.0


def placement_rows_reference(decisions, est, pm, overhead, fractions, preactivate):
    """The down call, and unless the gap is trailing the wake-up call, of
    every acting decision, one decision at a time, then a stable sort into
    code order."""
    standby = GAP_MODES.index(GapMode.STANDBY)
    out = []
    for (
        disk, _start, end, _trailing, mode, target_rpm, down_at, up_at,
        has_up, _saving,
    ) in decisions[acting(decisions)].tolist():
        if mode == standby:
            down, up, down_rpm, up_rpm = (
                _ACTIONS.index(PowerAction.SPIN_DOWN),
                _ACTIONS.index(PowerAction.SPIN_UP), -1, -1,
            )
        else:
            down = up = _ACTIONS.index(PowerAction.SET_RPM)
            down_rpm, up_rpm = target_rpm, pm.disk.rpm
        out.append(
            (*locate(est, down_at, fractions, "down"), down, disk, down_rpm, overhead)
        )
        if has_up:
            target = up_at if preactivate else end
            out.append(
                (*locate(est, target, fractions, "up"), up, disk, up_rpm, overhead)
            )
    rows = np.array(out, dtype=PLACEMENT_ROW)
    return rows[np.lexsort((rows["fraction"], rows["iteration"], rows["nest"]))]


def _exact(rows) -> list[tuple]:
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows
    ]


def _timing(shapes) -> ProgramTiming:
    """Nests from ``(trip_count, seconds_per_iteration, idle_before)``
    shapes, each starting ``idle_before`` after the previous one ends."""
    nests = []
    t = 0.0
    for i, (trips, per_iter, idle) in enumerate(shapes):
        nt = NestTiming(i, trips, per_iter * 750e6, per_iter, t + idle)
        nests.append(nt)
        t = nt.end_s
    return ProgramTiming(tuple(nests), 750e6)


_per_iter = st.one_of(
    st.just(0.0),
    st.sampled_from((0.1, 0.25, 1 / 3)),
    st.floats(1e-3, 2.0),
)
# Mostly back-to-back, as every timeline the library builds is; an idle
# stretch before a nest puts instants at negative in-nest offsets.
_timings = st.lists(
    st.tuples(
        st.integers(0, 20), _per_iter, st.sampled_from((0.0, 0.0, 0.0, 0.35))
    ),
    min_size=1, max_size=5,
).map(_timing)
_fraction = st.one_of(
    st.sampled_from((0.0, 0.3, 0.5, 1.0, 1.0 - 1e-13, -0.5, 1.5)),
    st.floats(0.0, 1.0),
)


@st.composite
def _cases(draw):
    """A timeline, optional per-nest I/O fractions, and instants at, just
    before and just past nest and iteration boundaries, before the
    program start and past its end."""
    est = draw(_timings)
    fractions = draw(st.one_of(
        st.none(), st.lists(_fraction, min_size=len(est.nests),
                            max_size=len(est.nests)),
    ))
    marks = [0.0, -1.0, est.total_seconds * 1.5 + 1.0]
    for nt in est.nests:
        marks += [nt.start_s, nt.end_s, nt.end_s + 1e-12, nt.end_s + 2e-12]
        for k in range(min(nt.trip_count, 3) + 1):
            marks.append(nt.start_s + k * nt.seconds_per_iteration)
    nudge = st.sampled_from((0.0, 1e-13, -1e-13, 1e-10, -1e-10, 1e-3, -1e-3))
    times = draw(st.lists(
        st.one_of(
            st.builds(lambda m, d: m + d, st.sampled_from(marks), nudge),
            st.floats(-0.5, est.total_seconds * 1.2 + 0.5),
        ),
        max_size=40,
    ))
    return est, fractions, times


@settings(max_examples=300, deadline=None)
@given(_cases(), st.sampled_from(("down", "up")))
def test_vector_locate_equals_scalar_locate(case, mode):
    est, fractions, times = case
    nest, ordinal, frac = _locate(est, np.array(times), fractions, mode == "down")
    expected = [locate(est, t, fractions, mode) for t in times]
    got = list(zip(nest.tolist(), ordinal.tolist(), frac.tolist()))
    assert _exact(got) == _exact(expected)


@st.composite
def _decisions(draw, horizon: float):
    """Decision rows of either kind, acting or not, trailing or not."""
    rows = []
    for disk in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(0, 5))):
            start = draw(st.floats(-0.1, horizon + 0.1))
            end = start + draw(st.floats(0.0, horizon / 2 + 0.1))
            mode = draw(st.sampled_from(GAP_MODES))
            acts = mode is not GapMode.NONE
            trailing = draw(st.booleans())
            has_up = acts and not trailing
            rows.append((
                disk, start, end, trailing, GAP_MODES.index(mode),
                draw(st.sampled_from((3600, 6000, 12000)))
                if mode is GapMode.RPM else -1,
                start, draw(st.floats(start, end)) if has_up else 0.0,
                has_up, 0.0,
            ))
    return np.array(rows, dtype=DECISION_ROW)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_placement_build_equals_per_decision_loop(data, preactivate):
    est, fractions, _ = data.draw(_cases())
    decisions = data.draw(_decisions(est.total_seconds))
    got = _placement_rows(decisions, est, PM, 5e3, fractions, preactivate)
    expected = placement_rows_reference(
        decisions, est, PM, 5e3, fractions, preactivate
    )
    assert got.dtype == PLACEMENT_ROW
    assert _exact(got.tolist()) == _exact(expected.tolist())


# A 100-iteration nest of 0.1 s iterations after a 20-iteration one.
_EST = _timing([(20, 0.05, 0.0), (100, 0.1, 0.0)])


def _at(t, fractions=None, down=False):
    nest, ordinal, frac = _locate(_EST, np.array([t]), fractions, down)
    return int(nest[0]), int(ordinal[0]), float(frac[0])


def test_wakeup_spills_into_previous_nest():
    """A lead longer than the iterations already run in the gap-ending
    nest places the wake-up in an earlier nest."""
    nest_start = _EST.nest(1).start_s
    assert _at(nest_start + 2 * 0.1 - 0.53) == (0, 13, 0.0)


def test_positions_clamp_at_program_ends():
    assert _at(-3.0) == (0, 0, 0.0)
    assert _at(0.0, down=True) == (0, 0, 0.0)
    assert _at(1e9) == (1, 100, 0.0)


def test_down_call_rounds_at_or_after():
    """A spin-down mid-iteration moves to the next iteration boundary (or,
    with an I/O prefix, just past the iteration's accesses); one on a
    boundary stays there."""
    nest_start = _EST.nest(1).start_s
    assert _at(nest_start + 3.05, down=True) == (1, 31, 0.0)
    assert _at(nest_start + 3.05) == (1, 30, 0.0)
    assert _at(nest_start + 3.0, down=True) == (1, 30, 0.0)
    assert _at(_EST.nest(1).end_s, down=True) == (1, 100, 0.0)
    nest, ordinal, frac = _at(nest_start + 3.01, [0.0, 0.5], down=True)
    assert (nest, ordinal, frac) == (1, 30, 1e-6)
