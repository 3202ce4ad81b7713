"""Trace generation: request streams, caching, coalescing, directives."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.cycles import compute_timing
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import PowerAction, PowerCall
from repro.layout.files import default_layout
from repro.trace.generator import (
    TraceOptions,
    directives_at_positions,
    generate_trace,
    placement_calls,
)
from repro.trace.request import DIRECTIVE_ROW
from repro.util.errors import TraceError
from repro.util.units import KB

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import directive_rows, placement_rows  # noqa: E402


def _rows_program(rows=8, width=1024):
    """8 KB rows, each swept once."""
    b = ProgramBuilder("rows")
    A = b.array("A", (rows, width))
    with b.nest("i", 0, rows) as i:
        with b.loop("j", 0, width) as j:
            b.stmt(reads=[A[i, j]], cycles=10)
    return b.build()


def test_row_sweep_one_request_per_row():
    prog = _rows_program()
    lay = default_layout(prog.arrays, num_disks=4)
    trace = generate_trace(
        prog, lay, TraceOptions(cache_line_bytes=8 * KB, max_request_bytes=8 * KB)
    )
    assert trace.num_requests == 8
    assert all(r.nbytes == 8 * KB for r in trace.requests)
    assert [r.offset for r in trace.requests] == [i * 8 * KB for i in range(8)]
    assert all(not r.is_write for r in trace.requests)
    assert trace.total_bytes == prog.array("A").size_bytes


def test_requests_carry_provenance_and_times():
    prog = _rows_program()
    lay = default_layout(prog.arrays, num_disks=4)
    trace = generate_trace(prog, lay)
    timing = compute_timing(prog)
    for t, r in enumerate(trace.requests):
        assert r.nest == 0
        assert r.iteration == t
        assert r.nominal_time_s == pytest.approx(timing.nest(0).iteration_start_s(t))


def test_cache_hits_suppress_requests():
    """Re-sweeping a cached array produces no second round of requests."""
    b = ProgramBuilder("p")
    A = b.array("A", (8, 1024))  # 64 KB total, fits in cache
    for tag in ("a", "b"):
        with b.nest(f"i{tag}", 0, 8) as i:
            with b.loop(f"j{tag}", 0, 1024) as j:
                b.stmt(reads=[A[i, j]], cycles=1)
    prog = b.build()
    lay = default_layout(prog.arrays, num_disks=4)
    trace = generate_trace(prog, lay, TraceOptions(buffer_cache_bytes=1024 * KB))
    assert trace.num_requests == 8  # only the first sweep misses


def test_max_request_bytes_splits():
    prog = _rows_program(rows=1, width=8192)  # one 64 KB row
    lay = default_layout(prog.arrays, num_disks=4)
    trace = generate_trace(
        prog, lay, TraceOptions(cache_line_bytes=8 * KB, max_request_bytes=16 * KB)
    )
    assert trace.num_requests == 4
    assert all(r.nbytes == 16 * KB for r in trace.requests)


def test_write_refs_become_write_requests():
    b = ProgramBuilder("p")
    A = b.array("A", (4, 1024))
    with b.nest("i", 0, 4) as i:
        with b.loop("j", 0, 1024) as j:
            b.stmt(writes=[A[i, j]], cycles=1)
    prog = b.build()
    lay = default_layout(prog.arrays, num_disks=4)
    trace = generate_trace(prog, lay)
    assert trace.num_requests == 4
    assert all(r.is_write for r in trace.requests)


def test_read_then_write_same_row_counts_once():
    b = ProgramBuilder("p")
    A = b.array("A", (4, 1024))
    with b.nest("i", 0, 4) as i:
        with b.loop("j", 0, 1024) as j:
            b.stmt(reads=[A[i, j]], writes=[A[i, j]], cycles=1)
    prog = b.build()
    lay = default_layout(prog.arrays, num_disks=4)
    trace = generate_trace(prog, lay)
    assert trace.num_requests == 4  # write hits the line the read allocated


def test_total_compute_matches_timing():
    prog = _rows_program()
    lay = default_layout(prog.arrays, num_disks=4)
    trace = generate_trace(prog, lay)
    assert trace.total_compute_s == pytest.approx(compute_timing(prog).total_seconds)


def test_directives_at_positions():
    prog = _rows_program()
    timing = compute_timing(prog)
    call = PowerCall(PowerAction.SPIN_DOWN, 1)
    recs = directives_at_positions(
        placement_rows(
            (0, 4, call),
            (0, 2, call, 0.5),
            (0, 8, call),  # == trip count: right after the nest
        ),
        timing,
    )
    assert recs.dtype == DIRECTIVE_ROW
    times = recs["time"].tolist()
    assert times == sorted(times)
    assert times[0] == pytest.approx(
        timing.nest(0).iteration_start_s(2) + 0.5 * timing.nest(0).seconds_per_iteration
    )
    assert times[2] == pytest.approx(timing.nest(0).end_s)


def test_directives_validate_positions():
    prog = _rows_program()
    timing = compute_timing(prog)
    call = PowerCall(PowerAction.SPIN_UP, 0)
    with pytest.raises(TraceError, match="row 0: iteration 9 out of range"):
        directives_at_positions(placement_rows((0, 9, call)), timing)
    with pytest.raises(TraceError, match="row 1: fractional placement beyond"):
        directives_at_positions(
            placement_rows((0, 1, call), (0, 8, call, 0.5)), timing
        )
    with pytest.raises(TraceError, match=r"row 0: fraction 1.5 outside \[0, 1\]"):
        directives_at_positions(placement_rows((0, 1, call, 1.5)), timing)


def _two_nest_program():
    b = ProgramBuilder("two")
    A = b.array("A", (8, 1024))
    for name in ("i", "k"):
        with b.nest(name, 0, 8) as i:
            with b.loop("j", 0, 1024) as j:
                b.stmt(reads=[A[i, j]], cycles=10)
    return b.build()


@pytest.mark.parametrize("nest", [-1, 2])
def test_directives_reject_unknown_nest_naming_the_row(nest):
    """A nest index is checked, not taken as a (wrapping) tuple index: -1
    must not land in the last nest, and ``len(nests)`` must not escape as
    a bare ``IndexError``."""
    timing = compute_timing(_two_nest_program())
    call = PowerCall(PowerAction.SPIN_UP, 0)
    with pytest.raises(TraceError, match=f"row 1: nest {nest} out of range"):
        directives_at_positions(
            placement_rows((0, 1, call), (nest, 3, call)), timing
        )


def test_merged_orders_directives_before_tied_requests():
    """A directive placed at iteration 3's start replays before the
    request issued at that same nominal time: a spin-down there makes
    iteration 3's request wait for the spin-up, where the same call one ulp
    later leaves it to iteration 4's."""
    prog = _rows_program()
    lay = default_layout(prog.arrays, num_disks=4)
    trace = generate_trace(prog, lay)
    timing = compute_timing(prog)
    call = PowerCall(PowerAction.SPIN_DOWN, 0)
    recs = directives_at_positions(placement_rows((0, 3, call)), timing)
    t3 = timing.nest(0).iteration_start_s(3)
    assert recs["time"].tolist() == [t3]
    assert trace.requests[3].iteration == 3
    assert trace.requests[3].nominal_time_s == t3
    later = recs.copy()
    later["time"] = np.nextafter(t3, np.inf)
    params = SubsystemParams(num_disks=4)
    for engine in ("stepwise", "segmented"):
        tied = simulate(trace.with_directives(recs), params, engine=engine)
        after = simulate(trace.with_directives(later), params, engine=engine)
        fast = tied.request_responses[0]
        slow = [i for i, r in enumerate(tied.request_responses) if r > 10 * fast]
        assert slow == [3]
        slow = [i for i, r in enumerate(after.request_responses) if r > 10 * fast]
        assert slow == [4]


def test_directives_keep_row_order_among_equal_times():
    """The sort by time is stable, and each row carries its placement's
    call."""
    timing = compute_timing(_rows_program())
    calls = [
        PowerCall(PowerAction.SET_RPM, 2, rpm=6000, overhead_cycles=7.0),
        PowerCall(PowerAction.SPIN_DOWN, 1),
        PowerCall(PowerAction.SPIN_UP, 0),
    ]
    rows = placement_rows((0, 5, calls[0]), (0, 3, calls[1]), (0, 5, calls[2]))
    assert placement_calls(rows) == calls
    recs = directives_at_positions(rows, timing)
    t3 = timing.nest(0).iteration_start_s(3)
    t5 = timing.nest(0).iteration_start_s(5)
    expected = directive_rows((t3, calls[1]), (t5, calls[0]), (t5, calls[2]))
    assert recs.tolist() == expected.tolist()
    empty = directives_at_positions(rows[:0], timing)
    assert empty.dtype == DIRECTIVE_ROW and empty.size == 0
