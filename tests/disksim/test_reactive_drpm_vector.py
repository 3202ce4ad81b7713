"""Open-loop reactive DRPM on the vector kernel ⇔ the stepwise reference.

An open-loop ``ReactiveDRPM`` replay with no directive rows and no fault
plan runs segmented: each chunk is solved per disk, a window decision
being a barrier in its disk's FIFO queue (``simulator._run_drpm``).  These
cases pin it to the stepwise driver, where ``on_request_complete`` sees
every completion, bit for bit: results, busy intervals and timeline
segments of whole replays, and streamed replays at chunk sizes 7 and 64.
Each scenario is checked to contain the event it is named for, read off
the stepwise replay's timeline.
"""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.controllers.drpm import ReactiveDRPM
from repro.disksim import simulator
from repro.disksim.disk import Disk
from repro.disksim.params import DRPMParams, SubsystemParams
from repro.disksim.replay import ReplayPlan
from repro.disksim.simulator import (
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.disksim.timeline import CAUSE_DRPM_WINDOW, TimelineRecorder
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.ingest import ingest_trace, stream_ingest, write_text_records
from repro.trace.request import IORequest, Trace
from repro.trace.stream import TraceStream
from repro.util.units import KB
from tests.conftest import _assert_results_identical

WINDOW = 3
PARAMS = SubsystemParams(num_disks=3, drpm=DRPMParams(window_size=WINDOW))
CHUNKS = (7, 64)


def _records(n: int = 360, seed: int = 0) -> list[tuple]:
    """Bursty ``(arrival, device, lba, nbytes, is_write)`` records: disk 0
    throughout, disk 1 only in the first third (so later chunks hold none
    of its subs), disk 2 every fourth request; gaps shorter and longer
    than a one-step shift (50 ms), some queueing."""
    rng = np.random.default_rng(seed)
    gaps = rng.choice(
        [0.0004, 0.004, 0.02, 0.07, 0.4], size=n,
        p=[0.25, 0.25, 0.25, 0.15, 0.1],
    )
    sizes = rng.choice([4096, 16384, 65536], size=n)
    t = 0.0
    out = []
    for i in range(n):
        t += float(gaps[i])
        if i % 4 == 3:
            disk = 2
        elif i < n // 3 and i % 2:
            disk = 1
        else:
            disk = 0
        lba = int(rng.integers(0, 1 << 20)) * 8
        out.append((t, disk, lba, int(sizes[i]), False))
    return out


def _path(records, tmp_path) -> Path:
    path = tmp_path / "drpm.trace"
    write_text_records(path, records)
    return path


def _replay(trace, engine, **kw):
    return simulate(
        trace, PARAMS, ReactiveDRPM(PARAMS.drpm), engine=engine,
        open_loop=True, **kw,
    )


def _whole(path, engine):
    """A whole replay with busy intervals and its timeline segments."""
    recorder = TimelineRecorder()
    trace = ingest_trace(path, num_disks=3, mapping="lba")
    result = _replay(
        trace, engine, collect_busy_intervals=True, recorder=recorder
    )
    return result, {d: recorder.segments(d) for d in recorder.disks}


def _streamed(path, engine, chunk):
    stream = stream_ingest(
        path, num_disks=3, mapping="lba", chunk_requests=chunk
    )
    return _replay(stream, engine)


def _shifts(segments):
    """Per window decision of the stepwise timeline: ``(disk, deciding
    sub's ordinal on its disk, completion c, shift end, target rpm)``."""
    out = []
    for d, segs in segments.items():
        active_ends = [s.end_s for s in segs if s.state == "active"]
        pieces = [s for s in segs if s.state == "rpm_shift"]
        for i, s in enumerate(pieces):
            if i and pieces[i - 1].end_s == s.start_s:
                continue  # second piece of a split shift
            j = active_ends.index(s.start_s)
            end = s.end_s
            if i + 1 < len(pieces) and pieces[i + 1].start_s == end:
                end = pieces[i + 1].end_s
            assert s.cause == CAUSE_DRPM_WINDOW
            out.append((d, j, s.start_s, end, s.rpm))
    return out


def _check(path, vector_gate=1):
    """Every engine and chunking of ``path`` against the stepwise whole
    replay; returns the stepwise result and segments."""
    with mock.patch.object(simulator, "VECTOR_MIN_SUBREQUESTS", vector_gate):
        ref, ref_segs = _whole(path, "stepwise")
        reset_replay_coverage()
        seg, seg_segs = _whole(path, "segmented")
        cov = replay_coverage()
        _assert_results_identical(ref, seg)
        assert seg_segs == ref_segs
        assert seg.engine == "segmented" and seg.engine_forced == ""
        if vector_gate == 1:
            assert cov["subrequests_vector"] == sum(
                s.num_requests for s in seg.disk_stats
            )
            assert cov["subrequests_scalar"] == 0
        for chunk in CHUNKS:
            runs = [
                _streamed(path, eng, chunk) for eng in ("stepwise", "segmented")
            ]
            assert runs[0] == runs[1]
            for res in runs:
                assert res.disk_stats == ref.disk_stats
                assert res.execution_time_s == ref.execution_time_s
                assert res.responses.count == ref.responses.count
                assert res.responses.max_s == ref.responses.max_s
    return ref, ref_segs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bursty_trace_engines_identical(seed, tmp_path):
    records = _records(seed=seed)
    ref, segs = _check(_path(records, tmp_path))
    shifts = _shifts(segs)
    arrivals = {
        d: [r[0] for r in records if r[1] == d] for d in range(PARAMS.num_disks)
    }
    # An arrival inside a shift, and a ramp back to the top level.
    inside = [
        (c, end) for d, j, c, end, _ in shifts
        if j + 1 < len(arrivals[d]) and c < arrivals[d][j + 1] < end - Disk._EPS
    ]
    assert inside
    assert any(rpm == PARAMS.drpm.max_rpm for *_, rpm in shifts)
    assert any(rpm < PARAMS.drpm.max_rpm for *_, rpm in shifts)
    for chunk in CHUNKS:
        request_of = {
            d: [i for i, r in enumerate(records) if r[1] == d]
            for d in range(PARAMS.num_disks)
        }
        # A shift decided at its disk's last sub of a chunk.
        assert any(
            j + 1 == len(request_of[d])
            or request_of[d][j + 1] // chunk != request_of[d][j] // chunk
            for d, j, *_ in shifts
        )
        # A window that straddles two chunks.
        assert any(
            request_of[d][k] // chunk != request_of[d][k + WINDOW - 1] // chunk
            for d in request_of
            for k in range(0, len(request_of[d]) - WINDOW + 1, WINDOW)
        )
        # A chunk with no subs of a disk (disk 1 stops early).
        last_chunk = (len(records) - 1) // chunk
        assert request_of[1][-1] // chunk < last_chunk


@pytest.mark.parametrize("offset", [-1.5e-9, -0.5e-9, 0.0, 0.5e-9])
def test_arrival_at_a_shift_end(offset, tmp_path):
    """The next arrival lands just inside the ``Disk._EPS`` slack before a
    shift's end, on it, past it, or just outside the slack: the shift is
    accrued in one piece or two exactly as ``Disk`` splits it."""
    records = _records(seed=3)
    _, segs = _whole(_path(records, tmp_path), "stepwise")
    index = {}
    for i, r in enumerate(records):
        index.setdefault(r[1], []).append(i)
    # The first shift whose disk's next request arrives after the shift
    # ends and after its predecessor record arrives before it: moving that
    # arrival onto the end keeps the trace ordered and leaves everything
    # before it unchanged.
    for d, j, c, end, _ in _shifts(segs):
        ids = index[d]
        if j + 1 < len(ids):
            r = ids[j + 1]
            if records[r - 1][0] < end - 1e-6 and records[r][0] > end + 1e-6:
                break
    else:
        pytest.fail("no shift followed by an idle gap")
    t, dev, lba, nbytes, w = records[r]
    records[r] = (end + offset, dev, lba, nbytes, w)
    _, segs = _check(_path(records, tmp_path))
    pieces = [
        s for s in segs[d] if s.state == "rpm_shift" and c <= s.start_s < end
    ]
    split = end + offset < end - Disk._EPS
    assert [(s.start_s, s.end_s) for s in pieces] == (
        [(c, end + offset), (end + offset, end)] if split else [(c, end)]
    )


def test_scalar_and_vector_chunks_mix(tmp_path):
    """With the vector gate at 20 sub-requests, streamed chunks of 7
    requests run ``Disk.serve`` with the controller hook and chunks of 64
    the vector solve, so shifts and windows cross between the paths."""
    _check(_path(_records(seed=4), tmp_path), vector_gate=20)


def test_forced_decision_flip(tmp_path):
    """A guess that implies no decision at all is corrected by solving
    again from each decision that moves, to the same bits."""
    path = _path(_records(seed=5), tmp_path)
    ref, _ = _whole(path, "stepwise")
    solves = []
    lindley = simulator._lindley

    def counting(*args):
        solves.append(1)
        return lindley(*args)

    def no_decisions(tables, win, seek, nb, base, nwin):
        return np.zeros((nwin, tables.rate.size))

    with mock.patch.object(simulator, "_drpm_guess", no_decisions), \
            mock.patch.object(simulator, "_lindley", counting):
        seg, _ = _whole(path, "segmented")
    _assert_results_identical(ref, seg)
    # The stepwise replay shifts, so the first guess was wrong and solved
    # again (a zero mean after a real one guesses a step down: later
    # solves may settle several decisions at once).
    assert sum(s.num_rpm_shifts for s in ref.disk_stats) > 0
    assert len(solves) > 1


def test_failed_busy_period_check_serves_on_in_order(tmp_path):
    """With every busy-period guess wrong, each disk whose check fails is
    served on from its first failed sub with ``Disk.serve``'s arithmetic,
    to the same bits."""
    failed = []
    fifo = simulator._fifo

    def spying(*args):
        out = fifo(*args)
        failed.append(out[3] is not None)
        return out

    def every_sub_starts_a_period(a, a0, svc, heads, queued):
        return np.ones(a.size, dtype=bool)

    with mock.patch.object(
        simulator, "_period_starts", every_sub_starts_a_period
    ), mock.patch.object(simulator, "_fifo", spying):
        _check(_path(_records(seed=6), tmp_path))
    assert any(failed)


def test_striped_requests_engines_identical():
    """Requests striped over several disks: a response is the latest of
    its subs' completions, whole and at any chunking."""
    num_disks = PARAMS.num_disks
    layout = SubsystemLayout(
        num_disks=num_disks,
        entries=(
            FileEntry("A", 64 * 1024 * KB, Striping(0, num_disks, 64 * KB), 0),
        ),
    )
    rng = np.random.default_rng(7)
    t = 0.0
    requests = []
    for _ in range(600):
        t += float(rng.choice([0.0005, 0.005, 0.03, 0.3]))
        nbytes = int(rng.choice([4, 64, 192])) * KB
        offset = int(rng.integers(0, 1000)) * 16 * KB
        requests.append(IORequest(t, "A", offset, nbytes, False))
    trace = Trace("striped", layout, tuple(requests), None, t)
    assert ReplayPlan.for_trace(trace).num_subrequests > len(requests)
    cols = trace.columns
    with mock.patch.object(simulator, "VECTOR_MIN_SUBREQUESTS", 1):
        recorders = [TimelineRecorder(), TimelineRecorder()]
        ref, seg = (
            _replay(trace, eng, collect_busy_intervals=True, recorder=rec)
            for eng, rec in zip(("stepwise", "segmented"), recorders)
        )
        _assert_results_identical(ref, seg)
        assert [recorders[0].segments(d) for d in range(num_disks)] == [
            recorders[1].segments(d) for d in range(num_disks)
        ]
        assert sum(s.num_rpm_shifts for s in ref.disk_stats) > 0
        for chunk in CHUNKS:
            stream = TraceStream(
                trace.program_name, layout, trace.total_compute_s,
                chunks=lambda chunk=chunk: (
                    cols.slice(lo, min(lo + chunk, len(cols)))
                    for lo in range(0, len(cols), chunk)
                ),
            )
            res = _replay(stream, "segmented")
            assert res.disk_stats == ref.disk_stats
            assert res.execution_time_s == ref.execution_time_s
            assert res.responses.max_s == ref.responses.max_s
