"""The vector kernel's per-disk FIFO queues against ``Disk.serve``.

The kernel serves a window's sub-requests as one Lindley recursion per
disk, ``c_j = max(a_j, c_{j-1}) + s_j`` (``_Queues.solve``: busy periods
folded exactly, or a stream-order chain where a guessed period boundary
fails its check or a closed-loop sub queues), then accrues the window in
one batch (``_Queues.commit``).  Here it runs over random arrival and service
columns and must reproduce a loop of ``Disk.serve`` on fresh disks bit for
bit (compared as ``float.hex``): service starts and completions (the busy
intervals), per-request responses, the disks' cursors and every
``DiskStats`` field.

Open-loop columns are built against the reference loop as it runs, so
they hit the queue's edges exactly: arrivals equal to the disk's last
completion, one ulp before or after it (``np.nextafter``), deep inside a
busy period, after long idle gaps, and out of order.  Closed-loop columns
are nominal times whose gaps are often zero, so each issue time lands an
ulp or so from the previous completion through the delay chain.  Regimes
cover one busy period per disk, all-singleton disks, multi-sub requests
and disks starting at a non-zero cursor.
"""

from __future__ import annotations

import dataclasses
from array import array
from math import inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.disk import Disk
from repro.disksim.params import SubsystemParams
from repro.disksim.powermodel import PowerModel
from repro.disksim.replay import SEEK_CLASSES
from repro.disksim import simulator
from repro.disksim.simulator import _Queues

_PARAMS = SubsystemParams(num_disks=4)
_PM = PowerModel(_PARAMS.disk, _PARAMS.drpm)
_LEVEL = _PM.level_index[_PARAMS.disk.rpm]

#: Arrival of the next open-loop request, relative to its first disk's
#: last completion ``c``.
_PLACEMENTS = ("tie", "ulp_before", "ulp_after", "queued", "idle", "early")


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _stats_hex(stats) -> dict:
    """Every ``DiskStats`` field, floats as ``float.hex``."""

    def enc(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, dict):
            return {k: enc(x) for k, x in v.items()}
        return v

    return {k: enc(v) for k, v in dataclasses.asdict(stats).items()}


def _fresh_disks(num_disks: int, cursors: list[float]) -> list[Disk]:
    disks = [Disk(i, _PM) for i in range(num_disks)]
    for disk, cursor in zip(disks, cursors):
        if cursor:
            disk.advance(cursor)
    return disks


def _serve(disks, t, subs):
    """One request on ``Disk.serve``, as the replay driver serves it."""
    completion = t
    for d, nbytes, seek in subs:
        done = disks[d].serve(t, nbytes, seek)
        if done > completion:
            completion = done
    return completion - t


@st.composite
def queue_columns(draw):
    """``(num_disks, cursors, open_loop, times, requests)``: per request a
    nominal time (open loop: its arrival) and its ``(disk, nbytes,
    seek)`` subs, at most one per disk."""
    num_disks = draw(st.integers(1, 4))
    open_loop = draw(st.booleans())
    regime = draw(st.sampled_from(["one_period", "singletons", "mixed"]))
    cursors = [
        draw(st.sampled_from([0.0, 0.0, 0.125, 3.0])) for _ in range(num_disks)
    ]
    ref = _fresh_disks(num_disks, cursors)
    times = []
    requests = []
    t_prev = 0.0
    for _ in range(draw(st.integers(1, 60))):
        width = draw(st.integers(1, num_disks))
        targets = sorted(draw(st.permutations(range(num_disks)))[:width])
        subs = [
            (d, draw(st.integers(1, 1 << 20)), draw(st.sampled_from(SEEK_CLASSES)))
            for d in targets
        ]
        if not open_loop:
            if regime == "one_period":
                gap = 0.0
            elif regime == "singletons":
                gap = draw(st.floats(0.0, 1.0))
            else:
                gap = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.25]))
            t = t_prev + gap
        else:
            c = ref[targets[0]].cursor_s
            if regime == "one_period":
                place = draw(st.sampled_from(["tie", "ulp_before", "queued"]))
            elif regime == "singletons":
                place = draw(st.sampled_from(["tie", "ulp_after", "idle"]))
            else:
                place = draw(st.sampled_from(_PLACEMENTS))
            if place == "tie":
                t = c
            elif place == "ulp_before":
                t = float(np.nextafter(c, -np.inf))
            elif place == "ulp_after":
                t = float(np.nextafter(c, np.inf))
            elif place == "queued":
                t = max(0.0, c - draw(st.floats(1e-6, 0.05)))
            elif place == "idle":
                t = c + draw(st.floats(1e-6, 2.0))
            else:  # out of order: before the previous request's arrival
                t = max(0.0, t_prev - draw(st.floats(0.0, 0.05)))
            _serve(ref, t, subs)
        t_prev = t
        times.append(t)
        requests.append(subs)
    return num_disks, cursors, open_loop, times, requests


def _reference(num_disks, cursors, open_loop, times, requests):
    disks = _fresh_disks(num_disks, cursors)
    busy = ([[] for _ in disks], [[] for _ in disks])
    responses = []
    delay = 0.0
    for tn, subs in zip(times, requests):
        t = tn + delay
        completion = t
        for d, nbytes, seek in subs:
            done = disks[d].serve(t, nbytes, seek)
            busy[0][d].append(disks[d].last_service_start_s)
            busy[1][d].append(done)
            if done > completion:
                completion = done
        responses.append(completion - t)
        if not open_loop:
            delay += completion - t
    return disks, responses, busy, delay


def _kernel(num_disks, cursors, open_loop, times, requests):
    """Serve the requests through the kernel's queues, re-entering after
    each window as the replay driver does."""
    disks = _fresh_disks(num_disks, cursors)
    busy = ([array("d") for _ in disks], [array("d") for _ in disks])
    responses = []
    delay = 0.0
    ri = 0
    while ri < len(requests):
        window = requests[ri:]
        flat = [s for subs in window for s in subs]
        counts = np.array([len(subs) for subs in window])
        sub_disk = np.array([d for d, _, _ in flat], dtype=np.int64)
        nbytes = np.array([b for _, b, _ in flat], dtype=np.int64)
        seek = np.array([SEEK_CLASSES.index(s) for _, _, s in flat])
        svc = (
            _PM.service_seek_base_s[_LEVEL][seek]
            + nbytes.astype(np.float64) / _PM.service_rate_bps[_LEVEL]
        )
        ptr = np.cumsum(counts) - counts
        queues = _Queues(
            sub_disk, None if counts.max() == 1 else counts, svc, disks
        )
        cut, resp, start, comp, prev, delay = queues.solve(
            np.array(times[ri:]), delay, np.maximum.reduceat(svc, ptr), inf,
            open_loop,
        )
        assert cut > 0
        responses.extend(resp[:cut].tolist())
        nsub = int(counts[:cut].sum())
        queues.commit(
            nsub, start, comp, prev, nbytes, disks, _PM, None, busy, None
        )
        ri += cut
    return disks, responses, busy, delay


def _no_period_starts(a, a0, svc, heads, queued):
    """A wrong guess: every sub starts a busy period."""
    return np.ones(a.size, dtype=bool)


@pytest.mark.parametrize("guess", ["max-plus", "wrong"])
@settings(max_examples=300, deadline=None)
@given(case=queue_columns())
def test_queue_kernel_matches_serve(guess, case):
    """With a wrong busy-period guess, the boundary check must catch every
    queued open-loop window, and the stream-order chain that serves its
    rest must still match ``Disk.serve``."""
    ref, ref_resp, ref_busy, ref_delay = _reference(*case)
    if guess == "max-plus":
        got, resp, busy, delay = _kernel(*case)
    else:
        with mock.patch.object(
            simulator, "_period_starts", _no_period_starts
        ):
            got, resp, busy, delay = _kernel(*case)
    assert _hex(resp) == _hex(ref_resp)
    assert delay.hex() == ref_delay.hex()
    for d in range(len(ref)):
        assert _hex(busy[0][d]) == _hex(ref_busy[0][d])
        assert _hex(busy[1][d]) == _hex(ref_busy[1][d])
    for mine, want in zip(got, ref):
        assert _stats_hex(mine.stats) == _stats_hex(want.stats)
        assert _hex(
            [mine.cursor_s, mine.ready_s, mine.idle_anchor_s,
             mine.last_request_end_s, mine.last_service_start_s]
        ) == _hex(
            [want.cursor_s, want.ready_s, want.idle_anchor_s,
             want.last_request_end_s, want.last_service_start_s]
        )


def test_saturated_disk_is_one_busy_period():
    """Every arrival at time zero: one busy period, each start the
    previous completion, and no idle time at all."""
    case = (1, [0.0], True, [0.0] * 300, [[(0, 4096, "full")]] * 300)
    ref, ref_resp, ref_busy, _ = _reference(*case)
    got, resp, busy, _ = _kernel(*case)
    assert _hex(busy[1][0]) == _hex(ref_busy[1][0])
    assert _hex(busy[0][0][1:]) == _hex(busy[1][0][:-1])
    assert _hex(resp) == _hex(ref_resp)
    assert _stats_hex(got[0].stats) == _stats_hex(ref[0].stats)
    assert got[0].stats.time_s["idle"] == 0.0
