"""The replay kernel's two shared primitives against plain oracles.

``simulator._seg_fold`` left-folds lanes of per-sub values over
consecutive segments (busy periods, disks, DRPM windows); every total and
running total must equal a Python ``+=`` chain bit for bit (compared as
``float.hex``, so a sign of zero counts), for segment lengths at and
around the power-of-two bucket edges and values of both signs.

``replay._group`` groups positions by key with a stable sort on the
narrowest unsigned dtype that holds the key count; its permutation must
equal an ``int64`` stable argsort at every dtype edge (a dtype too narrow
would wrap keys silently), and its heads, lengths and present keys a
``np.unique`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.disksim.replay import _group
from repro.disksim.simulator import _seg_fold

#: Segment lengths: empty, one, and each side of the bucket edges.
_LENS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)

_VALUES = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _chains(seeds: list[list[float]], lanes: list[list[float]], lens):
    """Per lane, each segment's total and every running total, by ``+=``."""
    totals, running = [], []
    for seed_row, lane in zip(seeds, lanes):
        tot_row, run_row = [], []
        i = 0
        for seed, n in zip(seed_row, lens):
            acc = seed
            for v in lane[i:i + n]:
                acc += v
                run_row.append(acc)
            i += n
            tot_row.append(acc)
        totals.append(tot_row)
        running.append(run_row)
    return totals, running


@st.composite
def _fold_inputs(draw):
    lens = draw(st.lists(st.sampled_from(_LENS), min_size=1, max_size=8))
    nl = draw(st.integers(1, 4))
    n = sum(lens)
    seeds = [draw(st.lists(_VALUES, min_size=len(lens), max_size=len(lens)))
             for _ in range(nl)]
    lanes = [draw(st.lists(_VALUES, min_size=n, max_size=n))
             for _ in range(nl)]
    return seeds, lanes, lens


@given(_fold_inputs())
def test_seg_fold_matches_scalar_chains(inputs):
    seeds, lanes, lens = inputs
    want_tot, want_run = _chains(seeds, lanes, lens)
    lens_a = np.array(lens, dtype=np.int64)
    lanes_a = [np.array(lane, dtype=float) for lane in lanes]
    tot, run = _seg_fold(np.array(seeds, dtype=float), lanes_a, lens_a)
    assert run is None
    assert [_hex(row) for row in tot] == [_hex(row) for row in want_tot]
    tot, run = _seg_fold(
        np.array(seeds, dtype=float), lanes_a, lens_a, partials=True
    )
    assert [_hex(row) for row in tot] == [_hex(row) for row in want_tot]
    assert run.shape == (len(lanes), sum(lens))
    assert [_hex(row) for row in run] == [_hex(row) for row in want_run]


@pytest.mark.parametrize(
    "lens",
    [(0,), (0, 3), (3, 0, 1), (2, 3)],
    ids=["alone", "empty-then-three", "empty-mid-bucket", "short-in-bucket"],
)
def test_seg_fold_keeps_negative_zero(lens):
    """A ``-0.0`` total survives: ``-0.0 + 0.0`` is ``+0.0``, so a read
    past a segment's own last column (into padding) would flip it."""
    n = sum(lens)
    seeds = np.full((1, len(lens)), -0.0)
    lane = np.full(n, -0.0)
    tot, run = _seg_fold(seeds, [lane], np.array(lens), partials=True)
    assert _hex(tot[0]) == [(-0.0).hex()] * len(lens)
    assert _hex(run[0]) == [(-0.0).hex()] * n


def _group_oracle(keys: np.ndarray):
    present, glen = np.unique(keys, return_counts=True)
    return np.cumsum(glen) - glen, glen, present


@pytest.mark.parametrize(
    "nkeys", [1, 255, 256, 257, 65_535, 65_536, 65_537]
)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 400))
def test_group_matches_int64_stable_argsort(nkeys, seed, size):
    rng = np.random.default_rng(seed)
    # Both ends of the key range, so a too-narrow dtype would wrap.
    keys = np.concatenate((
        [nkeys - 1, 0],
        rng.integers(0, nkeys, size=size),
        rng.integers(max(nkeys - 3, 0), nkeys, size=size // 4),
    )).astype(np.int64)
    rng.shuffle(keys)
    order, heads, glen, present = _group(keys, nkeys)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    o_heads, o_glen, o_present = _group_oracle(keys)
    assert np.array_equal(heads, o_heads)
    assert np.array_equal(glen, o_glen)
    assert np.array_equal(present, o_present)
    assert np.array_equal(keys[order][heads], present)

