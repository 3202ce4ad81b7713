"""Paper Eq. (1), the pre-activation distance, as the placement applies it.

The planner puts a wake-up ``lead`` seconds (the spin-up time ``Tsu``)
ahead of the gap end, and :func:`repro.power.insertion._locate` rounds it
*at-or-before* onto an iteration boundary, so inside one nest of
``s + Tm`` seconds per iteration the call lands
``d = ceil(Tsu / (s + Tm))`` iterations early.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.cycles import NestTiming, ProgramTiming
from repro.power.insertion import _locate


def _timing(shapes) -> ProgramTiming:
    """Back-to-back nests from ``(trip_count, seconds_per_iteration)``."""
    nests = []
    t = 0.0
    for i, (trips, per_iter) in enumerate(shapes):
        nt = NestTiming(i, trips, per_iter * 1e3, per_iter, t)
        nests.append(nt)
        t = nt.end_s
    return ProgramTiming(tuple(nests), 1e3)


def _distance(lead, s, tm=0.0):
    """Iterations between a wake-up placed ``lead`` seconds before
    iteration 20 of a 40-iteration nest and that iteration."""
    est = _timing([(40, s + tm)])
    end = 20 * (s + tm)
    nest, ordinal, frac = _locate(est, np.array([end - lead]), None, False)
    assert (int(nest[0]), float(frac[0])) == (0, 0.0)
    return 20 - int(ordinal[0])


def test_eq1_formula():
    # d = ceil(Tsu / (s + Tm)) — the paper's Equation (1).
    assert _distance(10.9, 1.0, 0.0) == 11
    assert _distance(10.9, 1.0, 0.1) == 10
    assert _distance(0.0, 1.0) == 0
    assert _distance(0.05, 0.1) == 1


def test_place_before_within_nest():
    # Binary-exact durations, so a lead of whole iterations lands exactly
    # on a boundary (nest 1 starts at 1.25 s).
    est = _timing([(10, 0.125), (20, 0.0625)])
    # 0.375 s of lead inside nest 1 = ceil(0.375/0.0625) = 6 iterations.
    nest, ordinal, frac = _locate(
        est, np.array([1.25 + 10 * 0.0625 - 0.375]), None, False
    )
    assert (int(nest[0]), int(ordinal[0]), float(frac[0])) == (1, 4, 0.0)
    # Any lead short of the nest's start: ceil(lead / s) iterations.
    end = 1.25 + 15 * 0.0625
    for lead in (0.01, 0.0625 + 1e-9, 0.15, 0.9):
        nest, ordinal, frac = _locate(est, np.array([end - lead]), None, False)
        assert (int(nest[0]), float(frac[0])) == (1, 0.0)
        assert 15 - int(ordinal[0]) == math.ceil(lead / 0.0625), lead
