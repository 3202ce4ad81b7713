"""repro.faults — seeded, fully deterministic fault injection.

The paper's compiler-directed scheme assumes a disciplined array: disks
spin up exactly when told to, every request succeeds on the first try,
and pre-activation directives land on time.  Real arrays miss deadlines,
stall on spin-up, and return transient errors — the regimes where a
*proactive* scheme can lose to a *reactive* one.  This package injects
those behaviours into the replay without giving up a single bit of
determinism:

* a :class:`FaultConfig` names a fault regime — a seed plus per-kind
  :class:`FaultRates` knobs — and is a frozen value participating in the
  persistent result-cache fingerprint (a faulty run can never alias a
  clean one);
* :class:`FaultPlan` materializes the regime against one concrete replay
  (one trace / replay plan): every fault event is a pure function of
  ``(seed, event kind, event index)``, generated up front or by keyed
  hashing, so the stepwise and segmented engines — and any process on
  any machine — consume exactly the same event schedule;
* the injected faults are **(a)** spin-up latency jitter and outright
  spin-up failures with bounded retry, **(b)** transient sub-request
  errors with exponential-backoff retry and a per-request timeout, and
  **(c)** missed pre-activation deadlines, on which the directive-driven
  schemes degrade gracefully — the disk serves at its current (low)
  state instead of waiting for an activation that never came, then
  honours the directive late.

A zero-rate plan (``FaultRates()``) materializes no request flags and
sub-request errors, so the replay takes the clean path: its output is
*byte-identical* to the clean simulator's and every replay-coverage
counter matches (``tests/disksim/test_fault_equivalence.py``).
"""

from __future__ import annotations

from .plan import (
    DEFAULT_FAULT_SEED,
    FaultConfig,
    FaultPlan,
    FaultRates,
    SpinUpFault,
    parse_fault_rates,
)

__all__ = [
    "DEFAULT_FAULT_SEED",
    "FaultConfig",
    "FaultPlan",
    "FaultRates",
    "SpinUpFault",
    "parse_fault_rates",
]
