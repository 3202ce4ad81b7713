"""Fault injection ⇔ engine equivalence and determinism invariants.

The deterministic fault layer (:mod:`repro.faults`) must preserve the
repo's core replay guarantees:

* **engine equivalence under faults** — for random programs × random
  fault regimes, the stepwise, segmented and auto engines produce
  bit-identical :class:`SimulationResult`\\ s (same times, energy, retry
  and miss counters, response streams, busy intervals);
* **zero-rate byte-identity** — an all-zero-rate :class:`FaultPlan` is
  indistinguishable from no fault plan at all, for every bundled Table 2
  workload under all seven schemes;
* **seed determinism** — the same :class:`FaultConfig` yields the same
  result in-process, across repeat runs, and across worker processes
  (the parallel replay path), while different seeds genuinely differ.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import _assert_results_identical  # noqa: E402
from strategies import fault_configs, programs  # noqa: E402

from repro.analysis.cycles import EstimationModel
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.experiments.parallel import SuiteExecutor, SuiteSpec
from repro.experiments.schemes import SCHEME_NAMES, run_schemes, run_workload
from repro.faults import FaultConfig, FaultRates
from repro.layout.files import default_layout
from repro.trace.generator import TraceOptions, generate_trace
from repro.workloads import all_workloads

ENGINES = ("stepwise", "segmented", "auto")

_SLOW_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_suites_identical(ref_suite, other_suite):
    assert set(ref_suite.results) == set(other_suite.results)
    for scheme, ref_result in ref_suite.results.items():
        _assert_results_identical(other_suite.results[scheme], ref_result)


# --------------------------------------------------------------------- #
# Property: random programs × random fault regimes, every engine.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(data=st.data())
def test_random_faulty_replays_bit_identical(data):
    program = data.draw(programs())
    faults = data.draw(fault_configs())
    num_disks = data.draw(st.sampled_from([1, 4]))
    layout = default_layout(program.arrays, num_disks=num_disks)
    params = SubsystemParams(num_disks=num_disks)
    options = TraceOptions(max_request_bytes=4096)
    estimation = EstimationModel(relative_error=0.10)
    suites = {
        eng: run_schemes(
            program, layout, params, options, estimation,
            engine=eng, faults=faults,
        )
        for eng in ENGINES
    }
    _assert_suites_identical(suites["stepwise"], suites["segmented"])
    _assert_suites_identical(suites["stepwise"], suites["auto"])


# --------------------------------------------------------------------- #
# Zero-rate plans are byte-identical to no plan at all.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_zero_rate_faults_are_invisible(workload):
    """A FaultConfig whose every rate is zero must reproduce the clean
    suite bit for bit — all seven schemes, both concrete engines."""
    null = FaultConfig(seed=12345, rates=FaultRates())
    assert null.is_null
    for eng in ("stepwise", "segmented"):
        clean = run_workload(workload, engine=eng)
        faulted = run_workload(workload, engine=eng, faults=null)
        assert set(clean.results) == set(SCHEME_NAMES)
        _assert_suites_identical(clean, faulted)


# --------------------------------------------------------------------- #
# Seed determinism: same seed same result, across processes too.
# --------------------------------------------------------------------- #
def _faulty_config() -> FaultConfig:
    return FaultConfig(
        seed=7,
        rates=FaultRates(
            spinup_jitter_p=0.5,
            spinup_fail_p=0.3,
            request_error_p=0.02,
            deadline_miss_p=0.5,
        ),
    )


def test_same_seed_same_result_repeat_runs(
    tiny_program, tiny_layout, small_trace_options
):
    trace = generate_trace(tiny_program, tiny_layout, small_trace_options)
    params = SubsystemParams(num_disks=4)
    faults = _faulty_config()
    for eng in ENGINES:
        a = simulate(trace, params, engine=eng, faults=faults)
        b = simulate(trace, params, engine=eng, faults=faults)
        _assert_results_identical(a, b)


def test_different_seed_different_draws(
    phase_program, phase_layout
):
    """Two seeds must not share the request-error schedule (the plan is
    a function of the seed, not just the rates)."""
    from repro.disksim.replay import ReplayPlan
    from repro.faults import FaultPlan

    trace = generate_trace(phase_program, phase_layout, TraceOptions())
    plan = ReplayPlan.for_trace(trace)
    rates = FaultRates(request_error_p=0.05)
    a = FaultPlan(FaultConfig(seed=1, rates=rates), plan)
    b = FaultPlan(FaultConfig(seed=2, rates=rates), plan)
    assert a.sub_errors and b.sub_errors
    assert a.sub_errors != b.sub_errors


def test_same_seed_same_result_across_processes():
    """The worker-process path must reproduce the in-process faulted
    suite exactly: every fault event is a pure function of (seed, kind,
    index), never of process state."""
    faults = _faulty_config()
    params = SubsystemParams(num_disks=4)
    schemes = ("Base", "TPM", "DRPM", "IDRPM")
    names = ("wupwise", "mgrid")
    specs = [
        SuiteSpec(name, params=params, schemes=schemes, faults=faults)
        for name in names
    ]
    serial = SuiteExecutor(jobs=1).run_suites(specs)
    executor = SuiteExecutor(jobs=2, clamp_to_cpus=False)
    assert not executor.serial
    pooled = executor.run_suites(specs)
    for ref, got in zip(serial, pooled):
        assert sum(d.num_request_errors for d in ref.base.disk_stats) > 0
        _assert_suites_identical(ref, got)


# --------------------------------------------------------------------- #
# The fault counters actually fire (the suite above would pass vacuously
# if the regimes never injected anything).
# --------------------------------------------------------------------- #
def test_faulty_regime_is_not_vacuous(phase_program, phase_layout):
    trace = generate_trace(phase_program, phase_layout, TraceOptions())
    params = SubsystemParams(num_disks=4)
    result = simulate(
        trace, params, engine="stepwise",
        faults=FaultConfig(seed=3, rates=FaultRates(request_error_p=0.05)),
    )
    errors = sum(d.num_request_errors for d in result.disk_stats)
    retries = sum(d.num_request_retries for d in result.disk_stats)
    timeouts = sum(d.num_request_timeouts for d in result.disk_stats)
    assert errors > 0
    # Every failed attempt is followed by exactly one of: a retry, or the
    # timeout that abandons the chain (see Disk.serve_faulty).
    assert retries + timeouts == errors
    clean = simulate(trace, params, engine="stepwise")
    assert result.execution_time_s > clean.execution_time_s
