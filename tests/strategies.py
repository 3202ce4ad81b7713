"""Hypothesis strategies generating random *valid* IR programs.

The generator builds small affine programs bottom-up: loop shapes first,
then references whose subscripts are guaranteed in-bounds by construction
(array extents are derived from the maximum value each subscript can take).
Every generated program passes :func:`repro.ir.validate.validate_program`,
which the cross-module property tests assert as a meta-check.

Kept deliberately small (tens of iterations, tiny arrays) so whole
pipelines — analysis, trace generation, simulation, transformation — run in
milliseconds per example.

Also here: :func:`fault_rates` / :func:`fault_configs`, random (but valid
and runtime-bounded) :mod:`repro.faults` regimes for the fault-equivalence
property tests, and :func:`boundary_adjacent_traces`, synthetic traces
whose directives hug the replay's boundary instants (service completions
and transition edges) — the adversarial inputs for the segmented engine's
directive-as-boundary-edit mirror; and :func:`placement_rows` and
:func:`directive_rows`, which spell a plan's placement rows and a
directive stream's rows from readable tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from repro.disksim.params import SubsystemParams
from repro.faults import FaultConfig, FaultRates
from repro.ir.arrays import Array, StorageOrder
from repro.ir.expr import Affine, var
from repro.ir.nodes import AccessMode, ArrayRef, Loop, PowerAction, PowerCall, Statement
from repro.ir.program import Program
from repro.layout.files import FileEntry, SubsystemLayout
from repro.layout.striping import Striping
from repro.trace.generator import PLACEMENT_ROW
from repro.trace.request import DIRECTIVE_ROW, IORequest, Trace
from repro.util.units import KB

__all__ = [
    "programs",
    "perfect_2d_nests",
    "fault_rates",
    "fault_configs",
    "boundary_adjacent_traces",
    "ingest_records",
    "synth_configs",
    "placement_rows",
    "directive_rows",
]

_ACTIONS = tuple(PowerAction)


def placement_rows(*entries) -> np.ndarray:
    """Placement rows (:data:`~repro.trace.generator.PLACEMENT_ROW`) from
    ``(nest, iteration, call)`` or ``(nest, iteration, call, fraction)``
    tuples, in the given order."""
    rows = []
    for nest, iteration, call, *fraction in entries:
        rows.append((
            nest, iteration, fraction[0] if fraction else 0.0,
            _ACTIONS.index(call.action), call.disk,
            -1 if call.rpm is None else call.rpm, call.overhead_cycles,
        ))
    return np.array(rows, dtype=PLACEMENT_ROW)


def directive_rows(*entries) -> np.ndarray:
    """Directive rows (:data:`~repro.trace.request.DIRECTIVE_ROW`) from
    ``(time, call)`` tuples, in the given order."""
    return np.array(
        [
            (
                t, _ACTIONS.index(call.action), call.disk,
                -1 if call.rpm is None else call.rpm, call.overhead_cycles,
            )
            for t, call in entries
        ],
        dtype=DIRECTIVE_ROW,
    )


@dataclass
class _RefSpec:
    """A reference shape: per-dim (outer coeff, inner coeff, constant)."""

    dims: tuple[tuple[int, int, int], ...]
    mode: AccessMode


def _extent_needed(spec_dim: tuple[int, int, int], t_outer: int, t_inner: int) -> int:
    co, ci, k = spec_dim
    return co * (t_outer - 1) + ci * (t_inner - 1) + k + 1


@st.composite
def programs(
    draw,
    max_nests: int = 3,
    max_arrays: int = 3,
    max_stmts_per_nest: int = 2,
    element_size: int = 8,
):
    """A random valid :class:`Program` over 2-D arrays.

    Each nest is ``for i { for j { statements } }`` with trips 2-12; each
    statement references 1-2 arrays with affine subscripts whose
    coefficients are drawn from {0, 1} (plus small constants).  Array
    extents are computed as the max requirement over every reference, so
    validation holds by construction.
    """
    n_arrays = draw(st.integers(1, max_arrays))
    n_nests = draw(st.integers(1, max_nests))

    # Reference specs per (nest, statement); arrays identified by index.
    nest_shapes: list[tuple[int, int]] = []
    all_refs: list[list[list[tuple[int, _RefSpec]]]] = []
    req0: dict[int, int] = {}
    req1: dict[int, int] = {}
    for _ in range(n_nests):
        t_outer = draw(st.integers(2, 12))
        t_inner = draw(st.integers(2, 12))
        nest_shapes.append((t_outer, t_inner))
        stmts: list[list[tuple[int, _RefSpec]]] = []
        for _ in range(draw(st.integers(1, max_stmts_per_nest))):
            refs: list[tuple[int, _RefSpec]] = []
            for _ in range(draw(st.integers(1, 2))):
                arr_idx = draw(st.integers(0, n_arrays - 1))
                # Separable references only (each loop variable indexes at
                # most one dimension) — the class the paper's benchmarks
                # use and for which rectangular footprints are exact at
                # every re-indexing granularity.  A diagonal like A[i][i]
                # is exact per-iteration but not under strip-mining.
                assignment = draw(
                    st.sampled_from(
                        [
                            ("i", "j"), ("j", "i"), ("i", None), ("j", None),
                            (None, "i"), (None, "j"), (None, None),
                        ]
                    )
                )
                dims = tuple(
                    (
                        1 if which == "i" else 0,
                        1 if which == "j" else 0,
                        draw(st.integers(0, 3)),
                    )
                    for which in assignment
                )
                mode = draw(st.sampled_from([AccessMode.READ, AccessMode.WRITE]))
                spec = _RefSpec(dims=dims, mode=mode)
                refs.append((arr_idx, spec))
                need0 = _extent_needed(dims[0], t_outer, t_inner)
                need1 = _extent_needed(dims[1], t_outer, t_inner)
                req0[arr_idx] = max(req0.get(arr_idx, 1), need0)
                req1[arr_idx] = max(req1.get(arr_idx, 1), need1)
            stmts.append(refs)
        all_refs.append(stmts)

    arrays = []
    for idx in range(n_arrays):
        order = draw(
            st.sampled_from([StorageOrder.ROW_MAJOR, StorageOrder.COLUMN_MAJOR])
        )
        arrays.append(
            Array(
                f"A{idx}",
                (req0.get(idx, 2), req1.get(idx, 2)),
                element_size=element_size,
                order=order,
            )
        )

    nests = []
    for n, ((t_outer, t_inner), stmts) in enumerate(zip(nest_shapes, all_refs)):
        iv, jv = f"i{n}", f"j{n}"
        body_stmts = []
        for refs in stmts:
            ir_refs = []
            for arr_idx, spec in refs:
                subs = []
                for co, ci, k in spec.dims:
                    subs.append(var(iv) * co + var(jv) * ci + Affine.const(k))
                ir_refs.append(ArrayRef(arrays[arr_idx], tuple(subs), spec.mode))
            cycles = draw(st.floats(0.0, 1e4))
            body_stmts.append(Statement(tuple(ir_refs), cost_cycles=cycles))
        inner = Loop(jv, 0, t_inner, tuple(body_stmts))
        nests.append(Loop(iv, 0, t_outer, (inner,)))

    return Program(
        name="hypo", arrays=tuple(arrays), nests=tuple(nests), clock_hz=1e6
    )


def _prob(hi: float = 1.0):
    """A probability in [0, hi] biased toward the interesting corners."""
    return st.one_of(
        st.just(0.0),
        st.just(hi),
        st.floats(0.0, hi, allow_nan=False, allow_infinity=False),
    )


@st.composite
def fault_rates(draw, allow_null: bool = True):
    """A random valid :class:`repro.faults.FaultRates`.

    Bounds are chosen so any regime stays cheap to replay: jitter and
    deadline slips of a few seconds, short retry chains, sub-request error
    rates capped well below 1 (every sub-request erroring multiplies the
    stepwise serve count by the retry bound).
    """
    rates = FaultRates(
        spinup_jitter_p=draw(_prob()),
        spinup_jitter_max_s=draw(st.floats(0.0, 3.0, allow_nan=False)),
        spinup_fail_p=draw(_prob()),
        spinup_max_retries=draw(st.integers(0, 4)),
        request_error_p=draw(_prob(0.2)),
        request_max_retries=draw(st.integers(1, 4)),
        request_backoff_s=draw(st.floats(0.0, 0.05, allow_nan=False)),
        request_timeout_s=draw(st.floats(0.001, 2.0, allow_nan=False)),
        deadline_miss_p=draw(_prob()),
        deadline_miss_max_s=draw(st.floats(0.0, 5.0, allow_nan=False)),
    )
    if not allow_null and rates.is_null:
        rates = FaultRates(
            spinup_jitter_p=1.0,
            spinup_jitter_max_s=max(rates.spinup_jitter_max_s, 0.1),
            deadline_miss_p=rates.deadline_miss_p,
            request_error_p=rates.request_error_p,
        )
    return rates


@st.composite
def fault_configs(draw, allow_null: bool = True):
    """A random :class:`repro.faults.FaultConfig` (seed + rates)."""
    return FaultConfig(
        seed=draw(st.integers(0, 2**31 - 1)),
        rates=draw(fault_rates(allow_null=allow_null)),
    )


@st.composite
def boundary_adjacent_traces(draw):
    """A ``(trace, params)`` pair whose directives hug boundary instants.

    The replay model is blocking (``t_exec = nominal + delay``), so a
    directive whose nominal time is epsilon after request *i*'s nominal
    time executes exactly at that request's last-sub completion edge on
    the realized timeline, and a tie (epsilon = 0) executes first, on the
    issue edge.  Transition edges are hit by chaining a second call at the
    first call's transition-end instant (spin-down settle, per-step RPM
    modulation): epsilon before lands entangled with the in-flight
    transition, epsilon after lands on the freshly settled state.

    Disks are partitioned into TPM-mode (spin_down/spin_up only) and
    DRPM-mode (set_RPM only) so every generated sequence is valid —
    ``set_RPM`` on a spun-down disk is a :class:`SimulationError` by
    contract, not an equivalence case.
    """
    num_disks = draw(st.sampled_from([1, 4]))
    n = draw(st.integers(16, 40))
    gaps = draw(
        st.lists(
            st.sampled_from([0.002, 0.05, 0.6, 2.0]), min_size=n, max_size=n
        )
    )
    times = []
    t = 0.0
    for g in gaps:
        times.append(t)
        t += g
    sizes = draw(
        st.lists(st.sampled_from([8 * KB, 192 * KB]), min_size=n, max_size=n)
    )
    layout = SubsystemLayout(
        num_disks=num_disks,
        entries=(
            FileEntry("A", 4096 * KB, Striping(0, num_disks, 64 * KB), 0),
        ),
    )
    reqs = tuple(
        IORequest(times[i], "A", (i % 16) * 64 * KB, sizes[i], i % 3 == 0)
        for i in range(n)
    )
    params = SubsystemParams(num_disks=num_disks)
    modes = tuple(
        draw(st.sampled_from(["tpm", "drpm"])) for _ in range(num_disks)
    )
    levels = params.drpm.levels
    down_s = params.disk.spin_down_time_s
    step_s = params.drpm.transition_time_per_step_s
    issue_eps = st.sampled_from([0.0, 1e-9, 1e-6, 1e-3])
    edge_eps = st.sampled_from([-1e-9, 0.0, 1e-9, 1e-3])
    records = []
    for _ in range(draw(st.integers(2, 8))):
        i = draw(st.integers(0, n - 1))
        disk = draw(st.integers(0, num_disks - 1))
        t0 = times[i] + draw(issue_eps)
        overhead = draw(st.sampled_from([0.0, 5000.0]))
        if modes[disk] == "tpm":
            first = draw(
                st.sampled_from([PowerAction.SPIN_DOWN, PowerAction.SPIN_UP])
            )
            records.append(
                (t0, PowerCall(first, disk, overhead_cycles=overhead))
            )
            if first is PowerAction.SPIN_DOWN and draw(st.booleans()):
                t1 = t0 + down_s + draw(edge_eps)
                records.append((t1, PowerCall(PowerAction.SPIN_UP, disk)))
        else:
            rpm = draw(st.sampled_from(levels))
            records.append((
                t0,
                PowerCall(
                    PowerAction.SET_RPM, disk, rpm=rpm,
                    overhead_cycles=overhead,
                ),
            ))
            if draw(st.booleans()):
                steps = params.drpm.steps_between(params.drpm.max_rpm, rpm)
                # A zero-step call at t = 0 must not chain to a
                # negative instant.
                t1 = max(t0 + steps * step_s + draw(edge_eps), 0.0)
                rpm2 = draw(st.sampled_from(levels))
                records.append(
                    (t1, PowerCall(PowerAction.SET_RPM, disk, rpm=rpm2))
                )
    records.sort(key=lambda d: d[0])
    end = times[-1] + down_s + params.disk.spin_up_time_s + 5.0
    trace = Trace("adjacency", layout, reqs, directive_rows(*records), end)
    return trace, params


#: Device-id sets for :func:`ingest_records`.  The sparse sets leave holes
#: in the device range ((2, 5) doesn't even include device 0), so the
#: mapping policies and geometry inference see real device gaps.
_DEVICE_SETS = ((0,), (0, 1, 2, 3), (0, 3, 7), (2, 5))


@st.composite
def ingest_records(draw, min_size: int = 1, max_size: int = 60, ordered: bool = True):
    """Random *valid* ingest records ``(arrival_s, device, lba, nbytes,
    is_write)`` for :mod:`repro.trace.ingest`.

    Arrivals are nonnegative finite floats built from accumulated gaps
    (ties included — gap 0 draws are legal); devices come from a sparse
    set so inferred geometry has gaps; sizes span single bytes to large
    multi-stripe requests.  ``ordered=False`` shuffles the arrivals,
    producing the out-of-order inputs the ``sort=``/strictness tests
    need — every record stays individually valid.
    """
    n = draw(st.integers(min_size, max_size))
    devices = draw(st.sampled_from(_DEVICE_SETS))
    gaps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_nan=False)),
            min_size=n,
            max_size=n,
        )
    )
    t = 0.0
    records = []
    for g in gaps:
        t += g
        records.append(
            (
                t,
                draw(st.sampled_from(devices)),
                draw(st.integers(0, 1 << 20)),
                draw(st.sampled_from([1, 512, 4096, 8192, 65536])),
                draw(st.booleans()),
            )
        )
    if not ordered and n > 1:
        records = draw(st.permutations(records))
    return records


@st.composite
def synth_configs(draw, max_requests: int = 2000):
    """A random valid :class:`repro.trace.synth.SynthConfig`, small enough
    to materialize whole in differential tests."""
    from repro.trace.synth import SynthConfig

    return SynthConfig(
        num_requests=draw(st.integers(1, max_requests)),
        num_disks=draw(st.sampled_from([1, 4])),
        model=draw(st.sampled_from(["poisson", "onoff", "pareto"])),
        rate_hz=draw(st.sampled_from([200.0, 2000.0, 20000.0])),
        burst_len=draw(st.floats(1.0, 64.0, allow_nan=False)),
        off_s=draw(st.floats(0.0, 0.5, allow_nan=False)),
        pareto_alpha=draw(st.floats(1.1, 3.0, allow_nan=False)),
        read_fraction=draw(st.floats(0.0, 1.0, allow_nan=False)),
        lba_skew=draw(st.sampled_from([0.0, 0.5, 0.9])),
        request_bytes=draw(st.sampled_from([4 * KB, 8 * KB])),
        seed=draw(st.integers(0, 2**31 - 1)),
        chunk_requests=draw(st.sampled_from([1, 17, 256, 65536])),
    )


@st.composite
def perfect_2d_nests(draw, min_trip: int = 4, max_trip: int = 16):
    """A single-nest program whose nest is a perfect 2-deep candidate for
    tiling/strip-mining (trip counts with small divisors)."""
    prog = draw(
        programs(max_nests=1, max_arrays=2, max_stmts_per_nest=2)
    )
    nest = prog.nests[0]
    inner = nest.body[0]
    # Force even trip counts so strip/tile sizes exist.
    t_outer = draw(st.sampled_from([4, 6, 8, 12, 16]))
    t_inner = draw(st.sampled_from([4, 6, 8, 12, 16]))
    new_inner = Loop(inner.var, 0, t_inner, inner.body)
    new_nest = Loop(nest.var, 0, t_outer, (new_inner,))
    prog = prog.with_nests((new_nest,))
    # Grow the arrays so the (possibly larger) trip counts stay in bounds;
    # with_arrays re-points every reference at the grown declarations.
    grown = {
        a.name: Array(
            a.name,
            (a.shape[0] + t_outer + t_inner, a.shape[1] + t_outer + t_inner),
            a.element_size,
            a.order,
        )
        for a in prog.arrays
    }
    return prog.with_arrays(grown)
