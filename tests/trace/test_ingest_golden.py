"""Golden regression pins for recorded-trace ingestion.

Like ``tests/workloads/test_golden.py``, these freeze deterministic facts
of the bundled fixtures under ``tests/fixtures/traces/`` — the exact
normalized :class:`~repro.trace.request.RequestColumns` (as a SHA-256 over
the column bytes plus spot-checked first/last rows) and the exact
open-loop scheme replay results — so any drift in the parsers, the
device→disk mapping, or the open-loop engines shows up as a diff here
rather than as silent corruption of replayed results.  The text and
binary fixtures encode the *same* 48 records, so their normalized columns
must be byte-identical.

If you change the ingest normalization on purpose, regenerate the pins
with the digest helper below and re-run the differential suites.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.controllers.drpm import ReactiveDRPM
from repro.controllers.tpm import ReactiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.trace.ingest import (
    ingest_trace,
    read_records,
    scan_trace,
    write_binary_records,
)
from repro.util.errors import TraceError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "traces"
TEXT = FIXTURES / "small.trace"
BINARY = FIXTURES / "small.btrace"
MALFORMED = FIXTURES / "malformed.trace"

#: SHA-256 over every normalized column's bytes, in field order.
GOLDEN_COLUMNS_SHA256 = (
    "4657e75654b8a2fb04b88736e2b1613b4e9291eb443444d33a8a7126194ff59b"
)

GOLDEN_NUM_RECORDS = 48
GOLDEN_NUM_DEVICES = 4
GOLDEN_LAST_ARRIVAL_S = 85.593486
GOLDEN_MAX_EXTENT_BYTES = 15728640
GOLDEN_NUM_WRITES = 13

#: Open-loop replay pins on the default 4-disk Table 1 parameters.  The
#: fixture's eight ~6 s silences trip reactive TPM (six spin-downs, whose
#: spin-up costs make it *lose* energy here — the paper's wrong-threshold
#: failure mode); reactive DRPM's 30-request window never fills on 48
#: requests over 4 disks, so it must equal Base exactly.
GOLDEN_BASE_EXEC_S = 85.59971213636364
GOLDEN_BASE_ENERGY_J = 3493.3503339136364
GOLDEN_TPM_EXEC_S = 96.48402804545455
GOLDEN_TPM_ENERGY_J = 3846.0319974545455
GOLDEN_TPM_SPIN_DOWNS = 6


def _columns_digest(cols) -> str:
    h = hashlib.sha256()
    for a in (
        cols.nominal_time_s,
        cols.array_id,
        cols.offset,
        cols.nbytes,
        cols.is_write.astype(np.uint8),
        cols.nest,
        cols.iteration,
    ):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _energy(result) -> float:
    return sum(ds.total_energy_j for ds in result.disk_stats)


@pytest.mark.parametrize("path", [TEXT, BINARY], ids=["text", "binary"])
def test_normalized_columns_pinned(path):
    trace = ingest_trace(path, num_disks=4)
    assert trace.num_requests == GOLDEN_NUM_RECORDS
    assert _columns_digest(trace.columns) == GOLDEN_COLUMNS_SHA256
    # Spot-check the endpoints: LBAs are 512-byte sectors, so the byte
    # offset is lba * 512; arrivals survive the text round-trip exactly.
    c = trace.columns
    assert float(c.nominal_time_s[0]) == 10.167627
    assert (int(c.array_id[0]), int(c.offset[0]), int(c.nbytes[0])) == (
        2, 983040, 4096,
    )
    assert not bool(c.is_write[0])
    assert float(c.nominal_time_s[-1]) == 85.593486
    assert (int(c.array_id[-1]), int(c.offset[-1]), int(c.nbytes[-1])) == (
        0, 4882432, 16384,
    )
    assert int(c.is_write.sum()) == GOLDEN_NUM_WRITES
    assert c.array_names == ("dev0", "dev1", "dev2", "dev3")


def test_text_and_binary_fixtures_are_identical():
    """The two fixtures encode the same records: record-level equality and
    byte-identical normalized columns."""
    assert list(read_records(TEXT)) == list(read_records(BINARY))
    assert ingest_trace(TEXT, num_disks=4).columns == ingest_trace(
        BINARY, num_disks=4
    ).columns


def test_binary_fixture_rewrites_byte_identically(tmp_path):
    """Re-serializing the binary fixture's own records reproduces its
    bytes exactly: the writer and reader share one record layout."""
    out = tmp_path / "again.btrace"
    assert write_binary_records(out, read_records(BINARY)) == GOLDEN_NUM_RECORDS
    assert out.read_bytes() == BINARY.read_bytes()


@pytest.mark.parametrize("path", [TEXT, BINARY], ids=["text", "binary"])
def test_scan_pinned(path):
    scan = scan_trace(path)
    assert scan.num_records == GOLDEN_NUM_RECORDS
    assert scan.num_devices == GOLDEN_NUM_DEVICES
    assert scan.last_arrival_s == GOLDEN_LAST_ARRIVAL_S
    assert scan.max_extent_bytes == GOLDEN_MAX_EXTENT_BYTES


def test_malformed_fixture_raises_with_line_number():
    with pytest.raises(TraceError, match="line 5"):
        list(read_records(MALFORMED))
    with pytest.raises(TraceError):
        ingest_trace(MALFORMED, num_disks=4)


@pytest.mark.parametrize("engine", ["stepwise", "segmented"])
def test_scheme_replay_results_pinned(engine):
    """Open-loop scheme replays of the fixture are pinned to the exact
    float — identically on every engine."""
    trace = ingest_trace(TEXT, num_disks=4)
    params = SubsystemParams(num_disks=4)

    base = simulate(trace, params, engine=engine, open_loop=True)
    assert base.execution_time_s == GOLDEN_BASE_EXEC_S
    assert _energy(base) == GOLDEN_BASE_ENERGY_J
    assert base.total_spin_downs == 0

    tpm = simulate(
        trace,
        params,
        ReactiveTPM(params.effective_tpm_threshold_s),
        engine=engine,
        open_loop=True,
    )
    assert tpm.execution_time_s == GOLDEN_TPM_EXEC_S
    assert _energy(tpm) == GOLDEN_TPM_ENERGY_J
    assert tpm.total_spin_downs == GOLDEN_TPM_SPIN_DOWNS

    # 48 requests over 4 disks never fill DRPM's 30-request window: the
    # heuristic must do nothing, bit for bit.
    drpm = simulate(
        trace, params, ReactiveDRPM(params.drpm), engine=engine, open_loop=True
    )
    assert drpm.num_directives == 0
    assert drpm.execution_time_s == GOLDEN_BASE_EXEC_S
    assert _energy(drpm) == GOLDEN_BASE_ENERGY_J
