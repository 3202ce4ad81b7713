"""Property and fuzz tests for recorded-trace ingestion.

Three families:

* **round-trips** — random valid records survive
  serialize → parse → normalize bit for bit, in both on-disk formats and
  across them (the text format writes ``repr()`` floats precisely so it
  loses nothing against the binary doubles);
* **chunked ⇔ whole identity** — any chunking of one file normalizes to
  the identical column arrays, and out-of-order inputs either raise
  :class:`TraceError` (strict default) or, under ``sort=True``, match the
  pre-sorted ingest exactly;
* **malformed input** — corrupted text lines and randomly mutated binary
  bytes must *always* surface as :class:`TraceError`: never another
  exception type, never a silently truncated parse.
"""

import gc
import os
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import ingest_records  # noqa: E402

from repro.trace import ingest
from repro.trace.ingest import (
    BINARY_MAGIC,
    RECORD_DTYPE,
    ingest_trace,
    read_records,
    scan_trace,
    stream_ingest,
    write_binary_records,
    write_text_records,
)
from repro.util.errors import TraceError

_SLOW_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_COLUMN_FIELDS = (
    "nominal_time_s", "array_id", "offset", "nbytes", "is_write",
    "nest", "iteration",
)


def _write(records, fmt: str, dirpath: Path) -> Path:
    path = dirpath / ("t.trace" if fmt == "text" else "t.btrace")
    if fmt == "text":
        write_text_records(path, records)
    else:
        write_binary_records(path, records)
    return path


def _assert_columns_equal(a, b) -> None:
    assert len(a) == len(b)
    for f in _COLUMN_FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    assert a.array_names == b.array_names


# --------------------------------------------------------------------- #
# Round-trips
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(records=ingest_records(), fmt=st.sampled_from(["text", "binary"]))
def test_serialize_parse_round_trip(records, fmt):
    """write → read reproduces every record exactly, floats included."""
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, fmt, Path(d))
        assert list(read_records(path)) == records
        # Format auto-detection lands on the format we wrote.
        assert list(read_records(path, fmt=fmt)) == records


@_SLOW_SETTINGS
@given(records=ingest_records())
def test_text_and_binary_normalize_identically(records):
    """One record list, both formats: byte-identical columns, identical
    scans, and a re-serialization of the parsed records is stable."""
    with tempfile.TemporaryDirectory() as d:
        tp = _write(records, "text", Path(d))
        bp = _write(records, "binary", Path(d))
        ct = ingest_trace(tp, num_disks=4).columns
        cb = ingest_trace(bp, num_disks=4).columns
        _assert_columns_equal(ct, cb)
        assert scan_trace(tp) == scan_trace(bp)
        # parse → serialize → parse is a fixed point.
        rt = list(read_records(tp))
        tp2 = Path(d) / "again.trace"
        write_text_records(tp2, rt)
        assert list(read_records(tp2)) == rt


@_SLOW_SETTINGS
@given(
    records=ingest_records(min_size=2),
    chunk=st.sampled_from([1, 7, 64, 65536]),
    fmt=st.sampled_from(["text", "binary"]),
)
def test_chunked_ingest_matches_whole(records, chunk, fmt):
    """Any chunking of one file concatenates to the whole-file columns."""
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, fmt, Path(d))
        whole = ingest_trace(path, num_disks=4).columns
        stream = stream_ingest(path, num_disks=4, chunk_requests=chunk)
        chunks = list(stream.iter_chunks())
        assert all(len(c) <= chunk for c in chunks)
        for f in _COLUMN_FIELDS:
            got = np.concatenate([getattr(c, f) for c in chunks])
            assert np.array_equal(got, getattr(whole, f)), f
        # The stream is re-iterable: a second pass yields the same chunks.
        again = list(stream.iter_chunks())
        assert len(again) == len(chunks)
        for c1, c2 in zip(chunks, again):
            _assert_columns_equal(c1, c2)


# --------------------------------------------------------------------- #
# Ordering: strict by default, sort=True recovers exactly.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(
    records=ingest_records(min_size=3, ordered=False),
    fmt=st.sampled_from(["text", "binary"]),
)
def test_out_of_order_strict_raises_and_sort_recovers(records, fmt):
    arrivals = [r[0] for r in records]
    is_sorted = all(a <= b for a, b in zip(arrivals, arrivals[1:]))
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, fmt, Path(d))
        if not is_sorted:
            with pytest.raises(TraceError, match="order"):
                ingest_trace(path, num_disks=4)
            # The streamed reader has no sort option — always strict.
            with pytest.raises(TraceError, match="order"):
                for _ in stream_ingest(path, num_disks=4).iter_chunks():
                    pass
        sorted_dir = Path(d) / "sorted"
        sorted_dir.mkdir()
        sorted_path = _write(
            sorted(records, key=lambda r: r[0]), fmt, sorted_dir
        )
        got = ingest_trace(path, num_disks=4, sort=True).columns
        want = ingest_trace(sorted_path, num_disks=4).columns
        _assert_columns_equal(got, want)


# --------------------------------------------------------------------- #
# Malformed text: every corruption is a TraceError.
# --------------------------------------------------------------------- #
_TEXT_CORRUPTIONS = (
    lambda f: " ".join(f[:4]),                 # missing kind field
    lambda f: " ".join(f + ["R"]),             # extra field
    lambda f: " ".join(["x"] + f[1:]),         # non-numeric arrival
    lambda f: " ".join(["nan"] + f[1:]),       # non-finite arrival
    lambda f: " ".join(["inf"] + f[1:]),
    lambda f: " ".join(["-1.0"] + f[1:]),      # negative arrival
    lambda f: " ".join([f[0], "-2"] + f[2:]),  # negative device
    lambda f: " ".join(f[:2] + ["-5"] + f[3:]),    # negative lba
    lambda f: " ".join(f[:3] + ["0", f[4]]),   # zero-size request
    lambda f: " ".join(f[:3] + ["-4096", f[4]]),
    lambda f: " ".join(f[:4] + ["X"]),         # bad kind letter
    lambda f: " ".join(f[:2] + ["3.5"] + f[3:]),   # fractional lba
)


@_SLOW_SETTINGS
@given(
    records=ingest_records(min_size=1, max_size=20),
    corrupt=st.sampled_from(range(len(_TEXT_CORRUPTIONS))),
    data=st.data(),
)
def test_malformed_text_always_raises(records, corrupt, data):
    """Corrupting any one line raises TraceError naming that line — it
    never crashes differently and never silently drops the record."""
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, "text", Path(d))
        lines = path.read_text().splitlines()
        # Line 1 is the header comment; pick a record line to corrupt.
        victim = data.draw(st.integers(1, len(lines) - 1))
        fields = lines[victim].split()
        lines[victim] = _TEXT_CORRUPTIONS[corrupt](fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match=f"line {victim + 1}"):
            list(read_records(path))
        with pytest.raises(TraceError):
            ingest_trace(path, num_disks=4)


# --------------------------------------------------------------------- #
# Binary fuzz: random byte mutations.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(records=ingest_records(min_size=1, max_size=30), data=st.data())
def test_binary_fuzz_never_crashes_or_truncates(records, data):
    """Random single-byte flips, truncations, and appended garbage either
    parse to a fully validated record list or raise TraceError — no other
    exception type, and a successful parse is never shorter than the
    header's record count."""
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, "binary", Path(d))
        blob = bytearray(path.read_bytes())
        op = data.draw(st.sampled_from(["flip", "truncate", "append"]))
        if op == "flip":
            i = data.draw(st.integers(0, len(blob) - 1))
            blob[i] ^= 1 << data.draw(st.integers(0, 7))
        elif op == "truncate":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            blob += bytes(data.draw(st.integers(1, 28)))
        path.write_bytes(bytes(blob))
        try:
            parsed = list(read_records(path, fmt="auto"))
        except TraceError:
            return
        # The mutation happened to keep the file well-formed: every
        # surviving record passed validation, and the count is exactly
        # what the (possibly mutated) header promised.
        count = int.from_bytes(blob[8:16], "little")
        assert len(parsed) == count
        for arrival, device, lba, nbytes, is_write in parsed:
            assert arrival >= 0.0 and np.isfinite(arrival)
            assert device >= 0 and lba >= 0 and nbytes > 0
            assert isinstance(is_write, bool)


def test_bad_magic_is_a_trace_error(tmp_path):
    p = tmp_path / "bad.btrace"
    p.write_bytes(b"NOTMAGIC" + bytes(16))
    with pytest.raises(TraceError):
        list(read_records(p, fmt="binary"))
    # auto-detection falls back to text, whose parse also fails cleanly.
    with pytest.raises(TraceError):
        list(read_records(p, fmt="auto"))


def test_magic_only_file_is_a_trace_error(tmp_path):
    p = tmp_path / "empty.btrace"
    p.write_bytes(BINARY_MAGIC)
    with pytest.raises(TraceError):
        list(read_records(p))


# --------------------------------------------------------------------- #
# Error precedence: the first bad record in file order is the one named.
# --------------------------------------------------------------------- #
_HEADER = len(BINARY_MAGIC) + 8
_RECORD = RECORD_DTYPE.itemsize


def _kind_offset(k: int) -> int:
    """Byte offset of record ``k``'s kind byte (the record's last byte)."""
    return _HEADER + (k + 1) * _RECORD - 1


#: Every reader that checks time order (``read_records`` does not).
_ORDERED_READERS = (
    scan_trace,
    lambda p: ingest_trace(p, num_disks=4),
    lambda p: stream_ingest(p, num_disks=4, chunk_requests=7),
)


def _all_readers_raise(path: Path, match: str, readers=None) -> None:
    if readers is None:
        readers = (lambda p: list(read_records(p)),) + _ORDERED_READERS
    for read in readers:
        with pytest.raises(TraceError, match=match):
            read(path)


@_SLOW_SETTINGS
@given(records=ingest_records(min_size=2, max_size=30), data=st.data())
def test_bad_kind_reported_before_later_truncation(records, data):
    """A bad kind byte at record k wins over a truncation after it."""
    k = data.draw(st.integers(0, len(records) - 2))
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, "binary", Path(d))
        blob = bytearray(path.read_bytes())
        blob[_kind_offset(k)] = data.draw(st.integers(2, 255))
        cut = data.draw(st.integers(_kind_offset(k) + 1, len(blob) - 1))
        path.write_bytes(bytes(blob[:cut]))
        _all_readers_raise(path, f"^record {k}: bad request kind byte")


@_SLOW_SETTINGS
@given(records=ingest_records(min_size=1, max_size=30), data=st.data())
def test_trailing_bytes_reported_after_every_record_validates(records, data):
    """Trailing bytes are an error only once every promised record has
    validated; an invalid record anywhere is reported instead."""
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, "binary", Path(d))
        blob = bytearray(path.read_bytes())
        blob += bytes(data.draw(st.integers(1, 2 * _RECORD)))
        path.write_bytes(bytes(blob))
        _all_readers_raise(path, "trailing bytes after")
        k = data.draw(st.integers(0, len(records) - 1))
        blob[_kind_offset(k)] = 9
        path.write_bytes(bytes(blob))
        _all_readers_raise(path, f"^record {k}: bad request kind byte 9")


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_out_of_order_past_chunk_boundary_names_global_record(
    fmt, tmp_path, monkeypatch
):
    """Record 7 opens the second 7-record block; its ordering error is
    named by its global index, with the previous arrival carried over
    the block boundary."""
    records = [(float(i), 0, i, 512, False) for i in range(20)]
    records[7] = (5.5, 0, 7, 512, False)
    path = _write(records, fmt, tmp_path)
    want = r"^record 7: arrival 5\.5 precedes previous 6\.0"
    _all_readers_raise(path, want, _ORDERED_READERS)
    monkeypatch.setattr(ingest, "_BLOCK_RECORDS", 7)
    _all_readers_raise(path, want, _ORDERED_READERS)


def test_chunk_pass_carries_order_across_chunk_boundary(tmp_path):
    """The streamed chunk reader re-validates every pass: a binary trace
    rewritten in place after opening fails at record 7, the first record
    of the second 7-record chunk."""
    records = [(float(i), 0, i, 512, False) for i in range(20)]
    path = _write(records, "binary", tmp_path)
    stream = stream_ingest(path, num_disks=4, chunk_requests=7)
    with open(path, "r+b") as fh:
        fh.seek(_HEADER + 7 * _RECORD)
        fh.write(struct.pack("<d", 5.5))
    with pytest.raises(TraceError, match=r"^record 7: arrival 5\.5 precedes"):
        list(stream.iter_chunks())


# --------------------------------------------------------------------- #
# Streamed text: parsed once, spilled, spill closed with the stream.
# --------------------------------------------------------------------- #
_TEXT_RECORDS = [(i * 0.5, i % 3, i * 8, 4096, i % 2 == 0) for i in range(50)]


def test_text_stream_parses_once(tmp_path, monkeypatch):
    path = _write(_TEXT_RECORDS, "text", tmp_path)
    calls = []
    parse = ingest._text_blocks

    def counting_parse(p, order):
        calls.append(p)
        return parse(p, order)

    monkeypatch.setattr(ingest, "_text_blocks", counting_parse)
    stream = stream_ingest(path, num_disks=4, chunk_requests=7)
    assert len(calls) == 1
    passes = [list(stream.iter_chunks()) for _ in range(3)]
    assert len(calls) == 1
    whole = ingest_trace(path, num_disks=4).columns
    for chunks in passes:
        for f in _COLUMN_FIELDS:
            got = np.concatenate([getattr(c, f) for c in chunks])
            assert np.array_equal(got, getattr(whole, f)), f


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_text_stream_spill_closed_when_collected(tmp_path):
    path = _write(_TEXT_RECORDS, "text", tmp_path)

    def open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    gc.collect()
    before = open_fds()
    stream = stream_ingest(path, num_disks=4, chunk_requests=7)
    assert sum(len(c) for c in stream.iter_chunks()) == len(_TEXT_RECORDS)
    assert open_fds() == before + 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del stream
        gc.collect()
    assert open_fds() == before
    # Closed explicitly, not left for the interpreter to warn about.
    assert not [w for w in caught if w.category is ResourceWarning]


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_pass_outlives_its_stream(fmt, tmp_path):
    """A pass keeps reading after the stream that started it is dropped
    and collected mid-pass."""
    path = _write(_TEXT_RECORDS, fmt, tmp_path)
    n = 0
    for chunk in stream_ingest(path, num_disks=4, chunk_requests=7).iter_chunks():
        gc.collect()
        n += len(chunk)
    assert n == len(_TEXT_RECORDS)


# --------------------------------------------------------------------- #
# Geometry validation under explicit parameters.
# --------------------------------------------------------------------- #
@_SLOW_SETTINGS
@given(records=ingest_records(min_size=1, max_size=20))
def test_lba_overflow_with_explicit_capacity_raises(records):
    """A device capacity below the trace's max extent is an LBA-overflow
    TraceError, whole-file and streamed alike."""
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, "text", Path(d))
        scan = scan_trace(path)
        too_small = max(512, scan.max_extent_bytes // 2)
        if too_small >= scan.max_extent_bytes:
            return  # tiny traces can't be made to overflow
        with pytest.raises(TraceError):
            ingest_trace(
                path, num_disks=4, device_capacity_bytes=too_small
            )
        with pytest.raises(TraceError):
            for _ in stream_ingest(
                path, num_disks=4, device_capacity_bytes=too_small
            ).iter_chunks():
                pass


@_SLOW_SETTINGS
@given(records=ingest_records(min_size=1, max_size=20))
def test_device_out_of_declared_range_raises(records):
    """Declaring fewer devices than the trace uses is a TraceError."""
    max_dev = max(r[1] for r in records)
    if max_dev == 0:
        return
    with tempfile.TemporaryDirectory() as d:
        path = _write(records, "text", Path(d))
        with pytest.raises(TraceError):
            ingest_trace(path, num_disks=4, num_devices=max_dev)


# --------------------------------------------------------------------- #
# Text blocks: ``np.loadtxt`` reads what the line parser reads.
# --------------------------------------------------------------------- #
def _lines(path: Path) -> list[str]:
    """The file's lines as the text reader sees them (universal
    newlines: ``\\r\\n`` arrives as ``\\n``)."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return list(fh)


def _text_file(tmp_path: Path, body: str | bytes) -> Path:
    path = tmp_path / "t.trace"
    if isinstance(body, str):
        body = body.encode()
    path.write_bytes(body)
    return path


_SPELLINGS = {
    "exponents": "1e-3 0 8 512 R\n1E+02 1 16 4096 W\n1.5e2 0 24 512 R\n",
    "signs": "+1.5 +0 +8 +512 W\n2.25 -0 0 1024 R\n",
    "integer arrivals": "1 0 8 512 R\n2 1 0 512 W\n30 2 4096 8 R\n",
    "commas and whitespace": (
        "0.5,0,8,512,R\n  0.75 ,\t1, 16 ,512, W \n1.0,,0 8\t512,,R,\n"
    ),
    "crlf": "0.5 0 8 512 R\r\n0.75 1 16 512 W\r\n1.0 0 0 512 R",
    "comment-only lines": (
        "# arrival_s device lba nbytes kind\n\n   \n\t# note\n"
        "0.1 0 8 512 R\n  #0.2 0 8 512 R\n0.3 1 8 512 W\n#\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_SPELLINGS))
def test_text_block_matches_line_parser(name, tmp_path):
    lines = _lines(_text_file(tmp_path, _SPELLINGS[name]))
    block = ingest._parse_block(lines)
    assert block is not None  # read by loadtxt, not handed back
    ref = list(ingest._iter_text(lines, 1))
    assert len(block) == len(ref) > 0
    got = zip(
        block["arrival"].tolist(), block["device"].tolist(),
        block["lba"].tolist(), block["nbytes"].tolist(),
        (block["kind"] == 1).tolist(),
    )
    for (a, dev, lba, nb, w), (ra, rdev, rlba, rnb, rw) in zip(got, ref):
        assert a.hex() == ra.hex()
        assert (dev, lba, nb, w) == (rdev, rlba, rnb, rw)


def test_text_block_hands_back_what_loadtxt_cannot_parse(tmp_path):
    """``float`` reads ``1_000.5``; ``loadtxt`` cannot, so that block goes
    through the line parser instead of being rejected."""
    path = _text_file(tmp_path, "0.5 0 8 512 R\n1_000.5 1 16 512 W\n")
    assert ingest._parse_block(_lines(path)) is None
    cols = ingest_trace(path, num_disks=2).columns
    assert cols.nominal_time_s.tolist() == [0.5, 1000.5]


def test_text_block_hands_back_a_warned_float_cast(tmp_path, monkeypatch):
    """NumPy releases that read ``8.5`` into an integer field as 8 only
    warn (``DeprecationWarning``); a block whose parse warns so goes
    through the line parser."""
    real = np.loadtxt

    def casting_loadtxt(*args, **kwargs):
        warnings.warn("float cast to an integer field", DeprecationWarning)
        return real(*args, **kwargs)

    lines = _lines(_text_file(tmp_path, "0.5 0 8 512 R\n0.75 1 16 512 W\n"))
    assert ingest._parse_block(lines) is not None
    monkeypatch.setattr(np, "loadtxt", casting_loadtxt)
    assert ingest._parse_block(lines) is None


_ORDER = "trace must be time-ordered"
_BAD_TEXT = {
    # ``loadtxt`` would truncate an ``S1`` kind to ``R``.
    "kind RW": (
        "0.5 1 8 512 RW\n",
        "line 4: bad request kind 'RW' (expected R or W)",
    ),
    # ``loadtxt`` would strip an inline comment.
    "inline comment": (
        "0.5 1 8 512 R # late\n",
        "line 4: expected 5 fields (arrival device lba nbytes R|W), got 7",
    ),
    "four fields": (
        "0.5 1 8 512\n",
        "line 4: expected 5 fields (arrival device lba nbytes R|W), got 4",
    ),
    "six fields": (
        "0.5 1 8 512 R W\n",
        "line 4: expected 5 fields (arrival device lba nbytes R|W), got 6",
    ),
    "only commas": (
        " , ,\n",
        "line 4: expected 5 fields (arrival device lba nbytes R|W), got 0",
    ),
    # ``loadtxt`` would read these as floats and cast them to ``int64``.
    "fractional lba": (
        "0.5 1 8.5 512 R\n",
        "line 4: invalid literal for int() with base 10: '8.5'",
    ),
    "float nbytes": (
        "0.5 1 8 512.0 R\n",
        "line 4: invalid literal for int() with base 10: '512.0'",
    ),
    "exponent device": (
        "0.5 1e3 8 512 R\n",
        "line 4: invalid literal for int() with base 10: '1e3'",
    ),
    "nan": ("nan 1 8 512 R\n", "line 4: bad arrival time nan"),
    "device above 32 bits": (
        "0.5 4294967296 8 512 R\n",
        "line 4: device 4294967296 exceeds 32 bits",
    ),
    "int64 overflow": (
        "0.5 1 9223372036854775808 512 R\n",
        "line 4: LBA extent overflows 64 bits",
    ),
    "out of order": (
        "0.05 1 8 512 R\n",
        f"record 2: arrival 0.05 precedes previous 0.25 ({_ORDER}; pass "
        "sort=True to reorder a whole-file ingest)",
    ),
}


@pytest.mark.parametrize("block_lines", [4, 1 << 14])
@pytest.mark.parametrize("name", sorted(_BAD_TEXT))
def test_text_block_errors_name_their_line(
    name, block_lines, tmp_path, monkeypatch
):
    """Each malformed line raises the line parser's message, whether it
    sits in the first block or a later one."""
    monkeypatch.setattr(ingest, "_BLOCK_RECORDS", block_lines)
    bad, message = _BAD_TEXT[name]
    good = "0.1 0 8 512 R\n0.25 1 16 512 W\n"
    later = good.replace("0.", "9.")
    path = _text_file(tmp_path, "# header\n" + good + bad + later)
    with pytest.raises(TraceError) as err:
        ingest_trace(path, num_disks=2)
    assert str(err.value) == message
    with pytest.raises(TraceError) as err:
        stream_ingest(path, num_disks=2)
    assert str(err.value) == message.replace(
        "; pass sort=True to reorder a whole-file ingest", ""
    )
