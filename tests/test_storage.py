"""Tests for the session-clustered columnar file format."""

import contextlib
import io
import struct
import threading
import tracemalloc
import types
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessiondedup import storage
from rows import (
    ImpressionRecord,
    WRAPPED_LENGTHS,
    as_batch,
    as_records,
    column_digest,
    from_rows,
    jt_equal,
    serialize_log_records,
    to_pylists,
    write_raw_stripe,
)
from sessiondedup import tensors
from sessiondedup.tensors import (
    KJT, JaggedTensor, RunJaggedTensor, build_ikjt, expand_runs, jagged_index_select
)
from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    default_config,
    generate_dataset,
    save_config,
)
from sessiondedup.varint import encode_varints
from sessiondedup.storage import (
    MAGIC,
    ScanBatch,
    StorageError,
    open_table,
    read_stripe,
    scan,
    stream_sizes,
    write_table,
)


@pytest.fixture(scope="module")
def records():
    cfg = SessionConfig(
        num_sessions=120,
        samples_per_session=SampleCountDist(kind="geometric", mean=8.0),
        seed=17,
    )
    specs = [
        FeatureSpec(
            key="seq",
            kind="user_sequence",
            avg_len=20,
            vocab_size=50_000,
            change_prob=0.15,
        ),
        FeatureSpec(key="item", kind="item", avg_len=2, vocab_size=50_000),
    ]
    return as_records(generate_dataset(cfg, specs))


def assert_same_records(got, expected):
    assert serialize_log_records(got) == serialize_log_records(expected)


class TestRoundTrip:
    @pytest.mark.parametrize("stripe_rows", [1, 7, 128, 100_000])
    def test_unclustered_preserves_order(self, records, tmp_path, stripe_rows):
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records), path, stripe_rows=stripe_rows)
        f = open_table(path)
        assert f.row_count == len(records)
        got = [r for batch in scan(f, 64) for r in as_records(batch)]
        assert_same_records(got, records)

    @pytest.mark.parametrize("level", [0, 1, 6, 9])
    def test_levels_round_trip(self, records, tmp_path, level):
        path = tmp_path / f"l{level}.sesscol"
        table = as_batch(records)
        f = write_table(table, path, level=level)
        got = [r for b in scan(open_table(path), 256) for r in as_records(b)]
        assert_same_records(got, records)
        # the first stream, stripe 0's session ids, is deflated at this level
        data, pos = path.read_bytes(), f.stripes[0].offset + 4
        _, comp_len = struct.unpack_from("<II", data, pos)
        raw = encode_varints(table.session_ids[: f.stripes[0].row_count])
        assert data[pos + 8 : pos + 8 + comp_len] == zlib.compress(raw, level)

    @pytest.mark.parametrize("level", [-1, 10, 300])
    def test_level_outside_range_rejected_before_writing(self, records, tmp_path, level):
        path = tmp_path / "bad-level.sesscol"
        with pytest.raises(StorageError, match="level"):
            write_table(as_batch(records), path, level=level)
        assert not path.exists()

    def test_by_session_reorders_then_round_trips(self, records, tmp_path):
        path = tmp_path / "c.sesscol"
        write_table(as_batch(records), path, clustering="by_session")
        got = [r for b in scan(open_table(path), 256) for r in as_records(b)]
        expected = sorted(records, key=lambda r: (r.session_id, r.timestamp))
        assert_same_records(got, expected)

    def test_by_session_is_logically_stable(self, records, tmp_path):
        # clustering an already-clustered file must not change the rows
        p1 = tmp_path / "c1.sesscol"
        p2 = tmp_path / "c2.sesscol"
        write_table(as_batch(records), p1, clustering="by_session")
        rows1 = [r for b in scan(open_table(p1), 512) for r in as_records(b)]
        write_table(as_batch(rows1), p2, clustering="by_session")
        rows2 = [r for b in scan(open_table(p2), 512) for r in as_records(b)]
        assert_same_records(rows2, rows1)

    def test_write_is_deterministic(self, records, tmp_path):
        p1 = tmp_path / "a.sesscol"
        p2 = tmp_path / "b.sesscol"
        write_table(as_batch(records), p1)
        write_table(as_batch(records), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_record(self, tmp_path):
        one = [
            ImpressionRecord(
                session_id=5,
                timestamp=10,
                features={"f": np.array([1, 2], dtype=np.int64)},
                label=1,
            )
        ]
        path = tmp_path / "one.sesscol"
        write_table(as_batch(one), path)
        got = as_records(read_stripe(open_table(path), 0))
        assert_same_records(got, one)

    def test_empty_lists_survive(self, tmp_path):
        recs = [
            ImpressionRecord(0, 0, {"f": np.array([], dtype=np.int64)}, 0),
            ImpressionRecord(0, 1, {"f": np.array([3], dtype=np.int64)}, 0),
        ]
        path = tmp_path / "e.sesscol"
        write_table(as_batch(recs), path)
        got = [r for b in scan(open_table(path), 2) for r in as_records(b)]
        assert got[0].features["f"].size == 0
        np.testing.assert_array_equal(got[1].features["f"], [3])


class TestScan:
    def test_batch_sizes(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records), path, stripe_rows=100)
        sizes = [len(as_records(b)) for b in scan(open_table(path), 64)]
        assert all(s == 64 for s in sizes[:-1])
        assert sizes[-1] == len(records) - 64 * (len(sizes) - 1)

    def test_bytes_read_attribution(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        f = write_table(as_batch(records), path, stripe_rows=100)
        total_stripe_bytes = sum(s.byte_size for s in f.stripes)
        scanned = sum(b.bytes_read for b in scan(open_table(path), 64))
        assert scanned == total_stripe_bytes

    # 100 is one stripe, 50 divides it (every batch inside one stripe),
    # 64 does not (some batches span two stripes).
    @pytest.mark.parametrize("batch_size", [100, 50, 64])
    def test_batches_within_and_across_stripes(self, records, tmp_path, batch_size):
        path = tmp_path / "t.sesscol"
        f = write_table(as_batch(records), path, stripe_rows=100)
        total_stripe_bytes = sum(s.byte_size for s in f.stripes)
        batches = list(scan(open_table(path), batch_size))
        assert sum(b.bytes_read for b in batches) == total_stripe_bytes
        assert_same_records([r for b in batches for r in as_records(b)], records)

    def test_large_batch_spans_stripes(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records), path, stripe_rows=10)
        batches = list(scan(open_table(path), len(records)))
        assert len(batches) == 1
        assert_same_records(as_records(batches[0]), records)

    def test_invalid_batch_size(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records), path)
        with pytest.raises(StorageError):
            next(scan(open_table(path), 0))

    @pytest.mark.parametrize(
        "value, message",
        [(2.5, "must be an integer, got 2.5"), (0, "must be >= 1, got 0")],
        ids=["fraction", "zero"],
    )
    def test_batch_size_is_a_count(self, records, tmp_path, value, message):
        # 2.5 would fail slicing the first stripe, naming no argument
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records), path)
        with pytest.raises(StorageError, match=f"^batch_size {message}$"):
            next(scan(open_table(path), value))


class TestValidation:
    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_table([], tmp_path / "x.sesscol")

    @pytest.mark.parametrize(
        "value, message",
        [(2.5, "must be an integer, got 2.5"), (0, "must be >= 1, got 0")],
        ids=["fraction", "zero"],
    )
    def test_stripe_rows_is_a_count_checked_before_writing(self, records, tmp_path, value, message):
        # the count is checked before ``path`` is opened: a write that
        # failed later would leave only the header of the file there
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records[:3]), path)
        good = path.read_bytes()
        with pytest.raises(StorageError, match=f"^stripe_rows {message}$"):
            write_table(as_batch(records), path, stripe_rows=value)
        assert path.read_bytes() == good

    def test_bad_magic(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records), path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTAFILE"
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="magic"):
            open_table(path)

    def test_truncated_file(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records), path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(StorageError):
            open_table(path)

    def test_corrupt_stripe_names_ordinal(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        f = write_table(as_batch(records), path, stripe_rows=50)
        assert len(f.stripes) >= 3
        data = bytearray(path.read_bytes())
        # flip bytes inside stripe 2's compressed payload
        start = f.stripes[2].offset + 16
        data[start : start + 4] = b"\xff\xff\xff\xff"
        path.write_bytes(bytes(data))
        reopened = open_table(path)
        with pytest.raises(StorageError, match="stripe 2"):
            read_stripe(reopened, 2)
        # other stripes stay readable
        read_stripe(reopened, 0)

    def test_unknown_version(self, records, tmp_path):
        # version 1 (a key-name list with no checksum), version 2 (no
        # repeat marks), version 3 (marks only against the row before)
        # and version 4 (a second, -d mark) are no longer read
        path = tmp_path / "t.sesscol"
        write_table(as_batch(records), path)
        good = path.read_bytes()
        for version in (99, 1, 2, 3, 4):
            data = bytearray(good)
            struct.pack_into("<I", data, len(MAGIC), version)
            path.write_bytes(bytes(data))
            with pytest.raises(StorageError, match=f"unsupported version {version}$"):
                open_table(path)

    def test_flipped_key_name_bit_rejected(self, records, tmp_path):
        # "seq" -> "req" stays valid utf-8 and unique: without a header
        # checksum it silently renamed the feature.
        path = tmp_path / "t.sesscol"
        f = write_table(as_batch(records), path)
        data = bytearray(path.read_bytes())
        pos = data.index(b"seq", len(MAGIC))
        assert pos < f.stripes[0].offset
        data[pos] ^= 1
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="header checksum mismatch"):
            open_table(path)


class TestFeatureSpecs:
    SPECS = [
        asdict(FeatureSpec("seq", "user_sequence", 20, 50_000, 0.15, "g")),
        asdict(FeatureSpec("item", "item", 2, 50_000)),
    ]

    @pytest.mark.parametrize("specs", [SPECS, None], ids=["specs", "none"])
    def test_specs_round_trip(self, records, tmp_path, specs):
        path = tmp_path / "t.sesscol"
        expected = None if specs is None else tuple(specs)
        assert write_table(as_batch(records), path, feature_specs=specs).feature_specs == expected
        assert open_table(path).feature_specs == expected

    @pytest.mark.parametrize(
        "keys", [["item", "seq"], ["seq"], ["seq", "item", "extra"], ["seq", None]],
        ids=["reordered", "missing", "extra", "unnamed"],
    )
    def test_specs_must_name_the_tables_keys(self, records, tmp_path, keys):
        path = tmp_path / "t.sesscol"
        specs = [{**self.SPECS[0], "key": k} for k in keys]
        with pytest.raises(StorageError, match=r"feature specs for keys .*, table has \['seq', 'item'\]"):
            write_table(as_batch(records), path, feature_specs=specs)
        assert not path.exists()


class TestScanBatch:
    @pytest.mark.parametrize("column", ["session_ids", "timestamps", "labels"])
    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_columns_must_have_one_entry_per_row(self, column, shape):
        features = KJT(3, {"f": from_rows([[1], [], [2, 3]])})
        columns = {name: np.zeros(3, dtype=np.int64) for name in ("session_ids", "timestamps", "labels")}
        ScanBatch(**columns, features=features, bytes_read=0)
        columns[column] = np.zeros(shape, dtype=np.int64)
        with pytest.raises(ValueError, match=column):
            ScanBatch(**columns, features=features, bytes_read=0)


class TestCompression:
    def test_clustering_improves_compression(self, records, tmp_path):
        pa = tmp_path / "plain.sesscol"
        pb = tmp_path / "clustered.sesscol"
        fa = write_table(as_batch(records), pa, clustering="none")
        fb = write_table(as_batch(records), pb, clustering="by_session")
        raw_a, comp_a = stream_sizes(fa)
        raw_b, comp_b = stream_sizes(fb)
        # One stripe holds every row either way, and a row equal to its
        # session's previous row is marked wherever that row is, so both
        # orders store the same rows; zlib still finds more to match in
        # the clustered order.
        assert raw_b == raw_a
        assert comp_b < comp_a
        assert pb.stat().st_size < pa.stat().st_size
        # Across many stripes a session's rows meet in one stripe only
        # when clustered, so only then are most repeats marked.
        raw_a = stream_sizes(write_table(as_batch(records), pa, stripe_rows=64))[0]
        raw_b = stream_sizes(write_table(as_batch(records), pb, stripe_rows=64, clustering="by_session"))[0]
        assert raw_b < raw_a

    def test_report_identities(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        f = write_table(as_batch(records), path)
        raw, comp = stream_sizes(f)
        assert raw > comp > 0

    def test_stream_sizes_sum_stripe_streams(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        f = write_table(as_batch(records), path, stripe_rows=64)
        raw, comp = stream_sizes(f)
        # compressed stream payloads can't exceed the file size
        assert comp < path.stat().st_size
        assert raw > 0


def _row_tuples(batches):
    return [
        (r.session_id, r.timestamp, r.label, [a.tolist() for a in r.features.values()])
        for b in batches
        for r in as_records(b)
    ]


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    # Each session repeats ``g`` on every row and each ``f`` list (empty
    # ones too) on two rows. The sessions' rows interleave, so most
    # stripes hold -1 marks whose session predecessor is rows back.
    recs = [
        ImpressionRecord(
            s,
            t,
            {"f": np.arange(t // 2 % 3, dtype=np.int64) + s, "g": np.array([s], dtype=np.int64)},
            t % 2,
        )
        for t in range(6)
        for s in range(3)
    ]
    path = tmp_path_factory.mktemp("fuzz") / "small.sesscol"
    specs = [
        asdict(FeatureSpec("f", "user_sequence", 1.5, 10, 0.5)),
        asdict(FeatureSpec("g", "item", 1, 3)),
    ]
    write_table(as_batch(recs), path, stripe_rows=5, feature_specs=specs)
    return path, path.read_bytes(), _row_tuples(scan(open_table(path), 4))


def _corrupt_and_scan(path, good, rows, data):
    """Damage a copy of ``good`` as ``data`` draws. A truncated file, or
    any change to the bytes before the first stripe, must raise
    StorageError; any other damage raises StorageError or leaves every
    row intact."""
    header_end = open_table(path).stripes[0].offset
    buf = bytearray(good)
    kind = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    if kind == "truncate":
        del buf[data.draw(st.integers(0, len(buf) - 1)) :]
    elif kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(buf) - 1))
        buf[bit // 8] ^= 1 << (bit % 8)
    else:
        pos = data.draw(st.integers(0, len(buf) - 8))
        buf[pos : pos + 8] = data.draw(st.binary(min_size=8, max_size=8))
    bad = path.with_name("bad.sesscol")
    bad.write_bytes(bytes(buf))
    try:
        got = _row_tuples(scan(open_table(bad), 4))
    except StorageError:
        return
    assert kind != "truncate"
    assert buf[:header_end] == good[:header_end]
    assert got == rows


def _wide_table() -> ScanBatch:
    """A generated table whose session ids, timestamps and ``wide``
    values need 5-10 byte varints (and are often negative), beside a
    ``ragged`` feature whose fractional avg_len varies its row lengths."""
    cfg = SessionConfig(
        num_sessions=30,
        samples_per_session=SampleCountDist(kind="geometric", mean=4.0),
        seed=5,
    )
    specs = [
        FeatureSpec(key="wide", kind="user_sequence", avg_len=3, vocab_size=2**62, change_prob=0.5),
        FeatureSpec(key="ragged", kind="item", avg_len=2.5, vocab_size=1000),
    ]
    t = generate_dataset(cfg, specs)
    wide = t.features.entries["wide"]
    entries = dict(t.features.entries)
    entries["wide"] = JaggedTensor(wide.values - 2**61, wide.offsets)
    return ScanBatch(
        t.session_ids * (2**40 + 3) - 2**45,
        t.timestamps * 3**30 + np.iinfo(np.int64).min,
        t.labels,
        KJT(len(t), entries),
    )


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("wide") / "wide.sesscol"
    # unclustered, so the ``wide`` feature's -1 marks refer rows back
    write_table(_wide_table(), path, stripe_rows=37)
    return path, path.read_bytes(), _row_tuples(scan(open_table(path), 4))


class TestWideValues:
    def test_table_reaches_the_per_byte_path(self):
        t = _wide_table()
        for column in (t.session_ids, t.timestamps, t.features.entries["wide"].values):
            assert column.min() < 0 and np.abs(column).max() >= 2**28
        ragged = t.features.entries["ragged"]
        assert np.unique(np.diff(np.append(ragged.offsets, ragged.values.size))).size > 1

    @pytest.mark.parametrize("clustering", ["none", "by_session"])
    def test_round_trip_is_exact(self, tmp_path, clustering):
        t = _wide_table()
        path = tmp_path / "wide.sesscol"
        write_table(t, path, stripe_rows=37, clustering=clustering)
        f = open_table(path)
        got = next(scan(f, f.row_count))
        if clustering == "by_session":
            t = t.take_rows(np.lexsort((t.timestamps, t.session_ids)))
        for name in ("session_ids", "timestamps", "labels"):
            np.testing.assert_array_equal(getattr(got, name), getattr(t, name))
        assert list(got.features.entries) == list(t.features.entries)
        for key, jt in t.features.entries.items():
            stored = expand_runs(got.features.entries[key])
            np.testing.assert_array_equal(stored.values, jt.values)
            np.testing.assert_array_equal(stored.offsets, jt.offsets)


def _with_schema(path, good, schema, out):
    """Write ``good``, the bytes of file ``path``, to ``out`` with its
    schema block replaced by ``schema`` under a valid header checksum."""
    f = open_table(path)
    # magic | u32 version | u8 codec | u8 level | u16 reserved, then the block
    header = good[: len(MAGIC) + 8] + struct.pack("<I", len(schema)) + schema
    header += struct.pack("<I", zlib.crc32(header))
    start = f.stripes[0].offset
    footer = start + sum(s.byte_size for s in f.stripes)
    delta = len(header) - start
    index = b"".join(struct.pack("<QI", s.offset + delta, s.row_count) for s in f.stripes)
    tail = struct.pack("<I", len(f.stripes)) + index + struct.pack("<Q", footer + delta) + MAGIC
    out.write_bytes(header + good[start:footer] + tail)


def _with_first_stream(tmp_path, stream):
    """An 8-row, one-stripe file whose session-id stream is ``stream``."""
    recs = [ImpressionRecord(0, t, {"f": np.array([t], dtype=np.int64)}, 0) for t in range(8)]
    path = tmp_path / "first-stream.sesscol"
    info = write_table(as_batch(recs), path).stripes[0]
    data = path.read_bytes()
    stripe = data[info.offset : info.offset + info.byte_size]
    (comp_len,) = struct.unpack_from("<I", stripe, 8)
    blob = stripe[:4] + stream + stripe[12 + comp_len :]
    footer = struct.pack("<IQIQ", 1, info.offset, 8, info.offset + len(blob)) + MAGIC
    path.write_bytes(data[: info.offset] + blob + footer)
    return open_table(path)


def _one_row_file(path, **options):
    return write_table(as_batch([{"f": [0]}]), path, **options)


def _with_stripe(path, blob, rows):
    """A one-stripe file of feature ``f`` whose stripe bytes are ``blob``
    and whose index gives it ``rows`` rows."""
    start = _one_row_file(path).stripes[0].offset
    footer = struct.pack("<IQIQ", 1, start, rows, start + len(blob)) + MAGIC
    path.write_bytes(path.read_bytes()[:start] + blob + footer)
    return open_table(path)


def _footer_offset_past_the_end(path):
    _one_row_file(path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, len(data) - 16, len(data))
    path.write_bytes(bytes(data))
    open_table(path)


def _patched_footer(path, fmt, at, value):
    """Open a one-row file whose footer holds ``value`` at byte ``at``:
    the stripe count at 0, stripe 0's offset at 4."""
    _one_row_file(path)
    data = bytearray(path.read_bytes())
    (footer,) = struct.unpack_from("<Q", data, len(data) - 16)
    struct.pack_into(fmt, data, footer + at, value)
    path.write_bytes(bytes(data))
    open_table(path)


def _short_read(path):
    f = _one_row_file(path)
    path.write_bytes(path.read_bytes()[: f.stripes[0].offset + 2])
    read_stripe(f, 0)


def _corrupt_varints(path):
    # eight continuation bytes: a varint that never ends, in a stream
    # that inflates to exactly its declared 8 bytes
    body = zlib.compress(b"\x80" * 8)
    read_stripe(_with_first_stream(path.parent, struct.pack("<II", 8, len(body)) + body), 0)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda p: _one_row_file(p, clustering="zorder"), "^unknown clustering mode 'zorder'$"),
        (_footer_offset_past_the_end, r"footer offset \d+ outside the file$"),
        (lambda p: _patched_footer(p, "<I", 0, 2), "footer size does not match 2 stripes$"),
        (lambda p: _patched_footer(p, "<Q", 4, 0), "stripe 0 offset not increasing$"),
        (
            lambda p: read_stripe(_with_stripe(p, struct.pack("<I", 1) + bytes(3), 1), 0),
            "^stripe 0: truncated stream header$",
        ),
        (_corrupt_varints, "^stripe 0: corrupt varints: "),
        (lambda p: read_stripe(_one_row_file(p), 1), "^stripe 1 out of range$"),
        (_short_read, "^stripe 0: short read$"),
        (lambda p: read_stripe(_with_stripe(p, b"\x01\x00", 1), 0), "^stripe 0: truncated header$"),
        (lambda p: read_stripe(_with_stripe(p, struct.pack("<I", 0), 0), 0), "^stripe 0: no rows$"),
    ],
    ids=[
        "clustering",
        "footer-offset",
        "footer-size",
        "stripe-offset",
        "stream-header",
        "varints",
        "ordinal",
        "short-read",
        "stripe-header",
        "zero-rows",
    ],
)
def test_rejection_names_its_cause(tmp_path, damage, message):
    with pytest.raises(StorageError, match=message):
        damage(tmp_path / "t.sesscol")


class TestCorruption:
    def test_inflation_bounded_by_declared_length(self, tmp_path):
        # 64 KiB of deflate that inflates to 64 MiB, declared as 8 bytes.
        deflate = zlib.compressobj(9)
        chunk = bytes(1 << 20)
        body = b"".join(deflate.compress(chunk) for _ in range(64)) + deflate.flush()
        f = _with_first_stream(tmp_path, struct.pack("<II", 8, len(body)) + body)
        tracemalloc.start()
        try:
            with pytest.raises(StorageError, match="stripe 0"):
                read_stripe(f, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @pytest.mark.parametrize("raw_len", [7, 81], ids=["below-count", "above-10x-count"])
    def test_declared_length_checked_before_inflating(self, tmp_path, monkeypatch, raw_len):
        # 8 rows need 8 to 80 varint bytes; the body itself is valid.
        body = zlib.compress(bytes(8))
        f = _with_first_stream(tmp_path, struct.pack("<II", raw_len, len(body)) + body)

        def inflate(*args):
            raise AssertionError("inflated a stream whose length cannot hold its varints")

        stub = types.SimpleNamespace(error=zlib.error, decompress=inflate, decompressobj=inflate)
        monkeypatch.setattr(storage, "zlib", stub)
        with pytest.raises(StorageError, match=f"stripe 0: stream length {raw_len} cannot hold 8 varints"):
            read_stripe(f, 0)

    def test_negative_row_length_rejected(self, tmp_path):
        # Lengths [-1, 5] sum to the 4 stored values, so the zlib, varint
        # and count checks all pass; only the length check can catch it.
        recs = [
            ImpressionRecord(0, t, {"f": np.array([7, 8], dtype=np.int64)}, 0)
            for t in range(2)
        ]
        path = tmp_path / "neg.sesscol"
        f = write_table(as_batch(recs), path)
        start = f.stripes[0].offset
        streams = ([0, 0], [0, 1], [0, 0], [-1, 5], [7, 8, 7, 8])
        blob = struct.pack("<I", 2) + b"".join(
            storage._pack_stream(np.array(a, dtype=np.int64), f.level) for a in streams
        )
        footer = struct.pack("<IQIQ", 1, start, 2, start + len(blob)) + MAGIC
        path.write_bytes(path.read_bytes()[:start] + blob + footer)
        with pytest.raises(StorageError, match=r"stripe 0: feature 'f': negative row length"):
            list(scan(open_table(path), 2))

    def test_row_length_sum_past_int64_rejected(self, tmp_path):
        # Lengths [5, 2^63 - 1] sum to 2^63 + 4, which wraps negative; the
        # stripe is rejected by feature before its values stream is read.
        path = tmp_path / "sum-wraps.sesscol"
        write_raw_stripe(path, [5, 2**63 - 1], range(5))
        with pytest.raises(StorageError, match=r"stripe 0: feature 'f': row lengths sum past 2\^63"):
            read_stripe(open_table(path), 0)

    def test_wrapped_row_lengths_rejected(self, tmp_path):
        # The lengths sum to 2^64 + 5, which wraps to the 5 stored values;
        # their offsets wrap to [0, 2^62, -2^63, -2^62].
        path = tmp_path / "wrapped.sesscol"
        write_raw_stripe(path, WRAPPED_LENGTHS, range(5))
        with pytest.raises(StorageError, match=r"stripe 0: feature 'f': .*row 1 starts at 4611686018427387904"):
            read_stripe(open_table(path), 0)

    @pytest.mark.parametrize(
        "fmt, offset, value, message",
        [
            ("<B", 13, 200, "level 200"),
            ("<H", 14, 1, "reserved"),
            ("<H", 14, 0x8000, "reserved"),
            ("<B", 13, 5, "header checksum mismatch"),
        ],
        ids=["level", "reserved-low", "reserved-high", "level-in-range"],
    )
    def test_header_level_and_reserved_checked(
        self, small_file, tmp_path, fmt, offset, value, message
    ):
        # Header: magic (8) | u32 version | u8 codec | u8 level (13) | u16 reserved (14)
        # The fields are checked before the checksum, so a bad one is named;
        # a level still in 0-9 is caught by the checksum.
        _, good, _ = small_file
        data = bytearray(good)
        struct.pack_into(fmt, data, offset, value)
        bad = tmp_path / "bad-header.sesscol"
        bad.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=message):
            open_table(bad)

    @pytest.mark.parametrize(
        "schema",
        [
            b"[]",
            b"\xff",
            b'{"keys": ["f", "g"]}',
            b'{"keys": "fg", "feature_specs": null}',
            b'{"keys": ["f", "f"], "feature_specs": null}',
            b'{"keys": ["f", 1], "feature_specs": null}',
            b'{"keys": ["f", "g"], "feature_specs": [{"key": "g"}, {"key": "f"}]}',
            b'{"keys": ["f", "g"], "feature_specs": [1, 2]}',
        ],
    )
    def test_schema_block_shape_checked(self, small_file, tmp_path, schema):
        # A schema block under a valid checksum that no writer produces
        # still raises StorageError only.
        path, good, rows = small_file
        bad = tmp_path / "bad-schema.sesscol"
        _with_schema(path, good, b'{"keys":["f","g"],"feature_specs":null}', bad)
        assert _row_tuples(scan(open_table(bad), 4)) == rows
        _with_schema(path, good, schema, bad)
        with pytest.raises(StorageError):
            open_table(bad)

    @pytest.mark.parametrize(
        "schema, message",
        [
            (b'{"keys": ["f", "f"], "feature_specs": null}', "feature 'f' is listed twice in schema keys$"),
            (
                b'{"keys": "fg", "feature_specs": null}',
                "schema keys must be a list of feature names, got 'fg'$",
            ),
            (b'{"keys": ["f", 1], "feature_specs": null}', "schema keys must hold feature names, got 1$"),
            (
                b'{"keys": ["f", "g"], "feature_specs": [{"key": "g"}, {"key": "f"}]}',
                r"schema feature specs name keys \['g', 'f'\], not its keys \['f', 'g'\]$",
            ),
        ],
        ids=["repeat", "string", "non-string", "spec-order"],
    )
    def test_schema_key_faults_named(self, small_file, tmp_path, schema, message):
        path, good, _ = small_file
        bad = tmp_path / "bad-schema.sesscol"
        _with_schema(path, good, schema, bad)
        with pytest.raises(StorageError, match=message):
            open_table(bad)

    @pytest.mark.parametrize("delta, message", [(50, "truncated stream body"), (-1, "past the last stream")])
    def test_stream_sizes_checks_stream_framing(self, small_file, tmp_path, delta, message):
        # Change the last stream's comp_len in stripe 0: its body then runs
        # into stripe 1, or stops short of the stripe's end.
        path, good, _ = small_file
        f = open_table(path)
        data = bytearray(good)
        pos = f.stripes[0].offset + 4
        for _ in range(3 + 2 * len(f.feature_keys) - 1):
            pos += 8 + struct.unpack_from("<I", data, pos + 4)[0]
        (comp_len,) = struct.unpack_from("<I", data, pos + 4)
        struct.pack_into("<I", data, pos + 4, comp_len + delta)
        bad = tmp_path / "bad-frame.sesscol"
        bad.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=f"stripe 0: .*{message}"):
            stream_sizes(open_table(bad))
        with pytest.raises(StorageError, match="stripe 0"):
            read_stripe(open_table(bad), 0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corruption_raises_only_storage_error(self, small_file, data):
        """A truncated file, or any damage to the header (the bytes before
        the first stripe, all under its checksum), always raises. Any other
        damage raises StorageError, or leaves every row intact (deflate's
        padding bits are unchecked)."""
        _corrupt_and_scan(*small_file, data)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_wide_value_corruption_raises_only_storage_error(self, wide_file, data):
        """The same damage, and the same rule for the header, on a file
        written without feature specs whose streams take the codec's
        per-byte-position path, whose ``wide`` rows refer back to their
        sessions' earlier rows."""
        _corrupt_and_scan(*wide_file, data)


def _marked_stripes(path):
    """How many (stripe, feature) pairs of a file hold repeat marks."""
    f = open_table(path)
    stripes = (read_stripe(f, i) for i in range(len(f.stripes)))
    return sum(isinstance(jt, RunJaggedTensor) for b in stripes for jt in b.features.entries.values())


def _stored_streams(path):
    """The decoded (lengths, values) streams of each feature in each
    stripe, as stored: one dict by key per stripe."""
    f = open_table(path)
    data = path.read_bytes()
    out = []
    for info in f.stripes:
        buf = memoryview(data[info.offset : info.offset + info.byte_size])
        rows, pos = info.row_count, 4
        for _ in range(3):
            _, pos = storage._read_stream(buf, pos, "stripe", rows)
        streams = {}
        for key in f.feature_keys:
            lengths, pos = storage._read_stream(buf, pos, "stripe", rows)
            values, pos = storage._read_stream(buf, pos, "stripe", int(lengths[lengths >= 0].sum()))
            streams[key] = (lengths.tolist(), values.tolist())
        out.append(streams)
    return out


def _feature_streams(path):
    """The stored (lengths, values) streams of feature ``f`` in each stripe."""
    return [streams["f"] for streams in _stored_streams(path)]


def _session_resolved_stripes(path):
    """How many (stripe, feature) pairs of a file hold a -1 whose session
    predecessor is not the row before it (whose session differs)."""
    f = open_table(path)
    count = 0
    for ordinal, streams in enumerate(_stored_streams(path)):
        sids = read_stripe(f, ordinal).session_ids
        for lengths, _ in streams.values():
            marks = np.flatnonzero(np.array(lengths) == -1)
            count += bool((sids[marks - 1] != sids[marks]).any())
    return count


def _raw_bytes(stream):
    """The bytes a stream of ints takes before compression."""
    return len(encode_varints(np.array(stream, dtype=np.int64)))


def _marks_by_session(rows, sessions, stripe_rows):
    """The lengths streams a writer stores for ``rows`` (lists of one
    feature) with session ids ``sessions``, unclustered: per stripe, -1
    for a row equal to the previous row of its session in the stripe,
    else the row's length."""
    out = []
    for start in range(0, len(rows), stripe_rows):
        last, lengths = {}, []
        for row, sid in zip(rows[start : start + stripe_rows], sessions[start : start + stripe_rows]):
            lengths.append(-1 if last.get(sid) == list(row) else len(row))
            last[sid] = list(row)
        out.append(lengths)
    return out


A, B, C = [1, 2, 3], [4], [1, 2, 4]


def _rows(*lists, key="f"):
    return [{key: row} for row in lists]


def _with_sessions(rows, sessions=None) -> ScanBatch:
    """Feature dicts as a table whose rows have the session ids
    ``sessions`` (all 0 if None)."""
    table = as_batch(rows)
    if sessions is None:
        return table
    return ScanBatch(np.array(sessions, dtype=np.int64), table.timestamps, table.labels, table.features)


def _check_scanned_groups(path, rows, group, stripe_rows, batch_size, sessions=None):
    """Write ``rows`` (feature dicts) unclustered, scan them back in
    ``batch_size`` batches, and check each batch's IKJT of ``group``
    against the same rows laid out: ``build_ikjt`` over them and the
    padded oracle. Also check the laid-out rows against ``rows``.
    ``sessions`` gives each row's session id (all 0 by default). Returns
    how many (batch, feature) pairs were read as heads."""
    write_table(_with_sessions(rows, sessions), path, stripe_rows=stripe_rows)
    f = open_table(path)
    runs = start = 0
    for batch in scan(f, batch_size):
        runs += sum(isinstance(jt, RunJaggedTensor) for jt in batch.features.entries.values())
        keys = batch.features.keys
        plain = ScanBatch(batch.session_ids, batch.timestamps, batch.labels, tensors.build_kjt(batch, keys))
        laid_out = plain.features
        assert all(type(jt) is JaggedTensor for jt in laid_out.entries.values())
        for key, jt in laid_out.entries.items():
            assert to_pylists(jt) == [list(r[key]) for r in rows[start : start + len(batch)]]
        got, want = build_ikjt(batch, group), build_ikjt(plain, group)
        first, inverse = tensors._unique_rows_padded([laid_out.entries[k] for k in group])
        np.testing.assert_array_equal(got.inverse_lookup, want.inverse_lookup)
        np.testing.assert_array_equal(got.inverse_lookup, inverse)
        for key in group:
            assert jt_equal(got.per_feature[key], want.per_feature[key])
            assert jt_equal(got.per_feature[key], jagged_index_select(laid_out.entries[key], first))
        start += len(batch)
    assert start == len(rows)
    return runs


class TestRunMarks:
    """Rows of one session: a row equal to the row before it in its
    stripe is stored as length -1 and no values; the reader keeps such a
    feature as run heads and ``build_ikjt`` keys the heads only."""

    def test_repeats_stored_as_one_length_mark(self, tmp_path):
        path = tmp_path / "marks.sesscol"
        write_table(as_batch(_rows(A, A, [], [], B, A, A, A)), path, stripe_rows=4)
        assert _feature_streams(path) == [([3, -1, 0, -1], A), ([1, 3, -1, -1], B + A)]

    def test_stripe_without_repeats_reads_as_plain_rows(self, tmp_path):
        path = tmp_path / "plain.sesscol"
        write_table(as_batch(_rows(A, B, A, C)), path)
        assert _feature_streams(path) == [([3, 1, 3, 3], A + B + A + C)]
        assert type(read_stripe(open_table(path), 0).features.entries["f"]) is JaggedTensor

    @pytest.mark.parametrize(
        "rows, group, stripe_rows, batch_size, marked",
        [
            (_rows(A, B) * 6, ("f",), 5, 4, False),
            (_rows(A, A, B, B) * 6, ("f",), 7, 5, True),
            (_rows(*[A] * 20), ("f",), 20, 8, True),
            (_rows([], [], [], B, B, [], [], [], A, []), ("f",), 4, 3, True),
            (_rows(A, B, C, A) * 4, ("f",), 1, 3, False),
            (
                [{"f": f, "g": g} for f, g in zip([A, A, A, B, B, B, B, A], [B, C, C, C, C, [], [], []])],
                ("f", "g"),
                8,
                8,
                True,
            ),
            (
                [{"f": A, "g": [i]} for i in range(6)] + [{"f": B, "g": [5]}] * 3,
                ("f", "g"),
                9,
                4,
                True,
            ),
        ],
        ids=[
            "abab-no-adjacent-repeat",
            "aabb-heads-repeat",
            "all-repeats",
            "empty-rows-repeat",
            "one-row-stripes",
            "two-keys-heads-differ",
            "one-member-without-marks",
        ],
    )
    def test_adversarial_runs(self, tmp_path, rows, group, stripe_rows, batch_size, marked):
        runs = _check_scanned_groups(tmp_path / "runs.sesscol", rows, group, stripe_rows, batch_size)
        assert (runs > 0) == marked

    def test_runs_cross_stripe_and_batch_boundaries(self, tmp_path):
        rng = np.random.default_rng(3)
        pool = [A, B, C, [], [7, 7]]
        rows = [
            {"f": pool[p], "g": [p % 2]} for p in rng.integers(0, 5, 60) for _ in range(rng.integers(1, 12))
        ]
        assert len(rows) > 200
        runs = _check_scanned_groups(tmp_path / "cross.sesscol", rows, ("f", "g"), 100, 64)
        assert runs > 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_runs_match_laid_out_rows(self, tmp_path_factory, data):
        value = st.lists(st.integers(-2, 2), max_size=3)
        pool = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=4))
        run = st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 6))
        picks = data.draw(st.lists(run, min_size=1, max_size=12))
        rows = [{"f": pool[p][0], "g": pool[p][1]} for p, n in picks for _ in range(n)]
        group = data.draw(st.sampled_from([("f",), ("g", "f")]))
        stripe_rows = data.draw(st.integers(1, 20))
        batch_size = data.draw(st.integers(1, 20))
        path = tmp_path_factory.mktemp("runs") / "runs.sesscol"
        _check_scanned_groups(path, rows, group, stripe_rows, batch_size)

    def test_fuzzed_files_hold_repeat_marks(self, small_file, wide_file):
        # so that the corruption tests' bit flips reach the length marks
        assert _marked_stripes(small_file[0]) >= 3
        assert _marked_stripes(wide_file[0]) >= 3
        assert any(-1 in lengths for streams in _stored_streams(small_file[0]) for lengths, _ in streams.values())

    @pytest.mark.parametrize(
        "lengths, values, message",
        [
            ([1, -2], [5], "negative row length -2 at row 1$"),
            ([2, -1, 1, -9], [5, 6, 7], "negative row length -9 at row 3$"),
            ([2, -1, 1], [5, 6], "stream length 2 cannot hold 3 varints$"),
            ([2, -1, 1], [5, 6, 5, 6, 7], "corrupt varints: expected 3 varints, found 5$"),
        ],
        ids=["minus-two", "minus-nine-last", "values-short", "repeat-values-stored"],
    )
    def test_corrupt_marks_name_stripe_and_feature(self, tmp_path, lengths, values, message):
        path = tmp_path / "bad-marks.sesscol"
        write_raw_stripe(path, lengths, values)
        with pytest.raises(StorageError, match="^stripe 0: feature 'f': " + message):
            read_stripe(open_table(path), 0)


def _interleaved_table(seed=4):
    """Rows of 12 interleaved sessions whose features hold 0-3 IDs, where
    about half the rows repeat their session's previous row; timestamps
    tie, so clustering's stable sort matters."""
    rng = np.random.default_rng(seed)
    last, records = {}, []
    for ts in range(150):
        sid = int(rng.integers(0, 12))
        if sid not in last or rng.random() < 0.5:
            last[sid] = {k: rng.integers(0, 9, size=rng.integers(0, 4)) for k in ("a", "b")}
        records.append(ImpressionRecord(sid, int(rng.integers(0, 50)), last[sid], ts % 2))
    return as_batch(records)


def _sequential_file(table, stripe_rows, clustering, level, header):
    """The bytes of ``table`` written as a file, assembled one stripe and
    one stream at a time with ``storage._pack_stream``; each feature's
    marks come from :func:`_marks_by_session`."""
    records = as_records(table)
    if clustering == "by_session":
        records = [records[i] for i in np.lexsort((table.timestamps, table.session_ids))]
    out, index = bytearray(header), []
    for start in range(0, len(records), stripe_rows):
        chunk = records[start : start + stripe_rows]
        sids = [r.session_id for r in chunk]
        streams = [sids, [r.timestamp for r in chunk], [r.label for r in chunk]]
        for key in table.features.keys:
            rows = [r.features[key].tolist() for r in chunk]
            (lengths,) = _marks_by_session(rows, sids, len(chunk))
            streams += [lengths, [v for row, n in zip(rows, lengths) if n >= 0 for v in row]]
        index.append((len(out), len(chunk)))
        out += struct.pack("<I", len(chunk))
        for stream in streams:
            out += storage._pack_stream(np.array(stream, dtype=np.int64), level)
    footer = struct.pack("<I", len(index)) + b"".join(struct.pack("<QI", *entry) for entry in index)
    return bytes(out) + footer + struct.pack("<Q", len(out)) + MAGIC


class TestPipelinedWrite:
    """``write_table`` deflates one stripe ahead on worker threads; the
    file must be the one a sequential writer would make."""

    @pytest.mark.parametrize("level", [0, 9])
    @pytest.mark.parametrize("clustering", ["none", "by_session"])
    @pytest.mark.parametrize("stripe_rows", [1, 7, 4096])
    def test_bytes_equal_stripes_packed_in_order(self, tmp_path, stripe_rows, clustering, level):
        table = _interleaved_table()
        path = tmp_path / "p.sesscol"
        f = write_table(table, path, stripe_rows=stripe_rows, clustering=clustering, level=level)
        data = path.read_bytes()
        stored = [lengths for streams in _stored_streams(path) for lengths, _ in streams.values()]
        assert any(0 in lengths for lengths in stored)
        assert any(-1 in lengths for lengths in stored) == (stripe_rows > 1)  # a lone row has no predecessor
        header = data[: f.stripes[0].offset]
        assert data == _sequential_file(table, stripe_rows, clustering, level, header)

    @pytest.mark.parametrize(
        "step, fails",
        [
            # stripe 2 is the only one whose session id stream is 2, 2, 2
            ("_deflate", lambda raw, level: raw == encode_varints(np.full(3, 2))),
            ("_session_order", lambda session_ids: session_ids[0] == 2),
        ],
        ids=["deflate-on-a-worker", "encode-on-the-caller"],
    )
    def test_failure_names_its_stripe_and_stops_the_workers(self, tmp_path, monkeypatch, step, fails):
        rows = [ImpressionRecord(i // 3, i, {"f": np.array([10 + i])}, 0) for i in range(15)]
        real = getattr(storage, step)

        def failing(*args):
            if fails(*args):
                raise ValueError("disk on fire")
            return real(*args)

        monkeypatch.setattr(storage, step, failing)
        with pytest.raises(StorageError, match="^stripe 2: write failed: disk on fire$") as err:
            write_table(as_batch(rows), tmp_path / "fail.sesscol", stripe_rows=3)
        assert type(err.value.__cause__) is ValueError
        assert not [t for t in threading.enumerate() if t.name.startswith("write_table")]

    def test_earlier_stripe_failure_is_raised_first(self, tmp_path, monkeypatch):
        # stripe 2's deflate fails late, after stripe 3's encoding has failed
        rows = [ImpressionRecord(i // 3, i, {"f": np.array([10 + i])}, 0) for i in range(15)]
        deflate, session_order = storage._deflate, storage._session_order
        stripe_3_failed = threading.Event()

        def failing_deflate(raw, level):
            if raw == encode_varints(np.full(3, 2)):
                stripe_3_failed.wait(5)
                raise ValueError("stripe 2 deflate")
            return deflate(raw, level)

        def failing_order(session_ids):
            if session_ids[0] == 3:
                stripe_3_failed.set()
                raise ValueError("stripe 3 encode")
            return session_order(session_ids)

        monkeypatch.setattr(storage, "_deflate", failing_deflate)
        monkeypatch.setattr(storage, "_session_order", failing_order)
        with pytest.raises(StorageError, match="^stripe 2: write failed: stripe 2 deflate$"):
            write_table(as_batch(rows), tmp_path / "fail.sesscol", stripe_rows=3)
        assert not [t for t in threading.enumerate() if t.name.startswith("write_table")]


def _session_rows(pairs):
    """(session id, ``f`` list) pairs as feature dicts and session ids."""
    return [{"f": f} for _, f in pairs], [sid for sid, _ in pairs]


_ORPHAN = "which has no earlier row of its session"


class TestBackReferences:
    """A row equal to the previous row of its own session in the stripe
    is stored as -1, wherever that row is: the mark refers back to it.
    Nothing else is marked."""

    def test_session_repeats_stored_as_back_references(self, tmp_path):
        path = tmp_path / "back.sesscol"
        rows = _session_rows([(1, A), (2, B), (1, A), (3, A), (2, C), (1, A), (2, [])])
        write_table(_with_sessions(*rows), path)
        # rows 2 and 5 repeat session 1's row 0; row 3 equals the row
        # before it, but that row is another session's
        assert _feature_streams(path) == [([3, 1, -1, 3, 3, -1, 0], A + B + A + C)]
        stripe = read_stripe(open_table(path), 0).features.entries["f"]
        assert stripe.head_index.tolist() == [0, 1, 0, 2, 3, 0, 4]

    def test_empty_rows_refer_back_like_any_row(self, tmp_path):
        path = tmp_path / "empty.sesscol"
        write_table(_with_sessions(*_session_rows([(1, []), (2, B), (1, []), (2, B), (3, [])])), path)
        assert _feature_streams(path) == [([0, 1, -1, -1, 0], B)]

    def test_slice_after_a_head_it_uses(self, tmp_path):
        # rows 3 and 4 refer to rows 1 and 0, so the second batch of 3
        # starts after both heads it uses
        rows, sessions = _session_rows([(1, A), (2, B), (3, C), (2, B), (1, A)])
        path = tmp_path / "slice.sesscol"
        assert _check_scanned_groups(path, rows, ("f",), 5, 3, sessions) == 2
        assert _feature_streams(path) == [([3, 1, 3, -1, -1], A + B + C)]
        second = list(scan(open_table(path), 3))[1].features.entries["f"]
        assert to_pylists(second.heads) == [B, A]
        assert second.head_index.tolist() == [0, 1]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_interleavings_match_laid_out_rows(self, tmp_path_factory, data):
        # small pools, so that A B A rows, empty rows and repeats that
        # cross stripe and batch boundaries all occur
        value = st.lists(st.integers(-2, 2), max_size=3)
        pool = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=4))
        row = st.tuples(st.integers(0, 3), st.integers(0, len(pool) - 1))
        picks = data.draw(st.lists(row, min_size=1, max_size=40))
        rows = [{"f": pool[p][0], "g": pool[p][1]} for _, p in picks]
        sessions = [sid for sid, _ in picks]
        group = data.draw(st.sampled_from([("f",), ("g", "f")]))
        stripe_rows = data.draw(st.integers(1, 20))
        batch_size = data.draw(st.integers(1, 20))
        path = tmp_path_factory.mktemp("back") / "back.sesscol"
        _check_scanned_groups(path, rows, group, stripe_rows, batch_size, sessions)
        for key in ("f", "g"):
            stored = [streams[key][0] for streams in _stored_streams(path)]
            assert stored == _marks_by_session([r[key] for r in rows], sessions, stripe_rows)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_marks_ignore_how_sessions_interleave(self, tmp_path_factory, data):
        # any order that keeps each session's rows in order stores the
        # same rows: the same count and raw bytes per feature
        value = st.lists(st.integers(-2, 2), max_size=3)
        pool = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=3))
        picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6)
        sessions = data.draw(st.lists(picks, min_size=1, max_size=5))
        tags = [sid for sid, picked in enumerate(sessions) for _ in picked]
        sizes = []
        for sids in (tags, data.draw(st.permutations(tags))):
            taken = [iter(picked) for picked in sessions]
            rows = [{"f": pool[p][0], "g": pool[p][1]} for p in (next(taken[sid]) for sid in sids)]
            path = tmp_path_factory.mktemp("order") / "order.sesscol"
            write_table(_with_sessions(rows, sids), path)
            (streams,) = _stored_streams(path)
            sizes.append({
                key: (sum(n >= 0 for n in lengths), _raw_bytes(lengths) + _raw_bytes(values))
                for key, (lengths, values) in streams.items()
            })
        assert sizes[0] == sizes[1]

    def test_fuzzed_files_hold_back_references(self, small_file, wide_file):
        # so that the corruption tests' bit flips reach -1 marks that the
        # reader resolves through the session order
        assert _session_resolved_stripes(small_file[0]) >= 3
        assert _session_resolved_stripes(wide_file[0]) >= 3

    @pytest.mark.parametrize(
        "lengths, values, sessions, message",
        [
            ([-1, 1], [5], [0, 0], f"negative row length -1 at row 0, {_ORPHAN}$"),
            ([1, 1, -1], [5, 6], [0, 0, 1], f"negative row length -1 at row 2, {_ORPHAN}$"),
            ([-2, 1], [5], [0, 0], "negative row length -2 at row 0$"),
            ([1, -2, -1], [5], [0, 0, 0], "negative row length -2 at row 1$"),
            ([1, -(2**63)], [5], [0, 0], f"negative row length {-(2**63)} at row 1$"),
            ([2, -1, -1], [5, 6], [3, 3, 1], f"negative row length -1 at row 2, {_ORPHAN}$"),
            ([1, 1, -3], [5, 6], [0, 1, 0], "negative row length -3 at row 2$"),
        ],
        ids=[
            "repeat-at-row-0",
            "at-a-second-session-start",
            "at-row-0-minus-two",
            "before-a-valid-repeat",
            "int64-min",
            "lone-row-of-its-session",
            "minus-three-after-its-session",
        ],
    )
    def test_corrupt_back_references_name_stripe_feature_and_row(
        self, tmp_path, lengths, values, sessions, message
    ):
        path = tmp_path / "bad-back.sesscol"
        write_raw_stripe(path, lengths, values, sessions)
        with pytest.raises(StorageError, match="^stripe 0: feature 'f': " + message):
            read_stripe(open_table(path), 0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_lengths_read_as_marked_or_rejected(self, tmp_path_factory, data):
        # a stripe whose lengths hold any marks, sound or not: it reads as
        # the rows the marks describe, or raises StorageError, and nothing
        # else
        lengths = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=10))
        sessions = data.draw(st.lists(st.integers(0, 3), min_size=len(lengths), max_size=len(lengths)))
        values = list(range(sum(n for n in lengths if n > 0)))
        path = tmp_path_factory.mktemp("marks") / "marks.sesscol"
        write_raw_stripe(path, lengths, values, sessions)
        expected, last, taken = [], {}, iter(values)
        for n, sid in zip(lengths, sessions):
            if n >= 0:
                last[sid] = [next(taken) for _ in range(n)]
            elif n < -1 or sid not in last:
                expected = None
                break
            expected.append(last[sid])
        try:
            got = read_stripe(open_table(path), 0).features.entries["f"]
        except StorageError:
            assert expected is None
            return
        assert to_pylists(expand_runs(got)) == expected


def _golden_configs():
    """Small configs for the byte pins: the default feature mix, and one
    whose every draw is variable-length (fractional user-sequence lengths
    in one sync group, fractional and sub-1 item lengths) over one-sample
    sessions (no mutation coins), an empirical histogram and a geometric
    mean."""
    configs = {"default": default_config(num_sessions=300)}
    user = dict(kind="user_sequence", vocab_size=500, change_prob=0.3, sync_group="g")
    specs = [
        FeatureSpec(key="u55", avg_len=5.5, **user),
        FeatureSpec(key="u225", avg_len=2.25, **user),
        FeatureSpec(key="i04", kind="item", avg_len=0.4, vocab_size=50),
        FeatureSpec(key="i37", kind="item", avg_len=3.7, vocab_size=50),
    ]
    for name, dist in {
        "fixed1": SampleCountDist(kind="fixed", mean=1),
        "empirical": SampleCountDist(kind="empirical", histogram={1: 1.0, 3: 2.0, 7: 0.5}),
        "geometric": SampleCountDist(kind="geometric", mean=4.0),
    }.items():
        configs[name] = (SessionConfig(num_sessions=700, samples_per_session=dist), specs)
    return configs


def _golden_digests(tmp_path):
    """sha256 of every file and stdout the CLI writes for the golden
    configs on seeds 0 and 1: ``gen`` in both clusterings, then
    ``cluster`` and ``characterize`` of the unclustered file, plus the
    :func:`rows.column_digest` of each ``.sesscol`` file's rows and, for
    each file clustered by session, the sha256 of its bytes after the
    header. The varied configs use ``--stripe-rows 333``, which divides
    none of their row counts."""
    import hashlib

    from sessiondedup.cli import DATA_DIR_ENV, main

    out = {}

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    def run(tag, argv, written):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([str(a) for a in argv]) == 0
        out[f"{tag}.stdout"] = sha(stdout.getvalue().encode())
        data = (tmp_path / written).read_bytes()
        out[tag] = sha(data)
        if written.endswith(".sesscol"):
            f = open_table(tmp_path / written)
            out[f"{tag}.columns"] = column_digest(next(scan(f, f.row_count)))
            if not tag.endswith("-none"):
                out[f"{tag}.body"] = sha(data[f.stripes[0].offset :])

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        mp.delenv(DATA_DIR_ENV, raising=False)
        for name, (cfg, specs) in _golden_configs().items():
            save_config(tmp_path / f"{name}.json", cfg, specs)
            stripes = [] if name == "default" else ["--stripe-rows", 333]
            for seed in (0, 1):
                tag = f"{name}-s{seed}"
                for mode in ("none", "by_session"):
                    path = f"{tag}-{mode}.sesscol"
                    gen = ["gen", "--config", f"{name}.json", "--seed", seed, "--clustering", mode]
                    run(f"{tag}-gen-{mode}", [*gen, "--out", path, *stripes], path)
                raw = f"{tag}-none.sesscol"
                run(f"{tag}-cluster", ["cluster", raw, "--out", f"{tag}-c.sesscol", *stripes], f"{tag}-c.sesscol")
                csv = f"{tag}.csv"
                run(f"{tag}-characterize", ["characterize", raw, "--batch-size", 256, "--out", csv], csv)
    return out


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return _golden_digests(tmp_path_factory.mktemp("golden"))


GOLDEN_DIGESTS = {
    "default-s0-gen-none.stdout": "70334549e5205919d6e6157ed3a349626031e75b2d1a45dc59b333ac8305314e",
    "default-s0-gen-none": "d3c7d0a6161843a8b9197a7aed99d4ba5be29664fba0dc2d3a33f532806aebbe",
    "default-s0-gen-none.columns": "19f88191e7fcc93d9268a5bb291900cb3f3b5f2447bc1762c81bc606d5797bc0",
    "default-s0-gen-by_session.stdout": "d37a8bd7e8bbe2fb4b85eb7bade5ce7e53b0b8ede81e08b726e19b18bce90889",
    "default-s0-gen-by_session": "e871b673b7306d08883b5e961b1f623449f74a61ebf5af9ca123b202cb2cff70",
    "default-s0-gen-by_session.columns": "7beca8b792b71d1690dc3a546052f68730c57b011391893d11e0255661dca517",
    "default-s0-gen-by_session.body": "73f94add424ea0ada785e6639726deb3c5b1d395b609ff0f327a61ffdd5bafcb",
    "default-s0-cluster.stdout": "9f9f3a32841ad71b79113bdf72dce2212af008075514f7171bef44d5bc1900ca",
    "default-s0-cluster": "e871b673b7306d08883b5e961b1f623449f74a61ebf5af9ca123b202cb2cff70",
    "default-s0-cluster.columns": "7beca8b792b71d1690dc3a546052f68730c57b011391893d11e0255661dca517",
    "default-s0-cluster.body": "73f94add424ea0ada785e6639726deb3c5b1d395b609ff0f327a61ffdd5bafcb",
    "default-s0-characterize.stdout": "099c4c411d64cf9e04deea850adc5bd81e22cfed3aa2ce7c38d4d636dcf0dfec",
    "default-s0-characterize": "ce7303521d86f89cbb0eb232dcc68f9cd550dfd1c13f88352204ab0bc7ab6cca",
    "default-s1-gen-none.stdout": "c6f6acbd3a150e568f6e738bad628c96d4762f0e9601bb75f7ee7737b881377b",
    "default-s1-gen-none": "acd0d61c6a9823bbdcb4f2288c3b3a6401c36b8657afc951bab6a2ac3fdc306e",
    "default-s1-gen-none.columns": "c9fa3471b85f7445f1bb1ba05030ac95656642692d3743bedafe454c0b9c548e",
    "default-s1-gen-by_session.stdout": "a64881547d96ce1045e60401e0d392ac839192f8978dba17458b708d5623a07d",
    "default-s1-gen-by_session": "41d66f105456520ce42cd82e02f647feee24cc47ace8b20dacee4270c30880f2",
    "default-s1-gen-by_session.columns": "bf1471a23b4fc8f7f20d58d0a9f70051ee859eef20d9647d27f5eeca5cd03b11",
    "default-s1-gen-by_session.body": "a06aad3c58cabdd4f1bef5b37198af1f02f5134371ea45c9cc8d8e2681262e40",
    "default-s1-cluster.stdout": "a2b24b6faf1457ef1a8b1813f3cee701d9ea665cb3ce91f3f62c4bb4ce096875",
    "default-s1-cluster": "41d66f105456520ce42cd82e02f647feee24cc47ace8b20dacee4270c30880f2",
    "default-s1-cluster.columns": "bf1471a23b4fc8f7f20d58d0a9f70051ee859eef20d9647d27f5eeca5cd03b11",
    "default-s1-cluster.body": "a06aad3c58cabdd4f1bef5b37198af1f02f5134371ea45c9cc8d8e2681262e40",
    "default-s1-characterize.stdout": "345dd73e1fd958177a9470bb14c8a752ddec20ab2a88a78628cabcb79fe590a8",
    "default-s1-characterize": "15c8c462332c530b5af4437519a309b0096e613fb72520afcd88b6c6e089d580",
    "fixed1-s0-gen-none.stdout": "c8892b5bb15823373cbf93c409a4f5f5ef0697aad0bc6a30c3d63fe69f185861",
    "fixed1-s0-gen-none": "599707ace4cedc656f766702e917dd52431684ac715dcbf0b3180249e9cd0a06",
    "fixed1-s0-gen-none.columns": "dccceb83dd1af1e0fe5ef96c4b5ca570ca9b4ef773a9ce99319f31993b74c19b",
    "fixed1-s0-gen-by_session.stdout": "7d017d5c02b820eabfcfcccb66956f3d384d3f98c9cbbe095a18bd1b96a2a272",
    "fixed1-s0-gen-by_session": "37927ce2c3e1cb3f3ae12c402188fdf403dc3744ce3f61f5767ec6f987c6d74e",
    "fixed1-s0-gen-by_session.columns": "c7cded80aea84decc95f21ef57b344c507ab6edaee99f0860057ea174205df05",
    "fixed1-s0-gen-by_session.body": "5506868a230b03e34659fc91d90ac922714d300ac95797bc4da24ece3ce0b24c",
    "fixed1-s0-cluster.stdout": "c7c2af577940d6470fea508243e9562bbf08ff919fe2c6ac3834339a1a49f84b",
    "fixed1-s0-cluster": "37927ce2c3e1cb3f3ae12c402188fdf403dc3744ce3f61f5767ec6f987c6d74e",
    "fixed1-s0-cluster.columns": "c7cded80aea84decc95f21ef57b344c507ab6edaee99f0860057ea174205df05",
    "fixed1-s0-cluster.body": "5506868a230b03e34659fc91d90ac922714d300ac95797bc4da24ece3ce0b24c",
    "fixed1-s0-characterize.stdout": "78e5b53f863f70ab9f8c36cb78d24c663ce56a80f8b23992168e409155d1401f",
    "fixed1-s0-characterize": "5471e742b48234bd2a104a49b825cf8c4fedfa92eaec51a33547954b58b6b113",
    "fixed1-s1-gen-none.stdout": "07c026fd0a6520ef31899b2af61d785f8f71741052391c09182e43c83527a355",
    "fixed1-s1-gen-none": "a66b53fb3b9d8ca3805b5ee7b2c459532ad8b8ca62261bbad55e0fe22c6fe05b",
    "fixed1-s1-gen-none.columns": "f628fa8bc343bba6abc20f10c939d6d40457075d5d09994f398de1e36da52c63",
    "fixed1-s1-gen-by_session.stdout": "5c0d08f79d41fbdc32f5d7e54ac14165f721844f63cc1dd30073a2226f9296ae",
    "fixed1-s1-gen-by_session": "f669587ff403cf8af1f0fdacff638e321ba06352b40a09e11061d32d84918f92",
    "fixed1-s1-gen-by_session.columns": "1163b1feaea3eb7a9bfeaacc8471e9c5cdb7829f652fa717757dd1705131c098",
    "fixed1-s1-gen-by_session.body": "9ffb8aa9397b7476fd41204bda0a294663aecd2177429722054b9603137c3ee3",
    "fixed1-s1-cluster.stdout": "10283377d0d71261b61f8367522aca93d131edf2de7221e6caa4979fcaee3456",
    "fixed1-s1-cluster": "f669587ff403cf8af1f0fdacff638e321ba06352b40a09e11061d32d84918f92",
    "fixed1-s1-cluster.columns": "1163b1feaea3eb7a9bfeaacc8471e9c5cdb7829f652fa717757dd1705131c098",
    "fixed1-s1-cluster.body": "9ffb8aa9397b7476fd41204bda0a294663aecd2177429722054b9603137c3ee3",
    "fixed1-s1-characterize.stdout": "3a5f61fa63bcc267b27ca27376bc275813ab890f14a6f040bff30d8f4f76c4c9",
    "fixed1-s1-characterize": "ccfb240b2bec71b2c48ef2b5298bea565ca6066fe132ca997feadb5e809befff",
    "empirical-s0-gen-none.stdout": "3f0f8c9c2464943564d55a64eb950c88fda078b5e51ffdd53c2270f738d9d98a",
    "empirical-s0-gen-none": "a1c75ea72ca4f881e86ab9beaf15e628a02dcd03c5ed064b93baa6c8f415aa85",
    "empirical-s0-gen-none.columns": "27405cadadb72b7ddf550e32890307094a8fc8d5f2091e413e4cd641a843884f",
    "empirical-s0-gen-by_session.stdout": "c0bb0ae02f59a1868cba084d42a215c0780c16e3d81794b91c3f480dfc14d5dd",
    "empirical-s0-gen-by_session": "ff061c0d1fd37552f3cd1ef7e4649d26237c658fcef07d7924932979e4038f8b",
    "empirical-s0-gen-by_session.columns": "20659db32331874c3a4fe774653fb6efd725c38518e72f83549f8358cf7370d6",
    "empirical-s0-gen-by_session.body": "5fda5214a52486a40dc0f5c501516ac67aa8a107a1a35212f33333c1a8c67b7a",
    "empirical-s0-cluster.stdout": "13dca8bdf6df80e46a2583e9be39f9e2bd7d1b2a2d2c7a183af10c32a6396f2e",
    "empirical-s0-cluster": "ff061c0d1fd37552f3cd1ef7e4649d26237c658fcef07d7924932979e4038f8b",
    "empirical-s0-cluster.columns": "20659db32331874c3a4fe774653fb6efd725c38518e72f83549f8358cf7370d6",
    "empirical-s0-cluster.body": "5fda5214a52486a40dc0f5c501516ac67aa8a107a1a35212f33333c1a8c67b7a",
    "empirical-s0-characterize.stdout": "75fa3ca3ff03a24798ef2f48c1cdede5f3e549d87fb4f35abda014818a889a02",
    "empirical-s0-characterize": "b076d176025f59ca89b82e2533053804fc55466f49b7c4c736783685327fd643",
    "empirical-s1-gen-none.stdout": "f8afc463538ca2f2e5b06c638f4a96cdf744f7e476a3910f06cec78510a16761",
    "empirical-s1-gen-none": "323ccfb864b1b0bc49f491c7777ae0940d5258305cf7206717c9145f41e21322",
    "empirical-s1-gen-none.columns": "609028efcf82ceffbb6ab3abddb3eb546fa3210e1bbce363df005e5fff908287",
    "empirical-s1-gen-by_session.stdout": "762114ce9c5ddf04ee3aa651e2fc32c7bea88909fc95d16d12b3ac364da7c383",
    "empirical-s1-gen-by_session": "10db3d6764c33e6fa653b36b9f2bb7cf8317b645718d896412d9ee64862c5fbd",
    "empirical-s1-gen-by_session.columns": "f3dddf1b9f68280a553c74da3ab3fbaf980ae0149bf41018d8ff2415735f51e2",
    "empirical-s1-gen-by_session.body": "bbef039957d08facea83f0c9b1a19cc12e99e0d02cd13a8aa51fbd102adb7b1b",
    "empirical-s1-cluster.stdout": "902f6efa35a892378153d5b9a2b58aa73ea08cd4ebd7faf5b6bad403bd7a5e66",
    "empirical-s1-cluster": "10db3d6764c33e6fa653b36b9f2bb7cf8317b645718d896412d9ee64862c5fbd",
    "empirical-s1-cluster.columns": "f3dddf1b9f68280a553c74da3ab3fbaf980ae0149bf41018d8ff2415735f51e2",
    "empirical-s1-cluster.body": "bbef039957d08facea83f0c9b1a19cc12e99e0d02cd13a8aa51fbd102adb7b1b",
    "empirical-s1-characterize.stdout": "150fb06d930714aaec02f5058b95d1bbbfb110b76afeb71073647017ad058cfe",
    "empirical-s1-characterize": "4e2e02ef0e9e2fa3b7361db03ff15a9559b1271766836a167e37f1bb21cdf970",
    "geometric-s0-gen-none.stdout": "bbf3837600bd8f667389f7c155009aad2322139d95a320454bf5f15b823453b8",
    "geometric-s0-gen-none": "65d523ea32f4f0ace5965192de2ec7f204e728f71f901e54f275eae5edb36383",
    "geometric-s0-gen-none.columns": "3c7997ca13ef0e31a06e43d5dd5ea4272de0029a5f69561a1df6b9984d315489",
    "geometric-s0-gen-by_session.stdout": "beb880b85468766dae5d9eaa1ee226d65820f45e680f8d68b144118e11ea8369",
    "geometric-s0-gen-by_session": "01b4d7f562f45c2c3bbb8ce870e0b63d82692e6d9b754c461f5565d66400e1a4",
    "geometric-s0-gen-by_session.columns": "5b26f73e11b7eb2b96c89dcd317e801c188cdb7b9a24bc7149d4cbab191ad116",
    "geometric-s0-gen-by_session.body": "ca0cf52207a2089cfb3177fe3bf430bff21bf9364ff595901d73679a485b8d23",
    "geometric-s0-cluster.stdout": "ff642924a4fb6a25dd35daf69349c963dc89f80a95f64c4c3aef5d81d9462c44",
    "geometric-s0-cluster": "01b4d7f562f45c2c3bbb8ce870e0b63d82692e6d9b754c461f5565d66400e1a4",
    "geometric-s0-cluster.columns": "5b26f73e11b7eb2b96c89dcd317e801c188cdb7b9a24bc7149d4cbab191ad116",
    "geometric-s0-cluster.body": "ca0cf52207a2089cfb3177fe3bf430bff21bf9364ff595901d73679a485b8d23",
    "geometric-s0-characterize.stdout": "eae238df10d844a87ab69c939ff7c56ded8b58482c79671112862b864131e597",
    "geometric-s0-characterize": "0bd88d9ce8c5c280877e622ce83f90cf107def92d796312985f31790c1a7d3ea",
    "geometric-s1-gen-none.stdout": "8cf21fc9b12e2e3c88d01b5f2285d0f78578a09f7cbf190c281118b6e5da5963",
    "geometric-s1-gen-none": "3ef7f0a24e275b1b12118f991610716e6af80065e12454c7920e4c03f1b5193c",
    "geometric-s1-gen-none.columns": "c43e28a95e8354465de73a7d44b5e00db086b8eaa16d9de2ce408a9245dc98b9",
    "geometric-s1-gen-by_session.stdout": "c490593070fa6984e88eb6f60cfd2c9704beff8e0537bda148010e7d9b1fab08",
    "geometric-s1-gen-by_session": "3f81eaae74e50f36c06e8cb319914634be2b88527d94e9ccffc9fab101348c4a",
    "geometric-s1-gen-by_session.columns": "76deabb8de865c63b9553b322dbb4e987e43b259b9732526d717928177019443",
    "geometric-s1-gen-by_session.body": "f8a10baffa5b3e2f32a264a4972f7fb725a897532fd341e93057bc8526b525e6",
    "geometric-s1-cluster.stdout": "649b0b6449ac3e46112121f96ce8e63c229f1956c5bf1c1e960d6a0bb8eb1f34",
    "geometric-s1-cluster": "3f81eaae74e50f36c06e8cb319914634be2b88527d94e9ccffc9fab101348c4a",
    "geometric-s1-cluster.columns": "76deabb8de865c63b9553b322dbb4e987e43b259b9732526d717928177019443",
    "geometric-s1-cluster.body": "f8a10baffa5b3e2f32a264a4972f7fb725a897532fd341e93057bc8526b525e6",
    "geometric-s1-characterize.stdout": "daf4e054d28ad6433d1a6ce30ea07131df5127a897f6b0cd4b5b35783062f6be",
    "geometric-s1-characterize": "620f3157b28c86bad3afd2e32d32860a48675dd7f028f806ad14d84da9cf38d7",
}


class TestGoldenBytes:
    """The stdout and CSV digests, and the stripes of every file, were
    first taken from the record-based generator and writer. The file and
    ``gen`` stdout digests were re-taken when the header became version 2
    (a checksummed schema block that records the feature specs); the
    ``.columns`` digests of the files' rows were taken before that change
    and held through it. At version 3 (a row equal to the row before it
    is stored as one -1 length mark) the file digests, the ``gen`` stdout
    digests (which print the file size) and the ``cluster`` stdout
    digests (which printed compressed bytes) were re-taken; the 24
    ``.columns`` digests, the ``characterize`` stdout digests and the CSV
    digests held through it. The ``.body`` digests of the files clustered
    by session (their bytes after the header) were taken from the
    version-3 writer and held at version 4. Version 4 re-took the file
    digests, the ``gen`` stdout digests of the unclustered files, and the
    ``cluster`` stdout digests, which now print file bytes. Version 5 (a
    -1 refers to the row's session predecessor only) re-took the file
    digests, the ``gen`` stdout digests but the default clustered ones,
    the ``cluster`` stdout digests, and the ``.body`` digests of the
    varied configs, whose empty rows no longer repeat across sessions;
    the ``.columns``, ``characterize`` and default ``.body`` digests
    held."""

    def test_cli_outputs_match_pinned_digests(self, golden):
        digests = golden
        assert digests == GOLDEN_DIGESTS
        # cluster copies its source's specs, so its file is gen's by_session one
        for tag in {k.split("-gen-")[0] for k in digests if "-gen-" in k}:
            assert digests[f"{tag}-cluster"] == digests[f"{tag}-gen-by_session"]
