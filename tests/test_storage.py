"""Tests for the session-clustered columnar file format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessiondedup import storage
from sessiondedup.datagen import (
    FeatureSpec,
    ImpressionRecord,
    SampleCountDist,
    SessionConfig,
    generate_dataset,
    serialize_log_records,
)
from sessiondedup.storage import (
    MAGIC,
    StorageError,
    compression_report,
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
    return generate_dataset(cfg, specs)


def assert_same_records(got, expected):
    assert serialize_log_records(got) == serialize_log_records(expected)


class TestRoundTrip:
    @pytest.mark.parametrize("stripe_rows", [1, 7, 128, 100_000])
    def test_unclustered_preserves_order(self, records, tmp_path, stripe_rows):
        path = tmp_path / "t.sesscol"
        write_table(records, path, stripe_rows=stripe_rows)
        f = open_table(path)
        assert f.row_count == len(records)
        got = [r for batch in scan(f, 64) for r in batch.records]
        assert_same_records(got, records)

    @pytest.mark.parametrize("level", [0, 1, 6, 9])
    def test_levels_round_trip(self, records, tmp_path, level):
        path = tmp_path / f"l{level}.sesscol"
        write_table(records, path, level=level)
        got = [r for b in scan(open_table(path), 256) for r in b.records]
        assert_same_records(got, records)

    @pytest.mark.parametrize("level", [-1, 10, 300])
    def test_level_outside_range_rejected_before_writing(self, records, tmp_path, level):
        path = tmp_path / "bad-level.sesscol"
        with pytest.raises(StorageError, match="level"):
            write_table(records, path, level=level)
        assert not path.exists()

    def test_by_session_reorders_then_round_trips(self, records, tmp_path):
        path = tmp_path / "c.sesscol"
        write_table(records, path, clustering="by_session")
        got = [r for b in scan(open_table(path), 256) for r in b.records]
        expected = sorted(records, key=lambda r: (r.session_id, r.timestamp))
        assert_same_records(got, expected)

    def test_by_session_is_logically_stable(self, records, tmp_path):
        # clustering an already-clustered file must not change the rows
        p1 = tmp_path / "c1.sesscol"
        p2 = tmp_path / "c2.sesscol"
        write_table(records, p1, clustering="by_session")
        rows1 = [r for b in scan(open_table(p1), 512) for r in b.records]
        write_table(rows1, p2, clustering="by_session")
        rows2 = [r for b in scan(open_table(p2), 512) for r in b.records]
        assert_same_records(rows2, rows1)

    def test_write_is_deterministic(self, records, tmp_path):
        p1 = tmp_path / "a.sesscol"
        p2 = tmp_path / "b.sesscol"
        write_table(records, p1)
        write_table(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_record(self, tmp_path):
        from sessiondedup.datagen import ImpressionRecord

        one = [
            ImpressionRecord(
                session_id=5,
                timestamp=10,
                features={"f": np.array([1, 2], dtype=np.int64)},
                label=1,
            )
        ]
        path = tmp_path / "one.sesscol"
        write_table(one, path)
        got = read_stripe(open_table(path), 0).records
        assert_same_records(got, one)

    def test_empty_lists_survive(self, tmp_path):
        from sessiondedup.datagen import ImpressionRecord

        recs = [
            ImpressionRecord(0, 0, {"f": np.array([], dtype=np.int64)}, 0),
            ImpressionRecord(0, 1, {"f": np.array([3], dtype=np.int64)}, 0),
        ]
        path = tmp_path / "e.sesscol"
        write_table(recs, path)
        got = [r for b in scan(open_table(path), 2) for r in b.records]
        assert got[0].features["f"].size == 0
        np.testing.assert_array_equal(got[1].features["f"], [3])


class TestScan:
    def test_batch_sizes(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(records, path, stripe_rows=100)
        sizes = [len(b.records) for b in scan(open_table(path), 64)]
        assert all(s == 64 for s in sizes[:-1])
        assert sizes[-1] == len(records) - 64 * (len(sizes) - 1)

    def test_bytes_read_attribution(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        f = write_table(records, path, stripe_rows=100)
        total_stripe_bytes = sum(s.byte_size for s in f.stripes)
        scanned = sum(b.bytes_read for b in scan(open_table(path), 64))
        assert scanned == total_stripe_bytes

    def test_large_batch_spans_stripes(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(records, path, stripe_rows=10)
        batches = list(scan(open_table(path), len(records)))
        assert len(batches) == 1
        assert_same_records(batches[0].records, records)

    def test_invalid_batch_size(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(records, path)
        with pytest.raises(StorageError):
            next(scan(open_table(path), 0))


class TestValidation:
    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_table([], tmp_path / "x.sesscol")

    def test_bad_magic(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(records, path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTAFILE"
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="magic"):
            open_table(path)

    def test_truncated_file(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        write_table(records, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(StorageError):
            open_table(path)

    def test_corrupt_stripe_names_ordinal(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        f = write_table(records, path, stripe_rows=50)
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
        path = tmp_path / "t.sesscol"
        write_table(records, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(MAGIC), 99)
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="version"):
            open_table(path)

    def test_mismatched_schema_rejected(self, tmp_path):
        from sessiondedup.datagen import ImpressionRecord

        recs = [
            ImpressionRecord(0, 0, {"f": np.array([1], dtype=np.int64)}, 0),
            ImpressionRecord(0, 1, {"g": np.array([1], dtype=np.int64)}, 0),
        ]
        with pytest.raises(StorageError, match="schema"):
            write_table(recs, tmp_path / "x.sesscol")


class TestCompression:
    def test_clustering_improves_compression(self, records, tmp_path):
        pa = tmp_path / "plain.sesscol"
        pb = tmp_path / "clustered.sesscol"
        fa = write_table(records, pa, clustering="none")
        fb = write_table(records, pb, clustering="by_session")
        report = compression_report(fa, fb)
        assert report.relative_ratio > 1.0
        assert pb.stat().st_size < pa.stat().st_size

    def test_report_identities(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        f = write_table(records, path)
        raw, comp = stream_sizes(f)
        assert raw > comp > 0
        report = compression_report(f, f)
        assert report.ratio_a == report.ratio_b == raw / comp
        assert report.relative_ratio == 1.0

    def test_stream_sizes_sum_stripe_streams(self, records, tmp_path):
        path = tmp_path / "t.sesscol"
        f = write_table(records, path, stripe_rows=64)
        raw, comp = stream_sizes(f)
        # compressed stream payloads can't exceed the file size
        assert comp < path.stat().st_size
        assert raw > 0


def _row_tuples(batches):
    return [
        (r.session_id, r.timestamp, r.label, [a.tolist() for a in r.features.values()])
        for b in batches
        for r in b.records
    ]


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    recs = [
        ImpressionRecord(
            s,
            t,
            {"f": np.arange(t % 4, dtype=np.int64) + s, "g": np.array([s], dtype=np.int64)},
            t % 2,
        )
        for s in range(3)
        for t in range(6)
    ]
    path = tmp_path_factory.mktemp("fuzz") / "small.sesscol"
    write_table(recs, path, stripe_rows=5)
    return path, path.read_bytes(), _row_tuples(scan(open_table(path), 4))


class TestCorruption:
    def test_negative_row_length_rejected(self, tmp_path):
        # Lengths [-1, 5] sum to the 4 stored values, so the zlib, varint
        # and count checks all pass; only the length check can catch it.
        recs = [
            ImpressionRecord(0, t, {"f": np.array([7, 8], dtype=np.int64)}, 0)
            for t in range(2)
        ]
        path = tmp_path / "neg.sesscol"
        f = write_table(recs, path)
        start = f.stripes[0].offset
        streams = ([0, 0], [0, 1], [0, 0], [-1, 5], [7, 8, 7, 8])
        blob = struct.pack("<I", 2) + b"".join(
            storage._pack_stream(np.array(a, dtype=np.int64), f.level) for a in streams
        )
        footer = struct.pack("<IQIQ", 1, start, 2, start + len(blob)) + MAGIC
        path.write_bytes(path.read_bytes()[:start] + blob + footer)
        with pytest.raises(StorageError, match=r"stripe 0: feature 'f': negative row length"):
            list(scan(open_table(path), 2))

    @pytest.mark.parametrize(
        "fmt, offset, value, message",
        [("<B", 13, 200, "level 200"), ("<H", 14, 1, "reserved"), ("<H", 14, 0x8000, "reserved")],
        ids=["level", "reserved-low", "reserved-high"],
    )
    def test_header_level_and_reserved_checked(
        self, small_file, tmp_path, fmt, offset, value, message
    ):
        # Header: magic (8) | u32 version | u8 codec | u8 level (13) | u16 reserved (14)
        _, good, _ = small_file
        data = bytearray(good)
        struct.pack_into(fmt, data, offset, value)
        bad = tmp_path / "bad-header.sesscol"
        bad.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=message):
            open_table(bad)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corruption_raises_only_storage_error(self, small_file, data):
        """A truncated file always raises. Any other damage raises
        StorageError, or leaves every row intact (a level byte still in
        0-9, the key-name header bytes and deflate's padding bits are
        unchecked)."""
        path, good, rows = small_file
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
        assert got == rows
