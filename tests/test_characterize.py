"""Tests for dataset duplication characterization."""

from collections import Counter

import numpy as np
import pytest

from sessiondedup.characterize import (
    byte_weighted,
    compute_dup_stats,
    dup_stats_to_csv,
    exact_dup_pct,
    partial_dup_pct,
    session_histogram,
)
from rows import ImpressionRecord, as_batch, as_records
from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    generate_dataset,
)
from sessiondedup.storage import read_stripe, scan, write_table


def rec(sid, key_lists, ts=0):
    feats = {k: np.asarray(v, dtype=np.int64) for k, v in key_lists.items()}
    return ImpressionRecord(session_id=sid, timestamp=ts, features=feats, label=0)


def brute_exact_pct(records, key):
    """Quadratic oracle: a sample is a duplicate iff an earlier same-session
    sample carries the identical list (a repeated list yields len-1
    duplicates, which is what makes S identical samples score (S-1)/S)."""
    records = list(records)
    dup = 0
    for i, a in enumerate(records):
        for b in records[:i]:
            if a.session_id != b.session_id:
                continue
            if np.array_equal(a.features[key], b.features[key]):
                dup += 1
                break
    return 100.0 * dup / len(records) if records else 0.0


def brute_histogram(records, batch_size=None):
    """Samples-per-session value -> frequency, pooled over consecutive
    ``batch_size`` chunks (one chunk when None)."""
    step = batch_size or len(records)
    counts = Counter()
    for start in range(0, len(records), step):
        chunk = records[start : start + step]
        counts.update(Counter(r.session_id for r in chunk).values())
    return dict(sorted(counts.items()))


def as_columns(records, tmp_path):
    """The records written with 100-row stripes, unclustered and by
    session; each file read back as one ScanBatch and as its list of
    stripe batches, each paired with the file's rows as records."""
    out = []
    for clustering in ("none", "by_session"):
        path = tmp_path / f"{clustering}.sesscol"
        f = write_table(as_batch(records), path, stripe_rows=100, clustering=clustering)
        stripes = [read_stripe(f, i) for i in range(len(f.stripes))]
        rows = [r for b in stripes for r in as_records(b)]
        out += [(next(scan(f, f.row_count)), rows), (stripes, rows)]
    return out


def brute_partial_pct(records, key):
    """Quadratic oracle with multiset semantics: within a session, each ID
    value keeps one copy per "richest" sample; every other occurrence is a
    duplicate."""
    sessions = {}
    for r in records:
        sessions.setdefault(r.session_id, []).append(r.features[key])
    total = dup = 0
    for lists in sessions.values():
        counters = [Counter(arr.tolist()) for arr in lists]
        total += sum(sum(c.values()) for c in counters)
        values = set().union(*counters) if counters else set()
        for v in values:
            occ = [c[v] for c in counters]
            dup += sum(occ) - max(occ)
    return 100.0 * dup / total if total else 0.0


class TestExactDupPct:
    def test_never_updated_feature(self):
        # S identical samples per session leave S-1 duplicates each
        records = [rec(s, {"f": [1, 2, 3]}) for s in range(4) for _ in range(5)]
        assert exact_dup_pct(as_batch(records), "f") == pytest.approx(100 * 4 / 5)

    def test_max_rate_for_fractional_s(self):
        # half the sessions hold 16 samples, half 17: mean 16.5,
        # never-updated duplication = 15.5/16.5
        records = []
        for s in range(40):
            n = 16 if s % 2 == 0 else 17
            records.extend(rec(s, {"f": [s]}) for _ in range(n))
        assert exact_dup_pct(as_batch(records), "f") == pytest.approx(100 * 15.5 / 16.5)

    def test_all_distinct(self):
        records = [rec(0, {"f": [i]}) for i in range(10)]
        assert exact_dup_pct(as_batch(records), "f") == 0.0

    def test_cross_session_repeats_do_not_count(self):
        records = [rec(0, {"f": [7]}), rec(1, {"f": [7]})]
        assert exact_dup_pct(as_batch(records), "f") == 0.0

    def test_matches_brute_force(self, tmp_path):
        cfg = SessionConfig(
            num_sessions=50,
            samples_per_session=SampleCountDist(kind="geometric", mean=10.0),
            seed=23,
        )
        specs = [
            FeatureSpec(
                key="f",
                kind="user_sequence",
                avg_len=6,
                vocab_size=500,
                change_prob=0.1,
            )
        ]
        records = as_records(generate_dataset(cfg, specs))
        want = brute_exact_pct(records, "f")
        for rows in [as_batch(records), *(cols for cols, _ in as_columns(records, tmp_path))]:
            assert exact_dup_pct(rows, "f") == pytest.approx(want)

    def test_window_monotonicity(self):
        cfg = SessionConfig(
            num_sessions=30,
            samples_per_session=SampleCountDist(kind="geometric", mean=8.0),
            seed=29,
        )
        specs = [
            FeatureSpec(
                key="f",
                kind="user_sequence",
                avg_len=4,
                vocab_size=100,
                change_prob=0.3,
            )
        ]
        records = as_records(generate_dataset(cfg, specs))
        half = exact_dup_pct(as_batch(records[: len(records) // 2]), "f")
        assert exact_dup_pct(as_batch(records), "f") >= half


class TestPartialDupPct:
    def test_shifted_hundred_id_list(self):
        # 100-ID list shifted by one across two samples: 99 of 200
        # occurrences are repeats
        a = list(range(100))
        b = list(range(1, 101))
        records = [rec(0, {"f": a}), rec(0, {"f": b})]
        assert partial_dup_pct(as_batch(records), "f") == pytest.approx(49.5)

    def test_identical_pair_counts_surplus_occurrences(self):
        # two identical 100-ID samples: each value appears twice but one
        # copy per value is the canonical one, so half the occurrences
        # are duplicates
        a = list(range(100))
        records = [rec(0, {"f": a}), rec(0, {"f": a})]
        assert partial_dup_pct(as_batch(records), "f") == pytest.approx(50.0)

    def test_multiset_semantics_within_list(self):
        # [5, 5] vs [5]: the sample with two copies is canonical, the
        # lone occurrence elsewhere is the duplicate
        records = [rec(0, {"f": [5, 5]}), rec(0, {"f": [5]})]
        assert partial_dup_pct(as_batch(records), "f") == pytest.approx(100 / 3)

    def test_exact_never_exceeds_partial_on_generator_stream(self):
        cfg = SessionConfig(
            num_sessions=60,
            samples_per_session=SampleCountDist(kind="geometric", mean=12.0),
            seed=31,
        )
        specs = [
            FeatureSpec(
                key="f",
                kind="user_sequence",
                avg_len=8,
                vocab_size=10_000,
                change_prob=0.25,
            )
        ]
        records = as_records(generate_dataset(cfg, specs))
        assert partial_dup_pct(as_batch(records), "f") >= exact_dup_pct(as_batch(records), "f")

    def test_matches_brute_force(self, tmp_path):
        cfg = SessionConfig(
            num_sessions=40,
            samples_per_session=SampleCountDist(kind="geometric", mean=9.0),
            seed=37,
        )
        specs = [
            FeatureSpec(
                key="f",
                kind="user_sequence",
                avg_len=5,
                vocab_size=60,
                change_prob=0.4,
            )
        ]
        records = as_records(generate_dataset(cfg, specs))
        want = brute_partial_pct(records, "f")
        for rows in [as_batch(records), *(cols for cols, _ in as_columns(records, tmp_path))]:
            assert partial_dup_pct(rows, "f") == pytest.approx(want)


class TestByteWeighted:
    def test_single_feature_identity(self):
        records = [rec(0, {"f": [1, 2]}), rec(0, {"f": [1, 2]})]
        exact, partial = byte_weighted(as_batch(records), ["f"])
        assert exact == exact_dup_pct(as_batch(records), "f")
        assert partial == partial_dup_pct(as_batch(records), "f")

    def test_length_weighting_arithmetic(self):
        # feature short: avg_len 1, 0% duplication
        # feature long: avg_len 99, 50% duplication (identical pair)
        # blend = (1*0 + 99*50) / (1 + 99)
        records = [
            rec(0, {"short": [1], "long": list(range(99))}),
            rec(0, {"short": [2], "long": list(range(99))}),
        ]
        exact, partial = byte_weighted(as_batch(records), ["short", "long"])
        assert exact == pytest.approx(49.5)
        assert partial == pytest.approx(49.5)

    def test_repeated_key_rejected_before_counting(self, monkeypatch):
        # a repeated key would count twice in the blend
        import sessiondedup.characterize as charmod

        monkeypatch.setattr(charmod, "_columns", lambda *a: pytest.fail("counted"))
        records = [rec(0, {"f": [1], "g": [2]})]
        for fn in (byte_weighted, compute_dup_stats):
            with pytest.raises(ValueError, match=r"repeated: \['f'\]"):
                fn(as_batch(records), ["f", "g", "f"])


class TestSessionHistogram:
    def test_one_record_per_session(self):
        records = [rec(s, {"f": [1]}) for s in range(5)]
        hist = session_histogram(as_batch(records), window="partition")
        assert hist.mean == 1.0
        assert hist.counts == {1: 5}

    def test_partition_mean_matches_generator(self):
        cfg = SessionConfig(
            num_sessions=3000,
            samples_per_session=SampleCountDist(
                kind="empirical", histogram={16: 1.0, 17: 1.0}
            ),
            seed=41,
        )
        specs = [FeatureSpec(key="f", kind="item", avg_len=1, vocab_size=10)]
        records = as_records(generate_dataset(cfg, specs))
        hist = session_histogram(as_batch(records), window="partition")
        assert hist.mean == pytest.approx(16.5, rel=0.02)

    def test_batch_window_mean_near_one_when_interleaved(self):
        cfg = SessionConfig(
            num_sessions=4000,
            samples_per_session=SampleCountDist(kind="geometric", mean=16.0),
            seed=43,
        )
        specs = [FeatureSpec(key="f", kind="item", avg_len=1, vocab_size=10)]
        records = as_records(generate_dataset(cfg, specs))
        batch = session_histogram(as_batch(records), window="batch", batch_size=4096)
        partition = session_histogram(as_batch(records), window="partition")
        assert batch.mean < 2.0
        assert partition.mean == pytest.approx(16.0, rel=0.1)

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError):
            session_histogram([], window="hour")


@pytest.fixture(scope="module")
def stream():
    cfg = SessionConfig(
        num_sessions=80,
        samples_per_session=SampleCountDist(kind="geometric", mean=10.0),
        seed=47,
    )
    specs = [
        FeatureSpec(
            key="seq",
            kind="user_sequence",
            avg_len=16,
            vocab_size=5000,
            change_prob=0.15,
        ),
        FeatureSpec(key="item", kind="item", avg_len=2, vocab_size=5000),
    ]
    return generate_dataset(cfg, specs)


class TestDupStats:
    def test_stats_fields(self, stream):
        stats = compute_dup_stats(stream, ["seq", "item"])
        assert set(stats.per_feature) == {"seq", "item"}
        seq = stats.per_feature["seq"]
        assert 0 <= seq.exact_dup_pct <= seq.partial_dup_pct <= 100
        assert seq.exact_dup_pct > 50  # high-duplication user feature
        assert stats.per_feature["item"].exact_dup_pct < 5
        assert seq.avg_len == pytest.approx(16, rel=0.1)

    def test_byte_weighting_between_extremes(self, stream):
        stats = compute_dup_stats(stream, ["seq", "item"])
        lo = stats.per_feature["item"].exact_dup_pct
        hi = stats.per_feature["seq"].exact_dup_pct
        assert lo < stats.byte_weighted_exact_pct < hi
        # seq carries ~8x the bytes, so the blend sits near its rate
        assert stats.byte_weighted_exact_pct > 0.8 * hi

    def test_csv_round_trip(self, stream):
        stats = compute_dup_stats(stream, ["seq", "item"])
        lines = dup_stats_to_csv(stats).strip().split("\n")
        assert lines[0] == "feature,exact_dup_pct,partial_dup_pct,avg_len"
        parsed = {}
        for line in lines[1:]:
            key, exact, partial, avg_len = line.split(",")
            parsed[key] = (float(exact), float(partial), float(avg_len))
        for key, fs in stats.per_feature.items():
            assert parsed[key][0] == pytest.approx(fs.exact_dup_pct, abs=1e-6)
            assert parsed[key][1] == pytest.approx(fs.partial_dup_pct, abs=1e-6)


def _session_over_block():
    # Session 0 holds more rows than characterize counts in one block
    # (4096), cycling three lists, among small sessions before and after.
    small = [(s, [s, s + 1]) for s in range(1, 41) for _ in range(3)]
    big = [(0, [t % 3, 7]) for t in range(4200)]
    return small[:60] + big + small[60:]


# (session id, list of key "f") rows
ADVERSARIAL = {
    "session-over-block": _session_over_block(),
    "all-empty": [(s, []) for s in range(5) for _ in range(s + 1)],
    # session 0 repeats one list, session 1 never repeats an ID
    "all-dup-and-no-dup": [(0, [1, 2, 3])] * 5 + [(1, [10 * t, 10 * t + 1]) for t in range(5)],
    # zero padding must not merge [], [0] and [0, 0]
    "zero-padding": [(0, []), (0, [0]), (0, [0, 0]), (0, [0])],
}


class TestColumnarInput:
    """A columnar ScanBatch, or a list of them, gives exactly what its
    rows as records give, and both match the brute-force oracles."""

    @pytest.mark.parametrize("case", [*ADVERSARIAL, "generator"])
    def test_batch_matches_records_and_brute_force(self, case, stream, tmp_path):
        if case == "generator":
            records, keys = as_records(stream), ["seq", "item"]
        else:  # plus a key "g" constant within each session
            rows = ADVERSARIAL[case]
            records = [rec(s, {"f": f, "g": [s]}, ts=t) for t, (s, f) in enumerate(rows)]
            keys = ["f", "g"]
        for batch, rows in as_columns(records, tmp_path):
            for key in keys:
                want = brute_exact_pct(rows, key)
                assert exact_dup_pct(batch, key) == exact_dup_pct(as_batch(rows), key) == want
                want = brute_partial_pct(rows, key)
                assert partial_dup_pct(batch, key) == partial_dup_pct(as_batch(rows), key) == want
            assert byte_weighted(batch, keys) == byte_weighted(as_batch(rows), keys)
            for window, size in (("partition", None), ("batch", 64)):
                hist = session_histogram(batch, window, 64)
                assert hist == session_histogram(as_batch(rows), window, 64)
                assert hist.counts == brute_histogram(rows, size)
            assert compute_dup_stats(batch, keys, 64) == compute_dup_stats(as_batch(rows), keys, 64)
