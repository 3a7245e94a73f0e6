"""Tests for dataset duplication characterization."""

from collections import Counter

import numpy as np
import pytest

import sessiondedup.characterize as charmod
from sessiondedup import tensors
from sessiondedup.characterize import (
    SessionHistogram,
    byte_weighted,
    compute_dup_stats,
    dup_stats_to_csv,
    exact_dup_pct,
    partial_dup_pct,
    session_histogram,
)
from rows import ImpressionRecord, as_batch, as_records, from_rows, to_pylists
from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    generate_dataset,
)
from sessiondedup.storage import read_stripe, scan, write_table
from sessiondedup.tensors import concat_rows, jagged_index_select


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


def brute_dup_ids(sids, lists):
    """Quadratic oracle with multiset semantics: within a session, each ID
    value keeps one copy per "richest" sample; every other occurrence is a
    duplicate. ``sids[i]`` is list i's session."""
    sessions = {}
    for s, lst in zip(sids, lists):
        sessions.setdefault(s, []).append(Counter(lst))
    dup = 0
    for counters in sessions.values():
        for v in set().union(*counters):
            occ = [c[v] for c in counters]
            dup += sum(occ) - max(occ)
    return dup


def brute_partial_pct(records, key):
    lists = [r.features[key].tolist() for r in records]
    total = sum(len(lst) for lst in lists)
    dup = brute_dup_ids([r.session_id for r in records], lists)
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
            with pytest.raises(ValueError, match="^feature 'f' is listed twice in keys$"):
                fn(as_batch(records), ["f", "g", "f"])

    def test_key_string_rejected_before_counting(self, monkeypatch):
        # "fg" was read as the keys 'f' and 'g'
        import sessiondedup.characterize as charmod

        monkeypatch.setattr(charmod, "_columns", lambda *a: pytest.fail("counted"))
        records = [rec(0, {"f": [1], "g": [2]})]
        for fn in (byte_weighted, compute_dup_stats):
            with pytest.raises(TypeError, match="^keys must be a list of feature names, got 'fg'$"):
                fn(as_batch(records), "fg")


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

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (2.5, TypeError, "must be an integer, got 2.5"),
            (0, ValueError, "must be >= 1, got 0"),
        ],
        ids=["fraction", "zero"],
    )
    def test_batch_size_is_a_count(self, value, error, message):
        # 2.5 would pool 2.5-row chunks
        records = [rec(s, {"f": [1]}) for s in range(5)]
        with pytest.raises(error, match=f"^batch_size {message}$"):
            session_histogram(as_batch(records), window="batch", batch_size=value)


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
    "negative-ids": [(s, [-5, -1, -5 - t % 2, -(s + 1)]) for s in range(6) for t in range(7)],
    # a span of 2^64 IDs sends _dup_ids to dense ranks
    "rank-path-ids": [(s, [-(2**63), 2**63 - 1, t % 3, 2**63 - 1]) for s in range(4) for t in range(9)],
    "empty-among-full": [(s, [] if t % 3 == 0 else [s, t % 2]) for s in range(5) for t in range(8)],
    # one session of 250 rows spans three 100-row stripes
    "one-session": [(0, [t % 5, 3, t % 2]) for t in range(250)],
    # sessions interleaved, so by-row order is not by-session order
    "interleaved": [(t % 7, [t % 3, (t // 7) % 2]) for t in range(300)],
    "extreme-session-ids": [
        (s, [t % 2]) for t in range(6) for s in (-(2**63), -1, 0, 2**40, 2**63 - 1)
    ],
    # two sessions with one row sequence, each repeating its rows: the
    # other session's equal rows must not count
    "twin-sessions": [(s, [t // 2, 9]) for t in range(12) for s in (3, 8)],
}


def _adversarial_records(case):
    """The case's rows as records, plus a key "g" constant within each session."""
    return [rec(s, {"f": f, "g": [s]}, ts=t) for t, (s, f) in enumerate(ADVERSARIAL[case])]


class TestColumnarInput:
    """A columnar ScanBatch, or a list of them, gives exactly what its
    rows as records give, and both match the brute-force oracles."""

    @pytest.mark.parametrize("case", [*ADVERSARIAL, "generator"])
    def test_batch_matches_records_and_brute_force(self, case, stream, tmp_path):
        if case == "generator":
            records, keys = as_records(stream), ["seq", "item"]
        else:
            records, keys = _adversarial_records(case), ["f", "g"]
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

    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_shared_row_keys_fall_back_to_padded_rows(self, case, tmp_path, monkeypatch):
        # one key for every row: each block's merges fail their check, and
        # the padded comparison must still give the exact counts
        for batch, _ in as_columns(_adversarial_records(case), tmp_path):
            want = compute_dup_stats(batch, ["f", "g"], 64)
            padded = []
            oracle = tensors._unique_rows_padded
            with monkeypatch.context() as m:
                m.setattr(tensors, "_row_keys", lambda jts: np.zeros(jts[0].row_count, dtype=np.uint64))
                m.setattr(tensors, "_unique_rows_padded", lambda jts: padded.append(1) or oracle(jts))
                assert compute_dup_stats(batch, ["f", "g"], 64) == want
            assert padded


class TestStoredRows:
    """On a file clustered by session, counting keys stored rows: no
    block hands ``_unique_rows`` more rows than its distinct (session,
    stored row) pairs."""

    def test_keys_at_most_distinct_stored_rows(self, tmp_path, monkeypatch):
        # 600 sessions of 10 rows in two blocks; f changes every 4th row,
        # so 7 of each session's 10 rows repeat an earlier one, and g 9 of 10
        records = [rec(s, {"f": [s % 7, t // 4], "g": [s]}, ts=t) for s in range(600) for t in range(10)]
        f = write_table(as_batch(records), tmp_path / "c.sesscol", stripe_rows=1000, clustering="by_session")
        stripes = [read_stripe(f, i) for i in range(len(f.stripes))]
        for key, want in (("f", 70.0), ("g", 90.0)):
            pairs = set()  # (session, stripe, stored row)
            for i, b in enumerate(stripes):
                index = tensors._heads(b.features.entries[key])[1]
                pairs |= {(s, i, h) for s, h in zip(b.session_ids.tolist(), index.tolist())}
            keyed = []
            unique_rows = tensors._unique_rows
            with monkeypatch.context() as m:
                m.setattr(tensors, "_unique_rows", lambda jts: keyed.append(jts) or unique_rows(jts))
                assert exact_dup_pct(stripes, key) == pytest.approx(want)
            assert len(keyed) == 2
            seen = set()
            for sessions, _ in keyed:
                block = set(sessions.values.tolist())
                assert not block & seen
                seen |= block
                assert sessions.row_count <= sum(s in block for s, _, _ in pairs)
            assert seen == set(range(600))
            assert sum(sessions.row_count for sessions, _ in keyed) == len(pairs) < len(records)


def lexsort_dup_ids(sids, jt):
    """The lexsort count that the packed-key sort replaced, kept as an
    oracle: one stable lexsort by (session id, value)."""
    row = np.repeat(np.arange(jt.row_count), jt.row_lengths())
    order = np.lexsort((jt.values, sids[row]))
    row, vals = row[order], jt.values[order]
    sess = sids[row]
    new_id = np.concatenate(([True], (sess[1:] != sess[:-1]) | (vals[1:] != vals[:-1])))
    run_start = np.flatnonzero(new_id | np.concatenate(([False], row[1:] != row[:-1])))
    copies = np.diff(np.append(run_start, row.size))
    most = np.maximum.reduceat(copies, np.flatnonzero(new_id[run_start]))
    return row.size - int(most.sum())


def _block(rng, sessions, values):
    """Rows grouped by session (ids from ``sessions`` in that order),
    each a random list drawn from ``values``, some of them empty."""
    sids, lists = [], []
    for s in sessions:
        for _ in range(int(rng.integers(1, 6))):
            sids.append(s)
            lists.append(rng.choice(values, size=int(rng.integers(0, 5))).tolist())
    return np.array(sids, dtype=np.int64), lists


I64 = (-(2**63), 2**63 - 1)
DUP_ID_CASES = {
    "small-ids": ([3, 9, 1, 4], [0, 1, 2, 3]),
    "negative-ids": ([-7, -3, 0, 5], [-9, -2, -1, 4]),
    "rank-path": ([-(2**62), 1, 2**62], [*I64, 0, -1]),
    "one-session": ([2**63 - 1], [5, 6, 7]),
    "all-duplicate": ([1, 2], [42]),
    "sparse-session-ids": ([*I64, 0], [10**15, 10**15 + 1, 3]),
}


class TestDupIdsKernel:
    """``_dup_ids`` against the lexsort it replaced and a Counter oracle."""

    @pytest.mark.parametrize("case", DUP_ID_CASES)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lexsort_and_brute_force(self, case, seed):
        sessions, values = DUP_ID_CASES[case]
        sids, lists = _block(np.random.default_rng(seed), sessions, np.array(values, dtype=np.int64))
        jt = from_rows(lists)
        want = brute_dup_ids(sids.tolist(), lists)
        assert charmod._dup_ids(sids, jt) == lexsort_dup_ids(sids, jt) == want

    @pytest.mark.parametrize("span, ranked", [(2**60 - 1, False), (2**60, True)])
    def test_key_limit_boundary(self, span, ranked, monkeypatch):
        # one session of 4 rows: the packed key reaches span * 4
        jt = from_rows([[0, span - 1], [span - 1], [0, 0], [span - 1, 0]])
        sids = np.zeros(4, dtype=np.int64)
        calls = []
        unique = np.unique
        monkeypatch.setattr(charmod.np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        # 0 occurs 1, 0, 2, 1 times per row and span - 1 once in three rows
        assert charmod._dup_ids(sids, jt) == lexsort_dup_ids(sids, jt) == 4
        assert bool(calls) == ranked

    def test_block_too_large_even_ranked(self, monkeypatch):
        monkeypatch.setattr(charmod, "_KEY_LIMIT", 4)
        sids = np.array([0, 0], dtype=np.int64)
        with pytest.raises(ValueError, match="2 rows and 3 IDs is too large to count"):
            charmod._dup_ids(sids, from_rows([[1, 2], [1]]))


class TestGather:
    """``_gather`` equals one select from the joined tensors, and a run
    of ascending rows inside one tensor is a view of it."""

    @pytest.fixture()
    def parts(self):
        rows = [[[1], [2, 3], [], [-4]], [], [[5, 6], [7], [8]], [[9], [], [10, 11], [12], [13]], [[14]]]
        jts = [from_rows(r) for r in rows]
        return jts, np.cumsum([0, *(len(r) for r in rows)])

    @pytest.mark.parametrize(
        "idx",
        [[1, 2, 3], [3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], [12], [6, 2, 9], [8, 7], [0, 2]],
        ids=["in-one", "across-empty", "all", "last", "shuffled", "descending", "gap"],
    )
    def test_matches_joined_select(self, parts, idx):
        jts, starts = parts
        idx = np.array(idx, dtype=np.int64)
        got = charmod._gather(jts, starts, idx)
        want = jagged_index_select(concat_rows(jts), idx)
        assert to_pylists(got) == to_pylists(want)
        np.testing.assert_array_equal(got.offsets, want.offsets)

    def test_run_inside_one_tensor_is_a_view(self, parts):
        jts, starts = parts
        got = charmod._gather(jts, starts, np.arange(8, 11))
        assert to_pylists(got) == [[], [10, 11], [12]]
        assert np.shares_memory(got.values, jts[3].values)


class TestSessionHistogramIds:
    """Session ids are only compared, so any int64 ids give the oracle's
    histogram, in every window size."""

    @pytest.mark.parametrize(
        "sids",
        [
            [-3, -3, -1, -3, -1, -1, -2],
            [0, 10**12, 0, 5 * 10**17, 10**12, 0],
            # id 2 in chunk 0 must not meet id 0 in chunk 1 (2 sessions)
            [2, 0, 0],
            [*I64, I64[0], 0, I64[1], I64[1], -1],
        ],
        ids=["negative", "sparse", "gaps", "int64-extremes"],
    )
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4096])
    def test_matches_brute_force(self, sids, batch_size):
        records = [rec(s, {"f": [1]}) for s in sids]
        for window, size in (("partition", None), ("batch", batch_size)):
            hist = session_histogram(as_batch(records), window, batch_size)
            assert hist.counts == brute_histogram(records, size)
            assert hist.mean == len(records) / sum(hist.counts.values())

    def test_empty_stream(self):
        assert session_histogram([], "batch", 1) == SessionHistogram(counts={}, mean=0.0)
