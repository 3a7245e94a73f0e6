"""Tests for jagged tensors, deduplicated encodings, and the analytical model."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rows import (
    WRAPPED_LENGTHS,
    as_batch,
    from_rows,
    ikjt_to_kjt,
    jt_equal,
    kjt_equal,
    serialize_ikjt,
    serialize_kjt,
    to_pylists,
)
from sessiondedup import tensors
from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    default_config,
    generate_dataset,
)
from sessiondedup.tensors import (
    IKJT,
    KJT,
    DedupeModel,
    JaggedTensor,
    PartialIKJT,
    RunJaggedTensor,
    build_ikjt,
    build_kjt,
    build_partial_ikjt,
    concat_rows,
    dedupe_factor,
    dedupe_len,
    expand_runs,
    jagged_index_select,
    measured_dedupe_factor,
    payload_bytes,
    slice_rows,
    slice_stream_bytes,
    unique_first_occurrence,
    values_stream_bytes,
    window_index,
)
from sessiondedup.storage import ScanBatch
from sessiondedup.trainer_sim import default_model_spec

# Worked micro-batch used throughout: feature b carries an exact duplicate
# in rows 0 and 2, features c and d update in lockstep so they dedup as a
# group, and feature a has an empty middle row.
ROWS = [
    {"a": [1, 2], "b": [3, 4, 5], "c": [7, 8], "d": [9]},
    {"a": [], "b": [4, 5, 6], "c": [7, 8], "d": [9]},
    {"a": [1, 2], "b": [3, 4, 5], "c": [10], "d": [11]},
]


def rows_strategy(max_rows=8, max_len=6, n_keys=2):
    keys = [f"f{i}" for i in range(n_keys)]
    row = st.fixed_dictionaries(
        {
            k: st.lists(st.integers(min_value=0, max_value=5), max_size=max_len)
            for k in keys
        }
    )
    return st.lists(row, min_size=1, max_size=max_rows)


class TestJaggedTensor:
    def test_row_extraction(self):
        jt = from_rows([[1, 2], [], [3]])
        assert jt.row_count == 3
        assert to_pylists(jt) == [[1, 2], [], [3]]
        np.testing.assert_array_equal(jt.row_lengths(), [2, 0, 1])
        np.testing.assert_array_equal(jt.row(1), [])

    def test_one_offset_per_row(self):
        jt = from_rows([[1, 2], [3]])
        np.testing.assert_array_equal(jt.offsets, [0, 2])
        np.testing.assert_array_equal(jt.values, [1, 2, 3])

    def test_invalid_offsets_rejected(self):
        vals = np.array([1, 2, 3], dtype=np.int64)
        with pytest.raises(ValueError):
            JaggedTensor(values=vals, offsets=np.array([0, 4], dtype=np.int64))
        with pytest.raises(ValueError):
            JaggedTensor(values=vals, offsets=np.array([2, 1], dtype=np.int64))
        with pytest.raises(ValueError):
            JaggedTensor(values=vals, offsets=np.array([1, 2], dtype=np.int64))

    def test_wrapped_offsets_rejected(self):
        # WRAPPED_LENGTHS wrap to these offsets and to 5 values; every
        # difference of neighbours is a positive length.
        offsets = np.array([0, 2**62, -(2**63), -(2**62)], dtype=np.int64)
        with pytest.raises(ValueError, match=r"row 1 starts at 4611686018427387904\b"):
            JaggedTensor(values=np.arange(5), offsets=offsets)
        with pytest.raises(ValueError, match=r"row 1 starts at 4611686018427387904\b"):
            JaggedTensor.from_lengths(np.arange(5), WRAPPED_LENGTHS)

    @pytest.mark.parametrize(
        "lengths",
        [[2, 2], [2, 0], [3, -1], [-1, 4], [1, 2**63 - 1]],
        ids=["too-many", "too-few", "last-negative", "first-negative", "last-wraps"],
    )
    def test_from_lengths_must_sum_to_values(self, lengths):
        with pytest.raises(ValueError):
            JaggedTensor.from_lengths(np.arange(3), lengths)

    def test_immutable(self):
        jt = from_rows([[1]])
        with pytest.raises(ValueError):
            jt.values[0] = 9


jagged_rows = st.lists(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4), max_size=6)


class TestLayoutHelpers:
    @given(st.lists(jagged_rows, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_concat_rows_matches_from_rows(self, tensors_rows):
        jts = [from_rows(rows) for rows in tensors_rows]
        joined = concat_rows(jts)
        want = from_rows([row for jt in jts for row in to_pylists(jt)])
        assert jt_equal(joined, want)

    @given(st.lists(st.integers(0, 5), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_from_lengths_keeps_lengths(self, lengths):
        values = np.arange(sum(lengths))
        jt = JaggedTensor.from_lengths(values, lengths)
        assert jt.row_lengths().tolist() == lengths


class TestBuildKjt:
    def test_duplicate_rows_kept(self):
        kjt = build_kjt(as_batch(ROWS), ["a"])
        a = kjt.entries["a"]
        np.testing.assert_array_equal(a.values, [1, 2, 1, 2])
        np.testing.assert_array_equal(a.offsets, [0, 2, 2])

    def test_single_row(self):
        kjt = build_kjt(as_batch([{"x": [7]}]), ["x"])
        np.testing.assert_array_equal(kjt.entries["x"].values, [7])
        np.testing.assert_array_equal(kjt.entries["x"].offsets, [0])

    def test_missing_key_is_empty_list(self):
        kjt = build_kjt(as_batch([{"a": [1]}, {}]), ["a"])
        assert to_pylists(kjt.entries["a"]) == [[1], []]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            build_kjt([], ["a"])

    def test_roundtrip_random_rows(self):
        rng = np.random.default_rng(3)
        rows = [
            {"a": rng.integers(0, 100, size=rng.integers(0, 8)).tolist()}
            for _ in range(1000)
        ]
        kjt = build_kjt(as_batch(rows), ["a"])
        assert to_pylists(kjt.entries["a"]) == [list(r["a"]) for r in rows]


class TestBuildIkjt:
    def test_single_feature_duplicate(self):
        ikjt = build_ikjt(as_batch(ROWS), ["b"])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 1, 0])
        b = ikjt.per_feature["b"]
        np.testing.assert_array_equal(b.offsets, [0, 3])
        np.testing.assert_array_equal(b.values, [3, 4, 5, 4, 5, 6])
        assert ikjt.unique_count == 2

    def test_synchronized_group(self):
        ikjt = build_ikjt(as_batch(ROWS), ["c", "d"])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 0, 1])
        assert to_pylists(ikjt.per_feature["c"]) == [[7, 8], [10]]
        assert to_pylists(ikjt.per_feature["d"]) == [[9], [11]]
        # unique row 0 addresses [7, 8] for c and [9] for d
        np.testing.assert_array_equal(ikjt.per_feature["c"].row(0), [7, 8])
        np.testing.assert_array_equal(ikjt.per_feature["d"].row(0), [9])

    def test_group_with_unsynchronized_feature_does_not_dedup(self):
        rows = [
            {"c": [7, 8], "e": [1]},
            {"c": [7, 8], "e": [2]},
        ]
        ikjt = build_ikjt(as_batch(rows), ["c", "e"])
        # e differs, so the grouped rows are distinct even though c repeats
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 1])
        assert ikjt.unique_count == 2

    def test_all_distinct_degenerates_to_identity(self):
        rows = [{"a": [i]} for i in range(5)]
        ikjt = build_ikjt(as_batch(rows), ["a"])
        np.testing.assert_array_equal(ikjt.inverse_lookup, np.arange(5))
        assert ikjt.unique_count == 5

    def test_first_occurrence_numbering(self):
        rows = [{"a": [5]}, {"a": [3]}, {"a": [5]}, {"a": [1]}, {"a": [3]}]
        ikjt = build_ikjt(as_batch(rows), ["a"])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 1, 0, 2, 1])
        assert to_pylists(ikjt.per_feature["a"]) == [[5], [3], [1]]

    def test_length_boundary_not_confused(self):
        # [1, 2] + [3] vs [1] + [2, 3]: same concatenation, different rows
        rows = [{"x": [1, 2], "y": [3]}, {"x": [1], "y": [2, 3]}]
        ikjt = build_ikjt(as_batch(rows), ["x", "y"])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 1])
        # zero padding up to the longest row must not merge rows either
        ikjt = build_ikjt(as_batch([{"x": []}, {"x": [0]}, {"x": [0, 0]}]), ["x"])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 1, 2])
        rows = [{"x": [0], "y": []}, {"x": [], "y": [0]}]
        ikjt = build_ikjt(as_batch(rows), ["x", "y"])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 1])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty dedup group"):
            build_ikjt(as_batch(ROWS), [])

    def test_ikjt_without_group_keys_rejected(self):
        with pytest.raises(ValueError, match="empty dedup group"):
            IKJT(batch_size=1, group_keys=(), inverse_lookup=[0], per_feature={})

    def test_invalid_inverse_rejected(self):
        jt = from_rows([[1]])
        with pytest.raises(ValueError):
            IKJT(
                batch_size=2,
                group_keys=("a",),
                inverse_lookup=np.array([0, 1], dtype=np.int64),
                per_feature={"a": jt},
            )
        with pytest.raises(ValueError):
            # unique row 1 never referenced
            IKJT(
                batch_size=2,
                group_keys=("a",),
                inverse_lookup=np.array([0, 0], dtype=np.int64),
                per_feature={"a": from_rows([[1], [2]])},
            )


I64_MIN, I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max
PADDED_ORACLE = tensors._unique_rows_padded


def group_of(rows):
    """Rows given as tuples of lists, one list per tensor, as the
    tensors :func:`tensors._unique_rows` takes."""
    return [from_rows([row[k] for row in rows]) for k in range(len(rows[0]))]


def assert_matches_padded_oracle(jts):
    first, inverse = tensors._unique_rows(jts)
    want_first, want_inverse = PADDED_ORACLE(jts)
    np.testing.assert_array_equal(first, want_first)
    np.testing.assert_array_equal(inverse, want_inverse)
    return inverse


@pytest.fixture
def padded_calls(monkeypatch):
    """Counts calls of the whole-row comparison, which :func:`_unique_rows`
    takes only when two distinct rows shared a key."""
    calls = []

    def spy(jts):
        calls.append(jts)
        return PADDED_ORACLE(jts)

    monkeypatch.setattr(tensors, "_unique_rows_padded", spy)
    return calls


@st.composite
def keyed_groups(draw):
    """1-3 tensors of variable-length rows, drawn from a small pool of
    distinct rows so that repeats are common; values mix small IDs,
    negatives and the int64 extremes."""
    n_keys = draw(st.integers(1, 3))
    extremes = [I64_MIN, I64_MAX, I64_MIN + 1, I64_MAX - 1]
    value = st.one_of(st.integers(-3, 3), st.sampled_from(extremes))
    row = st.tuples(*[st.lists(value, max_size=5) for _ in range(n_keys)])
    pool = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=24))
    return [pool[i] for i in picks]


class TestUniqueRowsAgainstPaddedOracle:
    """The keyed path must give exactly the padded table's
    ``(first, inverse)``, whatever the keys do."""

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(
                [([],), ([0],), ([0, 0],), ([0],), ([],), ([0, 0],)], id="empty-zero-zerozero"
            ),
            pytest.param([([1, 2],), ([2, 1],), ([1, 2],)], id="reversed"),
            pytest.param(
                [([1], [2, 3]), ([1, 2], [3]), ([1], [2, 3])], id="value-moves-between-keys"
            ),
            pytest.param([([0], []), ([], [0]), ([], []), ([0], [])], id="empty-in-either-key"),
            pytest.param(
                [([-1],), ([I64_MIN],), ([I64_MAX],), ([I64_MIN, I64_MAX],), ([I64_MAX, I64_MIN],),
                 ([-1, 1],), ([1, -1],), ([I64_MIN],), ([-1],), ([I64_MAX, I64_MIN],)],
                id="negative-and-extremes",
            ),
            # Equal length, equal sum and equal position-weighted sum of
            # the values (0 + 3 = 1 + 2): the two sums alone cannot part them.
            pytest.param(
                [([1, 0, 0, 1],), ([0, 1, 1, 0],), ([1, 0, 0, 1],)], id="equal-weighted-sums"
            ),
            pytest.param([([5, 6], [7])] * 9, id="all-duplicate"),
            pytest.param([([i, -i], [i] * (i % 3)) for i in range(12)], id="no-duplicate"),
        ],
    )
    def test_edge_batches(self, rows):
        assert_matches_padded_oracle(group_of(rows))

    def test_constant_key_takes_collision_path(self, monkeypatch, padded_calls):
        rows = [([1, 2],), ([2, 1],), ([],), ([1, 2],), ([0],), ([0, 0],)]
        jts = group_of(rows)
        monkeypatch.setattr(tensors, "_row_keys", lambda jts: np.zeros(jts[0].row_count, np.uint64))
        inverse = assert_matches_padded_oracle(jts)
        np.testing.assert_array_equal(inverse, [0, 1, 2, 0, 3, 4])
        assert padded_calls  # the merges the key proposed failed the check

    def test_distinct_keys_skip_the_exact_check(self, monkeypatch, padded_calls):
        # distinct keys already prove distinct rows; no cell is compared
        jts = group_of([([i, -i], [i] * (i % 3)) for i in range(12)])
        monkeypatch.setattr(tensors, "window_index", lambda *a: pytest.fail("exact check ran"))
        first, inverse = tensors._unique_rows(jts)
        np.testing.assert_array_equal(first, np.arange(12))
        np.testing.assert_array_equal(inverse, np.arange(12))
        assert not padded_calls

    def test_constant_key_on_equal_rows_needs_no_fallback(self, monkeypatch, padded_calls):
        jts = group_of([([3, 4], [I64_MIN])] * 5)
        monkeypatch.setattr(tensors, "_row_keys", lambda jts: np.zeros(jts[0].row_count, np.uint64))
        first, inverse = tensors._unique_rows(jts)
        np.testing.assert_array_equal(first, [0])
        np.testing.assert_array_equal(inverse, np.zeros(5))
        assert not padded_calls

    @pytest.mark.parametrize(
        "rows, i, j",
        [
            pytest.param([([1, 2],), ([1, 3],), ([9],)], 0, 1, id="same-length"),
            pytest.param([([1, 2],), ([1, 2, 0],), ([9],)], 0, 1, id="other-length"),
            # The longer row's values continue into the rows after the
            # shorter one, so only the lengths tell them apart.
            pytest.param([([1],), ([2],), ([1, 2],)], 0, 2, id="spans-next-row"),
            pytest.param([([],), ([0],)], 0, 1, id="empty-and-zero"),
            pytest.param([([7], [1]), ([8], []), ([7], [2])], 0, 2, id="second-key-differs"),
            pytest.param([([7], [1]), ([8], []), ([7], [2]), ([7], [1])], 2, 3, id="later-row"),
        ],
    )
    def test_key_shared_by_two_distinct_rows(self, monkeypatch, padded_calls, rows, i, j):
        jts = group_of(rows)
        row_keys = tensors._row_keys

        def colliding(jts):
            keys = row_keys(jts)
            keys[j] = keys[i]
            return keys

        monkeypatch.setattr(tensors, "_row_keys", colliding)
        inverse = assert_matches_padded_oracle(jts)
        assert inverse[i] != inverse[j]
        assert len(padded_calls) == 1

    @given(keyed_groups())
    @settings(max_examples=300, deadline=None)
    def test_random_groups(self, rows):
        assert_matches_padded_oracle(group_of(rows))


def np_unique_first_occurrence(keys):
    """First-occurrence numbering from ``np.unique``'s stable first
    indices, renumbered by two argsorts: the oracle for
    :func:`unique_first_occurrence`."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.ravel()]


def assert_matches_unique_oracle(keys):
    first, inverse = unique_first_occurrence(keys)
    want_first, want_inverse = np_unique_first_occurrence(keys)
    assert first.dtype == np.int64 and inverse.dtype == np.int64
    assert first.shape == want_first.shape and inverse.shape == want_inverse.shape
    np.testing.assert_array_equal(first, want_first)
    np.testing.assert_array_equal(inverse, want_inverse)
    assert np.all(np.diff(first) > 0)
    return first, inverse


def padded_void_rows(table):
    """Whole int64 matrix rows as one ``np.void`` each, as
    :func:`tensors._unique_rows_padded` compares them."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    return table.view(np.dtype((np.void, table.shape[1] * 8))).ravel()


def rank_keyed(inverse_lookup, num_ranks):
    """``split_batch``'s dedup key: rank * U + inverse_lookup."""
    n = inverse_lookup.size
    rank_of_row = np.arange(n) * num_ranks // n
    return rank_of_row * (int(inverse_lookup.max()) + 1) + inverse_lookup


class TestUniqueFirstOccurrence:
    """One unstable sort must number entries exactly as ``np.unique``'s
    stable first indices do."""

    def test_worked_example(self):
        first, inverse = assert_matches_unique_oracle(np.array([5, 3, 5, 9, 3], dtype=np.uint64))
        np.testing.assert_array_equal(first, [0, 1, 3])
        np.testing.assert_array_equal(inverse, [0, 1, 0, 2, 1])

    @pytest.mark.parametrize(
        "keys",
        [
            pytest.param(np.empty(0, dtype=np.uint64), id="empty-uint64"),
            pytest.param(np.empty(0, dtype=np.int64), id="empty-int64"),
            pytest.param(np.array([42], dtype=np.uint64), id="one-key"),
            pytest.param(np.full(50, 7, dtype=np.uint64), id="all-equal"),
            pytest.param(
                np.random.default_rng(1).permutation(300).astype(np.uint64), id="all-distinct"
            ),
            pytest.param(np.arange(300, dtype=np.int64)[::-1].copy(), id="descending"),
            pytest.param(
                np.repeat(np.arange(40, dtype=np.int64)[::-1], 3), id="descending-runs"
            ),
            pytest.param(
                np.array([2**63, 2**64 - 1, 0, 2**63 + 1, 2**64 - 1, 1, 2**63, 0], dtype=np.uint64),
                id="uint64-top-bit",
            ),
            pytest.param(
                np.array([-1, I64_MIN, 5, -1, I64_MAX, I64_MIN, 0, -2, 5], dtype=np.int64),
                id="negative-int64",
            ),
            # Long runs of few values, so the unstable sort reorders
            # equal keys and the first occurrence must come from the min.
            pytest.param(
                np.random.default_rng(2).integers(0, 7, 10_000).astype(np.uint64), id="few-values"
            ),
            pytest.param(
                np.random.default_rng(3).integers(0, 2731, 4096).astype(np.uint64)
                * np.uint64(0x9E3779B97F4A7C15),
                id="hashed-keys",
            ),
        ],
    )
    def test_matches_np_unique(self, keys):
        assert_matches_unique_oracle(keys)

    @pytest.mark.parametrize("clustering", ["none", "by_session"])
    @pytest.mark.parametrize("num_ranks", [1, 3, 4])
    def test_rank_keyed_split_batch_keys(self, clustering, num_ranks):
        cfg, specs = default_config(num_sessions=300)
        table = generate_dataset(cfg, specs)
        if clustering == "by_session":
            table = table.take_rows(np.lexsort((table.timestamps, table.session_ids)))
        batch = table.slice_rows(0, 4096)
        for group in [g.keys for g in default_model_spec(specs).groups]:
            ik = build_ikjt(batch, group)
            assert_matches_unique_oracle(rank_keyed(ik.inverse_lookup, num_ranks))

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([[1, 5, 0], [2, 5, 6], [1, 5, 0], [0, 0, 0], [2, 5, 6], [0, 0, 0]], id="lengths-values"),
            pytest.param([[1, -1], [1, I64_MIN], [1, -1], [1, I64_MAX]], id="extremes"),
            pytest.param([[3, 1, 2, 3]] * 6, id="all-equal"),
        ],
    )
    def test_padded_void_rows(self, rows):
        assert_matches_unique_oracle(padded_void_rows(rows))

    def test_padded_void_rows_of_a_group(self):
        rng = np.random.default_rng(4)
        pool = [rng.integers(-3, 4, 6) for _ in range(20)]
        table = np.stack([pool[i] for i in rng.integers(0, 20, 500)])
        assert_matches_unique_oracle(padded_void_rows(table))

    @given(
        st.lists(
            st.one_of(st.integers(-3, 3), st.sampled_from([I64_MIN, I64_MAX, -(2**62), 2**62])),
            min_size=1,
            max_size=12,
            unique=True,
        ).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=200)),
        st.sampled_from(["int64", "uint64"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_keys(self, values, dtype):
        keys = np.array(values, dtype=np.int64).view(dtype)
        assert_matches_unique_oracle(keys)


def _variable_length_config():
    """Fractional list lengths in one sync group and a small vocabulary,
    over short geometric sessions."""
    user = dict(kind="user_sequence", vocab_size=500, change_prob=0.3)
    specs = [
        FeatureSpec(key="u55", avg_len=5.5, sync_group="g", **user),
        FeatureSpec(key="u225", avg_len=2.25, sync_group="g", **user),
        FeatureSpec(key="v55", avg_len=5.5, **user),
        FeatureSpec(key="i37", kind="item", avg_len=3.7, vocab_size=50),
    ]
    sessions = SampleCountDist(kind="geometric", mean=4.0)
    return SessionConfig(num_sessions=1300, samples_per_session=sessions), specs


@pytest.mark.parametrize(
    "config",
    [lambda: default_config(num_sessions=300), _variable_length_config],
    ids=["default", "variable-length"],
)
@pytest.mark.parametrize("clustering", ["none", "by_session"])
def test_generated_batches_never_take_the_collision_path(monkeypatch, config, clustering):
    """A key that collided on real rows would keep every output exact and
    lose the whole gain silently, so the fallback is made to fail here."""

    def fail(jts):
        raise AssertionError("two distinct generated rows shared a row key")

    cfg, specs = config()
    table = generate_dataset(cfg, specs)
    if clustering == "by_session":
        table = table.take_rows(np.lexsort((table.timestamps, table.session_ids)))
    batch = table.slice_rows(0, 4096)
    assert len(batch) == 4096
    groups = [g.keys for g in default_model_spec(specs).groups] + [(s.key,) for s in specs]
    monkeypatch.setattr(tensors, "_unique_rows_padded", fail)
    for group in groups:
        build_ikjt(batch, group)


class TestIkjtToKjt:
    def test_expansion_restores_rows(self):
        ikjt = build_ikjt(as_batch(ROWS), ["b"])
        kjt = ikjt_to_kjt(ikjt)
        assert to_pylists(kjt.entries["b"]) == [r["b"] for r in ROWS]

    def test_identity_lookup_is_noop(self):
        rows = [{"a": [i, i + 1]} for i in range(4)]
        ikjt = build_ikjt(as_batch(rows), ["a"])
        assert jt_equal(ikjt_to_kjt(ikjt).entries["a"], ikjt.per_feature["a"])

    @given(rows_strategy())
    @settings(max_examples=200, deadline=None)
    def test_expansion_equals_direct_kjt(self, rows):
        keys = sorted(rows[0])
        ikjt = build_ikjt(as_batch(rows), keys)
        assert kjt_equal(ikjt_to_kjt(ikjt), build_kjt(as_batch(rows), keys))

    @given(rows_strategy())
    @settings(max_examples=200, deadline=None)
    def test_merge_soundness(self, rows):
        # rows sharing an inverse entry must agree on every grouped feature
        keys = sorted(rows[0])
        ikjt = build_ikjt(as_batch(rows), keys)
        inv = ikjt.inverse_lookup
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                same = all(
                    list(rows[i][k]) == list(rows[j][k]) for k in keys
                )
                assert (inv[i] == inv[j]) == same


class TestPartialIkjt:
    def test_shifted_session_windows(self):
        rows = [{"b": [3, 4, 5]}, {"b": [4, 5, 6]}, {"b": [3, 4, 5]}]
        pikjt = build_partial_ikjt(as_batch(rows), "b")
        np.testing.assert_array_equal(pikjt.values, [3, 4, 5, 6])
        np.testing.assert_array_equal(pikjt.windows, [(0, 3), (1, 3), (0, 3)])

    def test_identical_rows_share_window(self):
        pikjt = build_partial_ikjt(as_batch([{"b": [9, 9]}, {"b": [9, 9]}]), "b")
        np.testing.assert_array_equal(pikjt.values, [9, 9])
        np.testing.assert_array_equal(pikjt.windows, [(0, 2), (0, 2)])

    def test_reconstruction(self):
        rows = [{"b": [3, 4, 5]}, {"b": [4, 5, 6]}, {"b": [1]}, {"b": []}]
        pikjt = build_partial_ikjt(as_batch(rows), "b")
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(pikjt.row(i), row["b"])

    def test_random_shifted_streams_compact(self):
        rng = np.random.default_rng(11)
        pool = rng.integers(0, 10_000, size=400, dtype=np.int64)
        rows = []
        start = 0
        for _ in range(40):
            start += rng.integers(0, 3)
            rows.append({"b": pool[start : start + 20].tolist()})
        pikjt = build_partial_ikjt(as_batch(rows), "b")
        brute = sum(len(r["b"]) for r in rows)
        assert pikjt.values.size <= brute
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(pikjt.row(i), row["b"])

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError):
            PartialIKJT(
                feature_key="b",
                values=np.array([1, 2], dtype=np.int64),
                windows=np.array([[1, 2]], dtype=np.int64),
            )


def _jt(rows):
    """A JaggedTensor of ``rows`` one-value rows."""
    return from_rows([[i] for i in range(rows)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KJT(2, {"a": _jt(1)}), "^feature 'a' has 1 rows, expected 2$"),
        (lambda: IKJT(2, ("a",), [0], {"a": _jt(1)}), "^inverse_lookup must have one entry per batch row$"),
        (lambda: IKJT(1, ("a",), [0], {"b": _jt(1)}), "^group_keys and per_feature keys differ$"),
        (lambda: IKJT(1, ("a",), [0], {"a": _jt(2)}), "^more unique rows than batch rows$"),
        (
            lambda: IKJT(2, ("a", "b"), [0, 1], {"a": _jt(2), "b": _jt(1)}),
            "^feature 'b' has 1 dedup rows, expected 2$",
        ),
        (lambda: PartialIKJT("a", [1, 2], [0, 2]), r"^windows must be a \(B, 2\) array$"),
        (lambda: PartialIKJT("a", [1, 2], [[-1, 1]]), "^negative window bound$"),
    ],
    ids=[
        "kjt-feature-rows",
        "ikjt-inverse-length",
        "ikjt-keys",
        "ikjt-unique-rows",
        "ikjt-feature-rows",
        "partial-window-shape",
        "partial-negative-window",
    ],
)
def test_malformed_encoding_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda n: KJT(n, {"a": _jt(7)}),
        lambda n: IKJT(n, ("a",), np.zeros(7, dtype=np.int64), {"a": _jt(1)}),
        lambda n: DedupeModel(samples_per_session=4, batch_size=n, avg_len=2, unchanged_prob=0.5),
    ],
    ids=["KJT", "IKJT", "DedupeModel"],
)
@pytest.mark.parametrize(
    "value, error, message",
    [
        (7.0, TypeError, "must be an integer, got 7.0"),
        (2.5, TypeError, "must be an integer, got 2.5"),
        (0, ValueError, "must be >= 1, got 0"),
        (True, TypeError, "must be an integer, got True"),
    ],
    ids=["whole-float", "fraction", "zero", "bool"],
)
def test_batch_size_is_a_count(build, value, error, message):
    # a float batch size would be stored as the tensors' row count
    with pytest.raises(error, match=f"^batch_size {message}$"):
        build(value)
    assert type(build(np.int64(7)).batch_size) is int


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: build_ikjt(as_batch(ROWS), "ab"), TypeError, "^keys must be a list of feature names, got 'ab'$"),
        (lambda: build_kjt(as_batch(ROWS), b"ab"), TypeError, "^keys must be a list of feature names, got b'ab'$"),
        (lambda: build_kjt(as_batch(ROWS), {"a"}), TypeError, r"^keys must be a list of feature names, got \{'a'\}$"),
        (lambda: build_kjt(as_batch(ROWS), ["a", 1]), TypeError, "^keys must hold feature names, got 1$"),
        (lambda: build_ikjt(as_batch(ROWS), ["a", "a"]), ValueError, "^feature 'a' is listed twice in keys$"),
        (
            lambda: IKJT(1, "ab", [0], {"a": _jt(1), "b": _jt(1)}),
            TypeError,
            "^group_keys must be a list of feature names, got 'ab'$",
        ),
        (
            lambda: IKJT(1, ("a", "b", "a"), [0], {"a": _jt(1), "b": _jt(1)}),
            ValueError,
            "^feature 'a' is listed twice in group_keys$",
        ),
        (
            lambda: build_ikjt(as_batch(ROWS), ["a", "zz"]),
            ValueError,
            r"^feature 'zz' is not in the batch, which has \['a', 'b', 'c', 'd'\]$",
        ),
    ],
    ids=["ikjt-str", "kjt-bytes", "kjt-set", "kjt-non-str", "ikjt-repeat", "IKJT-str", "IKJT-repeat", "missing"],
)
def test_key_list_rule(build, error, message):
    # a string's characters became the keys, a repeated key grouped one
    # tensor twice, and a missing key raised a bare KeyError
    with pytest.raises(error, match=message):
        build()


class TestJaggedIndexSelect:
    @staticmethod
    def dense_oracle(jt: JaggedTensor, indices: np.ndarray) -> list[list[int]]:
        """Pad to a dense matrix, select rows, strip the padding."""
        rows = to_pylists(jt)
        width = max((len(r) for r in rows), default=0)
        pad = -1
        dense = np.full((len(rows), width + 1), pad, dtype=np.int64)
        for i, r in enumerate(rows):
            dense[i, : len(r)] = r
        picked = dense[indices]
        return [[v for v in row if v != pad] for row in picked]

    def test_matches_dense_oracle_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_rows = int(rng.integers(1, 12))
            rows = [
                rng.integers(0, 50, size=rng.integers(0, 6)).tolist()
                for _ in range(n_rows)
            ]
            jt = from_rows(rows)
            idx = rng.integers(0, n_rows, size=rng.integers(0, 20))
            out = jagged_index_select(jt, idx)
            assert to_pylists(out) == self.dense_oracle(jt, idx)

    def test_empty_selection(self):
        jt = from_rows([[1, 2]])
        out = jagged_index_select(jt, np.array([], dtype=np.int64))
        assert out.row_count == 0
        assert out.values.size == 0

    def test_out_of_range_index_names_position(self):
        jt = from_rows([[1], [2]])
        with pytest.raises(IndexError, match="position 1"):
            jagged_index_select(jt, np.array([0, 5], dtype=np.int64))

    @pytest.mark.parametrize(
        "bad, later", [(-1, 1), (3, 1), (-1, 3), (3, -1), (I64_MIN, I64_MAX)]
    )
    def test_out_of_range_index_reported_at_first_bad_position(self, bad, later):
        # A negative index would wrap silently in a gather, so the range
        # check alone stands between it and a wrong row.
        jt = from_rows([[1], [2], [3, 4]])
        with pytest.raises(
            IndexError, match=rf"^index {bad} at position 2 out of range for 3 rows$"
        ):
            jagged_index_select(jt, np.array([0, 2, bad, 1, later], dtype=np.int64))


@st.composite
def run_tensors(draw):
    """A RunJaggedTensor of 1-16 rows: heads drawn from a small pool, so
    that heads may repeat. Each row takes the next head or any head an
    earlier row took, the row before's (a run) or another (a
    back-reference)."""
    pool = draw(st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=3))
    heads = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    index, used = [0], 1
    while used < len(heads) or (len(index) < 16 and draw(st.booleans())):
        spare = 16 - len(index) > len(heads) - used  # room for a row that takes no new head
        if used < len(heads) and not (spare and draw(st.booleans())):
            index.append(used)
            used += 1
        else:
            index.append(draw(st.sampled_from([index[-1], draw(st.integers(0, used - 1))])))
    return RunJaggedTensor(from_rows(heads), np.array(index, dtype=np.int64))


def _first_use_index(rng, heads: int, rows: int) -> np.ndarray:
    """A random head index in order of first use: each row takes the next
    head with probability 1/2 (always once no other row is left for it)
    or a random earlier one."""
    index = [0]
    while len(index) < rows:
        used = max(index) + 1
        new = used < heads and (rng.random() < 0.5 or rows - len(index) <= heads - used)
        index.append(used if new else int(rng.integers(0, used)))
    return np.array(index, dtype=np.int64)


def _batch(**entries):
    """A columnar batch of the given feature tensors, other columns 0."""
    n = next(iter(entries.values())).row_count
    zeros = np.zeros(n, dtype=np.int64)
    return ScanBatch(zeros, zeros, zeros, KJT(n, entries))


class TestRunJaggedTensor:
    """Rows as run heads plus a row -> head index must behave exactly as
    the rows laid out."""

    @pytest.mark.parametrize(
        "heads, index",
        [
            ([[1]], [1]),
            ([[1], [2]], [0, 2]),
            ([[1], [2]], [0, 1, -1]),
            ([[1], [2]], [0, 0]),
            ([[1]], []),
            ([[1], [2], [3]], [0, 2, 1]),
        ],
        ids=["starts-past-0", "skips-a-head", "below-0", "head-unused", "no-rows", "first-use-out-of-order"],
    )
    def test_malformed_index_rejected(self, heads, index):
        with pytest.raises(ValueError, match="^head_index must start at 0 and use each of the"):
            RunJaggedTensor(from_rows(heads), np.array(index, dtype=np.int64))

    def test_rows_may_point_back_to_any_earlier_head(self):
        runs = RunJaggedTensor(from_rows([[1], [2], [3]]), [0, 1, 0, 2, 1, 1, 0])
        assert to_pylists(expand_runs(runs)) == [[1], [2], [1], [3], [2], [2], [1]]

    def test_expand_paths_match_laid_out_rows(self):
        rng = np.random.default_rng(11)
        for k in range(300):
            heads = [rng.integers(0, 9, rng.integers(0, 4)).tolist() for _ in range(rng.integers(1, 8))]
            if k % 2:
                index = _first_use_index(rng, len(heads), len(heads) + int(rng.integers(0, 8)))
            else:
                index = np.repeat(np.arange(len(heads)), rng.integers(1, 4, len(heads)))
            runs = RunJaggedTensor(from_rows(heads), index)
            assert to_pylists(expand_runs(runs)) == [heads[h] for h in runs.head_index]

    def test_slice_inside_a_run_holds_its_head(self):
        runs = RunJaggedTensor(from_rows([[1, 2], [3], []]), [0, 0, 0, 1, 2, 2])
        part = slice_rows(runs, 1, 4)
        assert to_pylists(part.heads) == [[1, 2], [3]]
        assert part.head_index.tolist() == [0, 0, 1]
        assert to_pylists(expand_runs(part)) == [[1, 2], [1, 2], [3]]

    def test_slice_after_a_head_it_uses_gathers_its_heads(self):
        runs = RunJaggedTensor(from_rows([[1], [2, 2], [3]]), [0, 1, 2, 1, 0])
        part = slice_rows(runs, 3, 5)  # uses head 1, then head 0
        assert to_pylists(part.heads) == [[2, 2], [1]]
        assert part.head_index.tolist() == [0, 1]
        view = slice_rows(runs, 1, 4)  # its own heads, in order of first use
        assert to_pylists(view.heads) == [[2, 2], [3]]
        assert view.head_index.tolist() == [0, 1, 0]
        assert np.shares_memory(view.heads.values, runs.heads.values)

    @settings(max_examples=200, deadline=None)
    @given(runs=run_tensors(), other=run_tensors(), data=st.data())
    def test_layout_helpers_match_laid_out_rows(self, runs, other, data):
        rows = to_pylists(expand_runs(runs))
        assert rows == [to_pylists(runs.heads)[h] for h in runs.head_index]
        start = data.draw(st.integers(0, len(rows) - 1))
        stop = data.draw(st.integers(start + 1, len(rows)))
        assert to_pylists(expand_runs(slice_rows(runs, start, stop))) == rows[start:stop]
        idx = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=10)), dtype=np.int64)
        assert to_pylists(jagged_index_select(runs, idx)) == [rows[i] for i in idx]
        plain = expand_runs(other)
        joined = concat_rows([runs, plain, other])
        assert isinstance(joined, RunJaggedTensor)
        assert to_pylists(expand_runs(joined)) == rows + 2 * to_pylists(plain)
        assert type(concat_rows([plain, plain])) is JaggedTensor

    @settings(max_examples=200, deadline=None)
    @given(f=run_tensors(), g=run_tensors(), plain_g=st.booleans())
    def test_build_ikjt_on_heads_matches_laid_out_rows(self, f, g, plain_g):
        n = min(f.row_count, g.row_count)
        f, g = slice_rows(f, 0, n), slice_rows(g, 0, n)
        if plain_g:
            g = expand_runs(g)
        batch = _batch(f=f, g=g)
        laid_out = build_kjt(batch, ["f", "g"])
        assert all(type(jt) is JaggedTensor for jt in laid_out.entries.values())
        for group in (["f"], ["g", "f"]):
            got = build_ikjt(batch, group)
            first, inverse = PADDED_ORACLE([laid_out.entries[k] for k in group])
            np.testing.assert_array_equal(got.inverse_lookup, inverse)
            for key in group:
                assert jt_equal(got.per_feature[key], jagged_index_select(laid_out.entries[key], first))

    def test_build_ikjt_keys_group_heads_only(self, monkeypatch):
        # f's heads are rows 0, 3, 5; g's are rows 0, 2, 5: group heads 0, 2, 3, 5
        f = RunJaggedTensor(from_rows([[1], [2], [1]]), [0, 0, 0, 1, 1, 2, 2])
        g = RunJaggedTensor(from_rows([[], [5], []]), [0, 0, 1, 1, 1, 2, 2])
        batch = _batch(f=f, g=g)
        keyed = []
        unique_rows = tensors._unique_rows
        monkeypatch.setattr(tensors, "_unique_rows", lambda jts: keyed.append(jts) or unique_rows(jts))
        ikjt = build_ikjt(batch, ["f", "g"])
        assert [to_pylists(jt) for jt in keyed[0]] == [[[1], [1], [2], [1]], [[], [5], [5], []]]
        assert ikjt.inverse_lookup.tolist() == [0, 0, 1, 2, 2, 0, 0]

    def test_build_ikjt_keys_first_use_of_each_head_tuple(self, monkeypatch):
        # Row 2 starts no head in either member, yet its tuple (0, 1) is
        # new; row 3's tuple (1, 1) was row 1's.
        f = RunJaggedTensor(from_rows([[1], [2]]), [0, 1, 0, 1, 0])
        g = RunJaggedTensor(from_rows([[5], [6]]), [0, 1, 1, 1, 0])
        keyed = []
        unique_rows = tensors._unique_rows
        monkeypatch.setattr(tensors, "_unique_rows", lambda jts: keyed.append(jts) or unique_rows(jts))
        ikjt = build_ikjt(_batch(f=f, g=g), ["f", "g"])
        assert [to_pylists(jt) for jt in keyed[0]] == [[[1], [2], [1]], [[5], [6], [6]]]
        assert ikjt.inverse_lookup.tolist() == [0, 1, 2, 1, 0]

    def test_build_ikjt_keeps_distinct_rows_as_they_are(self):
        # every keyed row is distinct, so no identity gather copies them
        f = from_rows([[1], [2, 3], []])
        runs = RunJaggedTensor(from_rows([[1], [2]]), [0, 1, 0])
        assert build_ikjt(_batch(f=f), ["f"]).per_feature["f"] is f
        assert build_ikjt(_batch(f=runs), ["f"]).per_feature["f"] is runs.heads

    def test_expand_runs_returns_a_plain_tensor_itself(self):
        jt = from_rows([[1, 2], [], [1, 2]])
        assert expand_runs(jt) is jt

    def test_expand_runs_returns_heads_under_the_identity_index(self):
        # no row repeats a head, so the heads are the rows: no copy
        runs = RunJaggedTensor(from_rows([[1, 2], [], [3]]), [0, 1, 2])
        assert expand_runs(runs) is runs.heads

    @staticmethod
    def _as_heads(jt, form, k):
        """``jt`` in ``form``: plain, its own heads under the identity
        index, or (``mixed``) plain for even ``k`` and its distinct rows
        plus a back-referencing index for odd ``k``."""
        if form == "identity":
            return RunJaggedTensor(jt, np.arange(jt.row_count))
        if form == "mixed" and k % 2:
            first, inverse = PADDED_ORACLE([jt])
            return RunJaggedTensor(jagged_index_select(jt, first), inverse)
        return jt

    @pytest.mark.parametrize("form", ["plain", "mixed", "identity"])
    @settings(max_examples=100, deadline=None)
    @given(rows=keyed_groups())
    def test_build_ikjt_matches_padded_oracle_in_every_form(self, form, rows):
        jts = group_of(rows)
        batch = _batch(**{f"f{k}": self._as_heads(jt, form, k) for k, jt in enumerate(jts)})
        got = build_ikjt(batch, list(batch.features.entries))
        first, inverse = PADDED_ORACLE(jts)
        np.testing.assert_array_equal(got.inverse_lookup, inverse)
        for k, jt in enumerate(jts):
            assert jt_equal(got.per_feature[f"f{k}"], jagged_index_select(jt, first))

    def test_build_ikjt_on_heads_falls_back_on_a_forced_collision(self, monkeypatch, padded_calls):
        f = RunJaggedTensor(from_rows([[1, 2], [2, 1], [], [0]]), [0, 1, 1, 2, 0, 3])
        # row 4 starts a head in g only, so it is keyed, yet equals row 0
        g = RunJaggedTensor(from_rows([[5], [], [5], [0, 0]]), [0, 0, 0, 1, 2, 3])
        monkeypatch.setattr(tensors, "_row_keys", lambda jts: np.zeros(jts[0].row_count, np.uint64))
        got = build_ikjt(_batch(f=f, g=g), ["f", "g"])
        assert padded_calls  # the merges the constant key proposed failed the check
        first, inverse = PADDED_ORACLE([expand_runs(f), expand_runs(g)])
        np.testing.assert_array_equal(got.inverse_lookup, inverse)
        assert got.inverse_lookup.tolist() == [0, 1, 1, 2, 0, 3]
        assert to_pylists(got.per_feature["f"]) == [[1, 2], [2, 1], [], [0]]
        assert to_pylists(got.per_feature["g"]) == [[5], [5], [], [0, 0]]


class TestWindowIndex:
    def test_matches_concatenated_ranges(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(0, 8))
            starts = rng.integers(0, 40, size=n)
            lengths = rng.integers(0, 5, size=n)
            gather, offsets = window_index(starts, lengths)
            expected = [i for s, k in zip(starts, lengths) for i in range(s, s + k)]
            assert gather.tolist() == expected
            assert offsets.tolist() == (np.cumsum(lengths) - lengths).tolist()
            assert gather.dtype == offsets.dtype == np.int64


class TestDedupeModel:
    def test_worked_example_exact(self):
        model = DedupeModel(
            samples_per_session=3, batch_size=3, avg_len=3, unchanged_prob=0.5
        )
        assert dedupe_len(model) == 6.0
        assert dedupe_factor(model) == 1.5

    def test_no_duplication_limit(self):
        model = DedupeModel(
            samples_per_session=4, batch_size=10, avg_len=5, unchanged_prob=0.0
        )
        assert dedupe_len(model) == 50.0
        assert dedupe_factor(model) == 1.0

    def test_full_duplication_limit(self):
        # d=1: only one distinct row per session survives, factor -> S
        model = DedupeModel(
            samples_per_session=4, batch_size=8, avg_len=2, unchanged_prob=1.0
        )
        assert dedupe_len(model) == pytest.approx(16 * (1 / 4))
        assert dedupe_factor(model) == pytest.approx(4.0)

    def test_fractional_session_length(self):
        model = DedupeModel(
            samples_per_session=16.5, batch_size=100, avg_len=10, unchanged_prob=1.0
        )
        assert dedupe_factor(model) == pytest.approx(16.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DedupeModel(samples_per_session=0.5, batch_size=1, avg_len=1, unchanged_prob=0)
        with pytest.raises(ValueError):
            DedupeModel(samples_per_session=1, batch_size=0, avg_len=1, unchanged_prob=0)
        with pytest.raises(ValueError):
            DedupeModel(samples_per_session=1, batch_size=1, avg_len=0, unchanged_prob=0)
        with pytest.raises(ValueError):
            DedupeModel(samples_per_session=1, batch_size=1, avg_len=1, unchanged_prob=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field, rule", [("samples_per_session", "finite and >= 1"), ("avg_len", "finite and > 0")]
    )
    def test_non_finite_number_rejected(self, field, rule, value):
        # nan passes `< 1` and `<= 0` checks and inf passes both, and
        # either makes dedupe_len nan
        args = dict(samples_per_session=4, batch_size=8, avg_len=2, unchanged_prob=0.5)
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {value}$"):
            DedupeModel(**{**args, field: value})

    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "string", "none"])
    @pytest.mark.parametrize("field", ["samples_per_session", "avg_len", "unchanged_prob"])
    def test_non_number_rejected(self, field, value):
        # True passed every range check as 1, and a string failed a
        # comparison that named no field
        args = dict(samples_per_session=4, batch_size=8, avg_len=2, unchanged_prob=0.5)
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
            DedupeModel(**{**args, field: value})

    def test_measured_factor_on_worked_batch(self):
        # three identical-session rows with one change: 9 values -> 6
        rows = [{"b": [3, 4, 5]}, {"b": [4, 5, 6]}, {"b": [3, 4, 5]}]
        ikjt = build_ikjt(as_batch(rows), ["b"])
        baseline = build_kjt(as_batch(rows), ["b"])
        assert measured_dedupe_factor(ikjt, baseline) == {"b": 1.5}

    def test_measured_factor_empty_feature(self):
        rows = [{"b": []}, {"b": []}]
        ikjt = build_ikjt(as_batch(rows), ["b"])
        baseline = build_kjt(as_batch(rows), ["b"])
        assert measured_dedupe_factor(ikjt, baseline) == {"b": 1.0}


def ikjt_bytes(ikjt: IKJT) -> int:
    return payload_bytes(ikjt.per_feature, ikjt.batch_size)


def kjt_bytes(kjt: KJT) -> int:
    return payload_bytes(kjt.entries, 0)


class TestSerialization:
    """``payload_bytes``, the size rule of the tensor layout, against the
    reference serializer in ``tests/rows.py``."""

    def test_identity_ikjt_costs_exactly_one_slot_per_row(self):
        # all-distinct batch: IKJT carries the same streams plus B lookups
        rows = [{"a": [i, i + 1], "b": [i]} for i in range(16)]
        kjt = build_kjt(as_batch(rows), ["a", "b"])
        ikjt = build_ikjt(as_batch(rows), ["a", "b"])
        assert ikjt_bytes(ikjt) == kjt_bytes(kjt) + 8 * 16
        assert ikjt_bytes(ikjt) == len(serialize_ikjt(ikjt))
        assert kjt_bytes(kjt) == len(serialize_kjt(kjt))

    def test_duplicates_shrink_payload(self):
        rows = [{"a": list(range(50))} for _ in range(64)]
        kjt = build_kjt(as_batch(rows), ["a"])
        ikjt = build_ikjt(as_batch(rows), ["a"])
        assert ikjt_bytes(ikjt) < kjt_bytes(kjt)
        assert ikjt_bytes(ikjt) == len(serialize_ikjt(ikjt))
        assert kjt_bytes(kjt) == len(serialize_kjt(kjt))

    def test_serialization_deterministic(self):
        ikjt = build_ikjt(as_batch(ROWS), ["c", "d"])
        again = build_ikjt(as_batch(ROWS), ["c", "d"])
        assert ikjt_bytes(ikjt) == ikjt_bytes(again) == len(serialize_ikjt(ikjt))
        assert serialize_ikjt(ikjt) == serialize_ikjt(again)

    def test_stream_size_accounting(self):
        jt = from_rows([[1, 2, 3], [4]])
        # u64 count + i64 payload for each of the two streams
        assert slice_stream_bytes(jt) == 16 + 8 * (2 + 4)
        assert values_stream_bytes(jt) == 8 * 4
