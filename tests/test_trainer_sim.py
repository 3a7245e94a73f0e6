"""Tests for the simulated-rank forward sparse path."""

import hashlib
import json
import math
import platform
import re
import threading
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rows import ImpressionRecord, as_batch, from_rows, ikjt_to_kjt, jt_equal, to_pylists
from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    default_config,
    generate_dataset,
)
from sessiondedup.reader import DataloaderSpec, convert, read_batches
from sessiondedup.storage import write_table
from sessiondedup.tensors import (
    build_ikjt,
    build_kjt,
    jagged_index_select,
    slice_rows,
    slice_stream_bytes,
    values_stream_bytes,
)
from sessiondedup import trainer_sim
from sessiondedup.trainer_sim import (
    AttentionParams,
    EmbeddingTable,
    GroupConfig,
    IterationStats,
    ModelSpec,
    PoolingUnit,
    ShardingPlan,
    activation_bytes,
    attention_pool,
    build_tables,
    default_model_spec,
    embedding_lookup,
    forward_iteration,
    load_model_spec,
    make_round_robin_plan,
    pool,
    save_model_spec,
    sdd,
    split_batch,
)


def rec(sid, ts, feats, label=0):
    return ImpressionRecord(
        session_id=sid,
        timestamp=ts,
        features={k: np.asarray(v, dtype=np.int64) for k, v in feats.items()},
        label=label,
    )


def identity_table(key, rows):
    """dim=1 table mapping ID i to the vector [i]."""
    return EmbeddingTable(
        key=key,
        weights=np.arange(rows, dtype=np.float32).reshape(-1, 1),
    )


WORKED_ROWS = [
    rec(0, 0, {"b": [3, 4, 5], "c": [7, 8], "d": [9]}),
    rec(0, 1, {"b": [4, 5, 6], "c": [7, 8], "d": [9]}),
    rec(0, 2, {"b": [3, 4, 5], "c": [10], "d": [11]}),
]


def random_batch(rng, batch_size, keys=("u", "v"), dup_rate=0.6, max_len=6):
    """Session-like rows where consecutive rows repeat with dup_rate."""
    rows = []
    state = {
        k: rng.integers(0, 1000, size=rng.integers(1, max_len + 1)).tolist()
        for k in keys
    }
    sid = 0
    for i in range(batch_size):
        if rows and rng.random() > dup_rate:
            sid += 1
            state = {
                k: rng.integers(0, 1000, size=rng.integers(0, max_len + 1)).tolist()
                for k in keys
            }
        feats = dict(state)
        feats["plain_item"] = rng.integers(0, 1000, size=2).tolist()
        rows.append(rec(sid, i, feats, label=int(rng.random() < 0.5)))
    return rows


def _attention_pool_reference(per_key_activations, params):
    """Row-by-row attention pooling: the oracle for ``attention_pool``."""
    n_rows = per_key_activations[0][1].size
    d = params.w_q.shape[0]
    scale = np.float32(1.0 / math.sqrt(d))
    out = np.zeros((n_rows, d), dtype=np.float32)
    macs = 0
    all_bounds = [
        (acts, np.append(offs, acts.shape[0])) for acts, offs in per_key_activations
    ]
    for i in range(n_rows):
        segs = [acts[b[i] : b[i + 1]] for acts, b in all_bounds]
        x = segs[0] if len(segs) == 1 else np.concatenate(segs, axis=0)
        n = x.shape[0]
        if n == 0:
            continue
        q = x @ params.w_q
        k = x @ params.w_k
        v = x @ params.w_v
        scores = (q @ k.T) * scale
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        ctx = scores @ v
        pooled = ctx.mean(axis=0)
        out[i] = pooled @ params.w_o
        macs += 3 * n * d * d + 2 * n * n * d + d * d
    return out, macs


def _attention_inputs(rng, lens_per_key, dim):
    """(activations, offsets) per key from a (keys, rows) length table."""
    inputs = []
    for lens in lens_per_key:
        lens = np.asarray(lens, dtype=np.int64)
        offs = np.cumsum(lens) - lens
        acts = rng.uniform(-1, 1, size=(int(lens.sum()), dim)).astype(np.float32)
        inputs.append((acts, offs))
    return inputs


def _assert_matches_reference(inputs, params):
    out, macs = attention_pool(inputs, params)
    ref_out, ref_macs = _attention_pool_reference(inputs, params)
    assert out.dtype == np.float32
    assert np.array_equal(out, ref_out)
    assert macs == ref_macs


class TestPool:
    def test_single_element_rows_identity(self):
        acts = np.array([[1.5, 2.0], [3.0, -1.0]], dtype=np.float32)
        offs = np.array([0, 1], dtype=np.int64)
        for op in ("sum", "avg", "max"):
            np.testing.assert_array_equal(pool(acts, offs, op), acts)

    def test_worked_group_sum(self):
        # dedup rows of the synchronized {c, d} group, concatenated per
        # row: [7, 8, 9] and [10, 11]; identity embeddings at dim=1
        table = identity_table("cd", 12)
        ikjt = build_ikjt(as_batch(WORKED_ROWS), ["c", "d"])
        seq_rows = [
            np.concatenate([ikjt.per_feature["c"].row(i), ikjt.per_feature["d"].row(i)])
            for i in range(ikjt.unique_count)
        ]
        seq = from_rows(seq_rows)
        acts = embedding_lookup(seq, table)
        pooled = pool(acts, seq.offsets, "sum")
        np.testing.assert_array_equal(pooled, [[24.0], [21.0]])
        # expansion through the shared inverse recovers per-sample rows
        expanded = pooled[ikjt.inverse_lookup]
        np.testing.assert_array_equal(expanded, [[24.0], [24.0], [21.0]])

    def test_empty_rows_zero_for_every_op(self):
        acts = np.array([[2.0, 2.0]], dtype=np.float32)
        offs = np.array([0, 1], dtype=np.int64)  # row 1 empty
        for op in ("sum", "avg", "max"):
            out = pool(acts, offs, op)
            np.testing.assert_array_equal(out[1], [0.0, 0.0])

    def test_avg_divides_by_length(self):
        acts = np.array([[2.0], [4.0], [9.0]], dtype=np.float32)
        offs = np.array([0, 2], dtype=np.int64)
        out = pool(acts, offs, "avg")
        np.testing.assert_array_equal(out, [[3.0], [9.0]])

    def test_max_is_elementwise(self):
        acts = np.array([[1.0, 5.0], [4.0, 2.0]], dtype=np.float32)
        offs = np.array([0], dtype=np.int64)
        np.testing.assert_array_equal(pool(acts, offs, "max"), [[4.0, 5.0]])

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            pool(np.zeros((1, 1), dtype=np.float32), np.array([0]), "median")


def _pool_reference(activations, offsets, op):
    """``ufunc.reduceat`` over every non-empty row: the oracle for ``pool``."""
    n_rows = offsets.size
    dim = activations.shape[1]
    bounds = np.append(offsets, activations.shape[0])
    lengths = np.diff(bounds)
    out = np.zeros((n_rows, dim), dtype=np.float32)
    nonempty = lengths > 0
    if nonempty.any():
        starts = bounds[:-1][nonempty]
        ufunc = np.maximum if op == "max" else np.add
        out[nonempty] = ufunc.reduceat(activations, starts, axis=0)
        if op == "avg":
            out[nonempty] /= lengths[nonempty].astype(np.float32)[:, None]
    return out


def _left_to_right_sum(activations, offsets):
    """Each row summed element by element, first to last."""
    bounds = np.append(offsets, activations.shape[0])
    out = np.zeros((offsets.size, activations.shape[1]), dtype=np.float32)
    for r, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if b > a:
            out[r] = np.add.accumulate(activations[a:b], axis=0)[-1]
    return out


def _pool_inputs(rng, lengths, dim):
    """Rows of the given lengths over float32 activations whose
    magnitudes span 12 decades, so the summation order shows in the bits."""
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(lengths.size, dtype=np.int64)
    if lengths.size > 1:
        np.cumsum(lengths[:-1], out=offsets[1:])
    total = int(lengths.sum())
    scale = 10.0 ** rng.integers(-6, 7, size=(total, dim))
    acts = (rng.standard_normal((total, dim)) * scale).astype(np.float32)
    return acts, offsets


ELEMENT_OPS = ("sum", "avg", "max")


def _assert_pool_matches_reference(acts, offsets):
    for op in ELEMENT_OPS:
        got = pool(acts, offsets, op)
        want = _pool_reference(acts, offsets, op)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), op


# Lengths at the pairwise sum's edges: the 8-lane unroll, the 128-element
# block and the halving above it (each row sums its first element plus
# the other n - 1).
BOUNDARY_LENGTHS = [0, 1, 2, 7, 8, 9, 16, 17, 128, 129, 136, 256, 257, 300]

# The block kernel's order was verified against reduceat on x86_64. There
# the pool tests run the kernel even if the import-time probe turned it
# off, so a wrong kernel fails them instead of falling back unseen.
KERNEL_VERIFIED = platform.machine().lower() in ("x86_64", "amd64")
needs_blocks = pytest.mark.skipif(
    not (KERNEL_VERIFIED or trainer_sim._BLOCKS_MATCH_REDUCEAT),
    reason="pool sends every row through reduceat with this NumPy and CPU",
)


class TestPoolMatchesReduceat:
    """``pool`` against today's ``reduceat`` oracle, bit for bit."""

    @pytest.fixture(autouse=True)
    def kernel_on(self, monkeypatch):
        if KERNEL_VERIFIED:
            monkeypatch.setattr(trainer_sim, "_BLOCKS_MATCH_REDUCEAT", True)

    @pytest.mark.parametrize("order", ["shuffled", "sorted"])
    def test_boundary_lengths(self, order):
        rng = np.random.default_rng(11)
        rows = trainer_sim._POOL_BLOCK_ROWS + 3
        lengths = np.repeat(BOUNDARY_LENGTHS, rows)
        lengths = rng.permutation(lengths) if order == "shuffled" else lengths
        acts, offsets = _pool_inputs(rng, lengths, 16)
        _assert_pool_matches_reference(acts, offsets)
        # The data tells summation orders apart: a left-to-right sum
        # misses the oracle on some row, so the test cannot pass for any
        # order at all.
        ltr = _left_to_right_sum(acts, offsets)
        assert ltr.tobytes() != _pool_reference(acts, offsets, "sum").tobytes()

    @pytest.fixture
    def block_shapes(self, monkeypatch):
        """The shape of every block ``pool`` hands to ``_reduce_block``."""
        shapes = []
        real = trainer_sim._reduce_block
        monkeypatch.setattr(
            trainer_sim, "_reduce_block", lambda x, u: shapes.append(x.shape) or real(x, u)
        )
        return shapes

    @needs_blocks
    def test_block_path_taken(self, block_shapes):
        # Buckets of at least _POOL_BLOCK_ROWS rows reduce as blocks.
        rng = np.random.default_rng(12)
        lengths = rng.permutation(np.repeat(BOUNDARY_LENGTHS, trainer_sim._POOL_BLOCK_ROWS))
        acts, offsets = _pool_inputs(rng, lengths, 16)
        pool(acts, offsets, "sum")
        assert sorted(n for _, n, _ in block_shapes) == BOUNDARY_LENGTHS[1:]

    @needs_blocks
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_bucket_sizes_around_block_rows(self, delta, block_shapes):
        rng = np.random.default_rng(13 + delta)
        m = trainer_sim._POOL_BLOCK_ROWS + delta
        # One bucket of m rows of length 40; a few short rows of other
        # lengths sit between its rows.
        lengths = rng.permutation(np.concatenate([np.full(m, 40), [3, 5, 0, 9, 1, 2]]))
        acts, offsets = _pool_inputs(rng, lengths, 16)
        _assert_pool_matches_reference(acts, offsets)
        assert [s for s in block_shapes if s[0] == m] == ([(m, 40, 16)] * 3 if delta >= 0 else [])

    @needs_blocks
    @pytest.mark.parametrize("bucket_rows, blocks", [(39, False), (41, True)])
    def test_half_share_rule(self, bucket_rows, blocks, block_shapes):
        # Rows of length 10 beside 400 elements in other lengths: 39 of
        # them hold under half the elements, so every row goes through
        # reduceat in place; 41 of them are a block.
        rng = np.random.default_rng(18)
        others = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 30, 45, 50, 60, 70, 80]
        assert sum(others) == 400
        lengths = rng.permutation(np.concatenate([np.full(bucket_rows, 10), others]))
        acts, offsets = _pool_inputs(rng, lengths, 16)
        _assert_pool_matches_reference(acts, offsets)
        assert bool(block_shapes) == blocks

    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_negative_zero_rows(self, dim):
        # reduceat returns -0.0 for a row of -0.0 only while the pairwise
        # sum keeps it, and a max over +0.0 and -0.0 returns whichever its
        # loop reaches last; both must come out as the oracle's bits.
        rng = np.random.default_rng(14)
        rows = trainer_sim._POOL_BLOCK_ROWS + 2
        lengths = rng.permutation(np.repeat([1, 2, 8, 9, 17, 24, 130], rows))
        acts, offsets = _pool_inputs(rng, lengths, dim)
        signed = rng.random(lengths.size) < 0.5
        for r in np.flatnonzero(signed):
            a = offsets[r]
            acts[a : a + lengths[r]] = -0.0
        zeros = rng.choice(
            np.array([-1.0, -0.0, 0.0], dtype=np.float32), size=acts.shape
        )
        mixed = rng.random(lengths.size) < 0.5
        for r in np.flatnonzero(mixed & ~signed):
            a = offsets[r]
            acts[a : a + lengths[r]] = zeros[a : a + lengths[r]]
        _assert_pool_matches_reference(acts, offsets)

    def test_all_distinct_lengths(self):
        rng = np.random.default_rng(15)
        acts, offsets = _pool_inputs(rng, rng.permutation(np.arange(300)), 16)
        _assert_pool_matches_reference(acts, offsets)

    def test_consecutive_and_scattered_buckets(self):
        # Length 5 rows run back to back (a view); length 6 rows are
        # scattered (a gather); empty rows sit in both runs.
        rng = np.random.default_rng(16)
        m = trainer_sim._POOL_BLOCK_ROWS
        lengths = np.concatenate([np.full(m, 5), [0, 0], np.tile([6, 0, 6, 2], m)])
        acts, offsets = _pool_inputs(rng, lengths, 16)
        _assert_pool_matches_reference(acts, offsets)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 300), st.integers(1, 70)), min_size=0, max_size=6),
        st.sampled_from([1, 3, 16]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, buckets, dim, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array([n for n, m in buckets for _ in range(m)], dtype=np.int64)
        acts, offsets = _pool_inputs(rng, rng.permutation(lengths), dim)
        _assert_pool_matches_reference(acts, offsets)


class TestBlockProbe:
    """The import-time check that decides whether ``pool`` uses blocks."""

    @pytest.mark.skipif(not KERNEL_VERIFIED, reason="the kernel was verified on x86_64")
    def test_probe_passes_where_verified(self):
        assert trainer_sim._blocks_match_reduceat()

    def test_probe_rejects_left_to_right_sum(self, monkeypatch):
        def left_to_right(x):
            return np.add.accumulate(x, axis=1)[:, -1]

        monkeypatch.setattr(trainer_sim, "_pairwise_sum", left_to_right)
        assert not trainer_sim._blocks_match_reduceat()

    def test_probe_rejects_first_element_last(self, monkeypatch):
        # On a +0.0/-0.0 tie np.maximum returns one operand, so which
        # side the row's first element takes shows in the sign.
        def first_last(x, ufunc):
            rest = x[:, 1:]
            if not rest.shape[1]:
                return x[:, 0].copy()
            if ufunc is np.add:
                return trainer_sim._pairwise_sum(rest) + x[:, 0]
            return ufunc(trainer_sim._unrolled(rest, ufunc), x[:, 0])

        monkeypatch.setattr(trainer_sim, "_reduce_block", first_last)
        assert not trainer_sim._blocks_match_reduceat()

    def test_inexact_blocks_fall_back_to_reduceat(self, monkeypatch):
        def no_blocks(x, ufunc):
            raise AssertionError("block kernel called")

        monkeypatch.setattr(trainer_sim, "_BLOCKS_MATCH_REDUCEAT", False)
        monkeypatch.setattr(trainer_sim, "_reduce_block", no_blocks)
        rng = np.random.default_rng(17)
        lengths = rng.permutation(np.repeat(BOUNDARY_LENGTHS, trainer_sim._POOL_BLOCK_ROWS + 1))
        acts, offsets = _pool_inputs(rng, lengths, 16)
        _assert_pool_matches_reference(acts, offsets)


class TestOffsetsValidated:
    """Offsets that do not tile the activations are rejected, naming the
    first bad row, by ``pool`` and ``attention_pool`` alike."""

    @pytest.mark.parametrize(
        "offsets, row",
        [
            pytest.param([0, 3, 2], 2, id="decreasing"),
            pytest.param([0, 7], 1, id="past-the-end"),
            pytest.param([2, 4], 0, id="not-from-0"),
            pytest.param([0, 6, 2], 1, id="past-the-end-then-back"),
            pytest.param([0, 2, 2, 1], 3, id="decreasing-after-empty"),
            pytest.param([0, 2**62, -(2**63), -(2**62)], 1, id="wrapped-lengths"),
        ],
    )
    def test_bad_offsets_rejected(self, offsets, row):
        acts = np.ones((5, 4), dtype=np.float32)
        offsets = np.array(offsets, dtype=np.int64)
        for op in ELEMENT_OPS:
            with pytest.raises(ValueError, match=rf"row {row} starts at {offsets[row]}\b"):
                pool(acts, offsets, op)
        params = AttentionParams.create("g", 4, seed=0)
        with pytest.raises(ValueError, match=rf"row {row} starts at {offsets[row]}\b"):
            attention_pool([(acts, offsets)], params)

    def test_tiling_offsets_accepted(self):
        acts = np.ones((5, 4), dtype=np.float32)
        for offsets in ([], [0], [0, 5], [0, 0, 5, 5], [0, 2, 2, 5]):
            offsets = np.array(offsets, dtype=np.int64)
            assert pool(acts, offsets, "sum").shape == (offsets.size, 4)
            out, _ = attention_pool([(acts, offsets)], AttentionParams.create("g", 4, seed=0))
            assert out.shape == (offsets.size, 4)


class TestLengthBuckets:
    def test_stable_runs_without_empty_rows(self):
        lengths = np.array([3, 0, 1, 3, 2, 1, 0, 3])
        rows, bounds = trainer_sim._length_buckets(lengths)
        assert rows.tolist() == [2, 5, 4, 0, 3, 7]
        assert bounds.tolist() == [0, 2, 3, 6]

    def test_no_rows(self):
        for lengths in ([], [0, 0]):
            rows, bounds = trainer_sim._length_buckets(np.array(lengths, dtype=np.int64))
            assert rows.size == 0 and bounds.tolist() == [0]
        rows, bounds = trainer_sim._length_buckets(np.zeros((2, 3), dtype=np.int64))
        assert rows.size == 0 and bounds.tolist() == [0]

    def test_matrix_buckets_by_every_keys_length(self):
        # Rows 0-2 and 4 all hold 4 elements, split (1, 3) or (2, 2);
        # row 3 is empty in both keys and row 5 only in the first.
        lengths = np.array([[1, 2, 1, 0, 2, 0], [3, 2, 3, 0, 2, 4]])
        rows, bounds = trainer_sim._length_buckets(lengths)
        assert rows.tolist() == [1, 4, 0, 2, 5]
        assert bounds.tolist() == [0, 2, 4, 5]


class TestEmbeddingLookup:
    def test_lookup_counts(self):
        # baseline looks up 9 IDs for feature b, dedup only 6
        table = identity_table("b", 16)
        base = embedding_lookup(build_kjt(as_batch(WORKED_ROWS), ["b"]).entries["b"], table)
        dedup = embedding_lookup(
            build_ikjt(as_batch(WORKED_ROWS), ["b"]).per_feature["b"], table
        )
        assert base.shape == (9, 1)
        assert dedup.shape == (6, 1)

    def test_empty_values(self):
        table = identity_table("f", 4)
        jt = from_rows([[], []])
        out = embedding_lookup(jt, table)
        assert out.shape == (0, 1)

    def test_expanded_dedup_activations_match_baseline(self):
        table = EmbeddingTable.create("b", rows=16, dim=8, seed=3)
        ikjt = build_ikjt(as_batch(WORKED_ROWS), ["b"])
        baseline = build_kjt(as_batch(WORKED_ROWS), ["b"]).entries["b"]
        expanded = ikjt_to_kjt(ikjt).entries["b"]
        a = embedding_lookup(expanded, table)
        b = embedding_lookup(baseline, table)
        np.testing.assert_array_equal(a, b)

    def test_out_of_range_error_names_key_and_position(self):
        table = identity_table("b", 4)
        jt = from_rows([[1], [9]])
        with pytest.raises(ValueError, match=r"'b'.*ID 9 at position 1"):
            embedding_lookup(jt, table, "b")

    @pytest.mark.parametrize(
        "bad, later", [(-1, 1), (4, 1), (-1, 4), (4, -1), (-(2**63), 2**63 - 1)]
    )
    def test_out_of_range_id_reported_at_first_bad_position(self, bad, later):
        # np.take would wrap a negative ID to a real row, so only the
        # range check catches it.
        table = identity_table("b", 4)
        jt = from_rows([[0, 3], [bad, 2], [later]])
        with pytest.raises(
            ValueError, match=rf"^feature 'b': ID {bad} at position 2 out of range \[0, 4\)$"
        ):
            embedding_lookup(jt, table, "b")

    def test_table_drawn_in_chunks_matches_one_shot_draw(self):
        rows = 2 * trainer_sim._TABLE_CHUNK_ROWS + 5
        table = EmbeddingTable.create("t", rows, 3, seed=7)
        rng = trainer_sim._key_seed(7, "table", "t")
        want = rng.uniform(-0.1, 0.1, size=(rows, 3)).astype(np.float32)
        assert table.weights.tobytes() == want.tobytes()
        assert not table.weights.flags.writeable


class TestAttentionPool:
    @staticmethod
    def make_inputs(rng, n_rows, dim, max_len=5):
        acts, offs, lens = [], [], []
        pos = 0
        for _ in range(n_rows):
            offs.append(pos)
            n = int(rng.integers(1, max_len + 1))
            lens.append(n)
            pos += n
        all_acts = rng.uniform(-1, 1, size=(pos, dim)).astype(np.float32)
        return all_acts, np.array(offs, dtype=np.int64), lens

    def test_output_shape_and_determinism(self):
        rng = np.random.default_rng(0)
        acts, offs, _ = self.make_inputs(rng, 6, 4)
        params = AttentionParams.create("g", 4, seed=1)
        out1, macs1 = attention_pool([(acts, offs)], params)
        out2, macs2 = attention_pool([(acts, offs)], params)
        assert out1.shape == (6, 4)
        assert out1.dtype == np.float32
        np.testing.assert_array_equal(out1, out2)
        assert macs1 == macs2 > 0

    def test_mac_count_formula(self):
        dim = 4
        params = AttentionParams.create("g", dim, seed=1)
        acts = np.ones((3, dim), dtype=np.float32)
        offs = np.array([0], dtype=np.int64)  # one row, n=3
        _, macs = attention_pool([(acts, offs)], params)
        n = 3
        assert macs == 3 * n * dim * dim + 2 * n * n * dim + dim * dim

    def test_duplicated_batch_cuts_macs_by_b(self):
        # U=1 after dedup: mac count is baseline/B for B identical rows
        rng = np.random.default_rng(2)
        dim = 8
        params = AttentionParams.create("g", dim, seed=5)
        row = rng.uniform(-1, 1, size=(4, dim)).astype(np.float32)
        B = 6
        base_acts = np.concatenate([row] * B)
        base_offs = np.arange(0, 4 * B, 4, dtype=np.int64)
        _, base_macs = attention_pool([(base_acts, base_offs)], params)
        _, dedup_macs = attention_pool([(row, np.array([0], dtype=np.int64))], params)
        assert base_macs == B * dedup_macs

    def test_identical_rows_give_identical_outputs(self):
        rng = np.random.default_rng(3)
        dim = 4
        params = AttentionParams.create("g", dim, seed=7)
        row = rng.uniform(-1, 1, size=(3, dim)).astype(np.float32)
        acts = np.concatenate([row, row])
        offs = np.array([0, 3], dtype=np.int64)
        out, _ = attention_pool([(acts, offs)], params)
        np.testing.assert_array_equal(out[0], out[1])

    def test_group_concatenation_order(self):
        # two features [a], [b] per row must equal one feature [a, b]
        rng = np.random.default_rng(4)
        dim = 4
        params = AttentionParams.create("g", dim, seed=9)
        a = rng.uniform(-1, 1, size=(2, dim)).astype(np.float32)
        b = rng.uniform(-1, 1, size=(2, dim)).astype(np.float32)
        offs = np.array([0, 1], dtype=np.int64)
        split_out, _ = attention_pool([(a, offs), (b, offs)], params)
        merged = np.stack([a[0], b[0], a[1], b[1]])
        merged_offs = np.array([0, 2], dtype=np.int64)
        merged_out, _ = attention_pool([(merged, merged_offs)], params)
        np.testing.assert_array_equal(split_out, merged_out)

    def test_empty_row_gives_zero_vector(self):
        dim = 4
        params = AttentionParams.create("g", dim, seed=11)
        acts = np.ones((2, dim), dtype=np.float32)
        offs = np.array([0, 2], dtype=np.int64)  # row 1 empty
        out, _ = attention_pool([(acts, offs)], params)
        np.testing.assert_array_equal(out[1], np.zeros(dim, dtype=np.float32))

    def test_dim_mismatch_rejected(self):
        params = AttentionParams.create("g", 4, seed=1)
        acts = np.ones((2, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="dim"):
            attention_pool([(acts, np.array([0], dtype=np.int64))], params)



class TestBatchedAttentionPool:
    """Length-bucketed ``attention_pool`` against the row-by-row oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda keys: st.integers(0, 40).flatmap(
                lambda rows: st.lists(
                    st.lists(st.integers(0, 6), min_size=rows, max_size=rows),
                    min_size=keys,
                    max_size=keys,
                )
            )
        ),
        st.sampled_from([1, 4, 16]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, lens_per_key, dim, seed):
        rng = np.random.default_rng(seed)
        inputs = _attention_inputs(rng, lens_per_key, dim)
        _assert_matches_reference(inputs, AttentionParams.create("g", dim, seed=seed))

    @pytest.mark.parametrize(
        "lens_per_key",
        [
            pytest.param([[]], id="zero-rows"),
            pytest.param([[0, 0, 0], [0, 0, 0]], id="all-empty"),
            pytest.param([[5]], id="single-row"),
            pytest.param(
                [[0, 1, 2, 3, 3, 0], [3, 2, 1, 0, 0, 3], [0, 0, 0, 0, 0, 0]],
                id="same-n-split-differently",
            ),
            pytest.param([list(range(60, 0, -1))], id="many-lengths"),
        ],
    )
    def test_edge_cases_match_reference(self, lens_per_key):
        rng = np.random.default_rng(len(lens_per_key[0]))
        inputs = _attention_inputs(rng, lens_per_key, 16)
        _assert_matches_reference(inputs, AttentionParams.create("g", 16, seed=3))

    def test_row_output_independent_of_block(self):
        rng = np.random.default_rng(5)
        dim = 16
        params = AttentionParams.create("g", dim, seed=5)
        row = rng.uniform(-1, 1, size=(7, dim)).astype(np.float32)
        alone, _ = attention_pool([(row, np.array([0], dtype=np.int64))], params)
        copies, _ = attention_pool(
            [(np.concatenate([row] * 1000), np.arange(0, 7000, 7, dtype=np.int64))],
            params,
        )
        mixed_rows = [
            rng.uniform(-1, 1, size=(n, dim)).astype(np.float32)
            for n in (3, 7, 12, 1, 0, 30)
        ]
        mixed_rows.insert(2, row)
        lens = np.array([r.shape[0] for r in mixed_rows], dtype=np.int64)
        mixed, _ = attention_pool(
            [(np.concatenate(mixed_rows), np.cumsum(lens) - lens)], params
        )
        assert np.array_equal(copies, np.repeat(alone, 1000, axis=0))
        assert np.array_equal(mixed[2], alone[0])

    def test_long_sequences_split_into_sub_blocks(self):
        # 300 rows of n=200 hold 12M score elements, about 23 blocks
        rng = np.random.default_rng(6)
        lens = [[200] * 300]
        assert 300 * 200 * 200 > 2 * trainer_sim._ATTENTION_BLOCK_ELEMENTS
        inputs = _attention_inputs(rng, lens, 16)
        _assert_matches_reference(inputs, AttentionParams.create("g", 16, seed=6))


class TestAttentionBlockLayout:
    """How ``attention_pool`` cuts each block from the keys' activations:
    a view of a key's part when the block's rows are consecutive, else one
    ``np.take`` per key; parts are joined only when two keys take part."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``trainer_sim``'s own ``np.take`` calls on activations
        and ``np.concatenate`` calls, through a stand-in for its ``np``."""
        counts = {"take": 0, "concatenate": 0}

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def take(self, a, *args, **kwargs):
                counts["take"] += a.dtype == np.float32
                return np.take(a, *args, **kwargs)

            def concatenate(self, *args, **kwargs):
                counts["concatenate"] += 1
                return np.concatenate(*args, **kwargs)

        monkeypatch.setattr(trainer_sim, "np", CountingNumpy())
        return counts

    @staticmethod
    def check(lens_per_key, seed=0):
        rng = np.random.default_rng(seed)
        inputs = _attention_inputs(rng, lens_per_key, 16)
        _assert_matches_reference(inputs, AttentionParams.create("g", 16, seed=seed))

    def test_lone_key_block_is_a_view(self, calls):
        self.check([[5] * 40])
        assert calls == {"take": 0, "concatenate": 0}

    def test_two_keys_of_uniform_lengths(self, calls):
        self.check([[3] * 40, [2] * 40])
        assert calls == {"take": 0, "concatenate": 1}

    def test_one_total_length_split_differently(self, calls):
        # Every row holds 4 elements, split (1, 3), (2, 2) or (3, 1) in
        # turn: three buckets of scattered rows, a gather per key each.
        self.check([[1, 2, 3] * 20, [3, 2, 1] * 20])
        assert calls == {"take": 6, "concatenate": 3}

    def test_key_empty_across_a_bucket(self, calls):
        # Rows 20-39 hold the second key only, so their block is its part,
        # a view; rows 0-19 join two views.
        self.check([[2] * 20 + [0] * 20, [1] * 20 + [3] * 20])
        assert calls == {"take": 0, "concatenate": 1}

    def test_rows_with_empty_rows_between(self, calls):
        self.check([[0, 4, 0, 0, 4, 4, 0, 4, 0]])
        assert calls == {"take": 1, "concatenate": 0}

    @pytest.mark.parametrize(
        "lens, takes",
        [
            # One empty row after row 150: of the three sub-blocks only the
            # middle one spans it.
            pytest.param([64] * 151 + [0] + [64] * 199, 1, id="one-gap"),
            pytest.param([64, 0] * 350, 3, id="scattered"),
        ],
    )
    def test_long_bucket_cut_into_sub_blocks(self, calls, lens, takes):
        step = trainer_sim._ATTENTION_BLOCK_ELEMENTS // (64 * 64)
        assert 2 * step < 350 <= 3 * step
        self.check([lens])
        assert calls == {"take": takes, "concatenate": 0}


class TestActivationAccounting:
    def test_worked_memory_example(self):
        assert activation_bytes(4096, 1000, 128, 4) == 4096 * 1000 * 128 * 4
        assert activation_bytes(4096, 1000, 128, 4) == 2_097_152_000

    def test_fractional_length(self):
        assert activation_bytes(10, 2.5, 4, 4) == 400


def split_cases():
    """Batches for the rank split, as (name, rows)."""
    rng = np.random.default_rng(7)
    return [
        ("random", random_batch(rng, 37)),
        (
            "all-duplicate",
            [rec(0, i, {"u": [1, 2], "v": [3], "plain_item": [i]}) for i in range(12)],
        ),
        (
            "no-duplicate",
            [rec(i, i, {"u": [i], "v": [i, i + 1], "plain_item": [i]}) for i in range(11)],
        ),
        ("empty-lists", [rec(i, i, {"u": [], "v": [], "plain_item": []}) for i in range(6)]),
        ("two-rows", random_batch(rng, 2)),
    ]


def mixed_model_spec():
    """An attention group, an element-wise group and two plain keys."""
    return ModelSpec(
        tables={k: 1000 for k in ("a1", "a2", "e", "p1", "p2")},
        groups=(GroupConfig(("a1", "a2"), "attention"), GroupConfig(("e",), "max")),
        plain={"p1": "sum", "p2": "avg"},
        dim=4,
    )


MIXED_UNITS = (
    (("a1", "a2"), "attention", True),
    (("e",), "max", True),
    (("p1",), "sum", False),
    (("p2",), "avg", False),
)

DEFAULT_UNITS = (
    (("cart_item_ids", "cart_seller_ids"), "attention", True),
    (("viewed_ids",), "sum", True),
    (("liked_ids",), "max", True),
    (("clicked_ids",), "avg", True),
    (("item_id",), "sum", False),
    (("item_category_ids",), "sum", False),
)


def unit_order_case(which):
    """(model spec, columnar batch of its keys) for the default model
    spec on a small default-config dataset, or for the mixed spec."""
    if which == "default":
        cfg, specs = default_config(seed=0, num_sessions=6)
        return default_model_spec(specs), generate_dataset(cfg, specs)
    rows = random_batch(np.random.default_rng(29), 25, keys=("a1", "a2", "e", "p1", "p2"))
    return mixed_model_spec(), as_batch(rows)


SPLIT_CASES = [
    pytest.param(rows, ranks, id=f"{name}-R{ranks}")
    for name, rows in split_cases()
    for ranks in (1, 2, 3, 8)
]


class TestSplitBatch:
    def reader_spec(self):
        return DataloaderSpec(
            keys=("u", "v", "plain_item"),
            dedup_sparse_features=(("u", "v"),),
            batch_size=64,
        )

    def split(self, rows, mode, ranks):
        spec = self.reader_spec()
        batch = convert(as_batch(rows), spec if mode == "dedup" else spec.without_dedup())
        model = TestForwardIteration().model_spec()
        return batch, split_batch(batch, model, mode, ranks)

    def test_chunk_sizes(self):
        rows = random_batch(np.random.default_rng(0), 10)
        for mode in ("baseline", "dedup"):
            batch, units = self.split(rows, mode, 4)
            group, plain = units
            assert np.diff(plain.bounds).tolist() == [3, 3, 2, 2]
            assert group.bounds.size == 5
        with pytest.raises(ValueError, match="num_ranks"):
            split_batch(batch, TestForwardIteration().model_spec(), "dedup", 0)

    def test_renumbers_in_first_occurrence_order(self):
        # rank 0 takes rows [1], [2], [1]; rank 1 takes [3], [2], so [2]
        # is kept once per rank
        rows = [rec(0, i, {"f": [x]}) for i, x in enumerate([1, 2, 1, 3, 2])]
        spec = DataloaderSpec(keys=("f",), dedup_sparse_features=(("f",),), batch_size=8)
        model = ModelSpec(
            tables={"f": 4},
            groups=(GroupConfig(keys=("f",), pooling="sum"),),
            plain={},
            dim=1,
        )
        (unit,) = split_batch(convert(as_batch(rows), spec), model, "dedup", 2)
        assert to_pylists(unit.tensors["f"]) == [[1], [2], [3], [2]]
        np.testing.assert_array_equal(unit.inverse, [0, 1, 0, 2, 3])
        np.testing.assert_array_equal(unit.bounds, [0, 2, 4])

    @pytest.mark.parametrize("mode", ["baseline", "dedup"])
    @pytest.mark.parametrize("which", ["default", "mixed"])
    def test_units_follow_spec_units(self, which, mode):
        model, table = unit_order_case(which)
        reader = DataloaderSpec(
            keys=model.all_keys,
            dedup_sparse_features=tuple(g.keys for g in model.groups),
            batch_size=len(table),
        )
        batch = convert(table, reader if mode == "dedup" else reader.without_dedup())
        units = split_batch(batch, model, mode, 3)
        assert len(units) == len(model.units)
        for unit, (keys, _, grouped) in zip(units, model.units):
            assert tuple(unit.tensors) == keys
            assert (unit.inverse is not None) == grouped
            if grouped and mode == "baseline":
                np.testing.assert_array_equal(unit.inverse, np.arange(batch.batch_size))

    @pytest.mark.parametrize("rows,ranks", SPLIT_CASES)
    def test_rank_slices_match_build_ikjt(self, rows, ranks):
        _, units = self.split(rows, "dedup", ranks)
        group, plain = units
        row_bounds = plain.bounds
        assert row_bounds[-1] == len(rows)
        assert group.bounds.size == row_bounds.size == min(ranks, len(rows)) + 1
        for r in range(row_bounds.size - 1):
            a, b = row_bounds[r], row_bounds[r + 1]
            direct = build_ikjt(as_batch(rows[a:b]), ["u", "v"])
            lo, hi = group.bounds[r], group.bounds[r + 1]
            np.testing.assert_array_equal(group.inverse[a:b] - lo, direct.inverse_lookup)
            for key in ("u", "v"):
                assert jt_equal(slice_rows(group.tensors[key], lo, hi), direct.per_feature[key])

    @pytest.mark.parametrize("rows,ranks", SPLIT_CASES)
    def test_plain_slices_are_views_of_row_ranges(self, rows, ranks):
        batch, units = self.split(rows, "dedup", ranks)
        plain = units[-1]
        jt = plain.tensors["plain_item"]
        assert jt is batch.kjts["plain_item"]
        assert plain.inverse is None
        for r in range(plain.bounds.size - 1):
            a, b = plain.bounds[r], plain.bounds[r + 1]
            part = slice_rows(jt, a, b)
            assert np.shares_memory(part.values, jt.values) or part.values.size == 0
            assert to_pylists(part) == [list(x.features["plain_item"]) for x in rows[a:b]]

    def test_chunks_preserve_rows(self):
        # reading each rank's slices back row by row, rank after rank,
        # gives the batch's rows in order
        rows = random_batch(np.random.default_rng(1), 13)
        _, (group, plain) = self.split(rows, "dedup", 3)
        rebuilt = []
        for r in range(plain.bounds.size - 1):
            a, b = plain.bounds[r], plain.bounds[r + 1]
            lo, hi = group.bounds[r], group.bounds[r + 1]
            inverse = group.inverse[a:b] - lo
            u, v = (
                jagged_index_select(slice_rows(group.tensors[k], lo, hi), inverse)
                for k in ("u", "v")
            )
            item = slice_rows(plain.tensors["plain_item"], a, b)
            for i in range(b - a):
                rebuilt.append(
                    (u.row(i).tolist(), v.row(i).tolist(), item.row(i).tolist())
                )
        expected = [
            (
                list(r.features["u"]),
                list(r.features["v"]),
                list(r.features["plain_item"]),
            )
            for r in rows
        ]
        assert rebuilt == expected

    @pytest.mark.parametrize("mode", ["baseline", "dedup"])
    @pytest.mark.parametrize("rows,ranks", SPLIT_CASES)
    def test_units_preserve_rows(self, rows, ranks, mode):
        _, units = self.split(rows, mode, ranks)
        for unit in units:
            for key, jt in unit.tensors.items():
                if unit.inverse is not None:
                    jt = jagged_index_select(jt, unit.inverse)
                assert to_pylists(jt) == [list(x.features[key]) for x in rows]

    @pytest.mark.parametrize("mode", ["baseline", "dedup"])
    @pytest.mark.parametrize("rows,ranks", SPLIT_CASES)
    def test_activation_elements_is_rank_peak(self, rows, ranks, mode):
        batch, units = self.split(rows, mode, ranks)
        model = TestForwardIteration().model_spec()
        row_bounds = units[-1].bounds
        peak = 0
        for r in range(row_bounds.size - 1):
            part = as_batch(rows[row_bounds[r] : row_bounds[r + 1]])
            sizes = [build_kjt(part, ["plain_item"]).entries["plain_item"].values.size]
            if mode == "dedup":
                ik = build_ikjt(part, ["u", "v"])
                sizes += [ik.per_feature[k].values.size for k in ("u", "v")]
            else:
                sizes += [build_kjt(part, [k]).entries[k].values.size for k in ("u", "v")]
            peak = max(peak, max(sizes) * model.dim)
        plan = make_round_robin_plan(model, ranks)
        _, stats = forward_iteration(batch, model, plan, mode, build_tables(model))
        assert stats.activation_elements == peak

    def test_more_ranks_than_rows(self):
        # a short tail batch: ranks beyond the row count get no rows, and
        # every row is still scored, bit-equal across modes and ranks
        rows = random_batch(np.random.default_rng(3), 2)
        batch, units = self.split(rows, "dedup", 3)
        assert np.diff(units[-1].bounds).tolist() == [1, 1]
        model = TestForwardIteration().model_spec()
        tables = build_tables(model)
        base_batch = convert(as_batch(rows), self.reader_spec().without_dedup())
        one_rank, _ = forward_iteration(
            batch, model, make_round_robin_plan(model, 1), "dedup", tables
        )
        plan = make_round_robin_plan(model, 3)
        dedup, _ = forward_iteration(batch, model, plan, "dedup", tables)
        base, _ = forward_iteration(base_batch, model, plan, "baseline", tables)
        assert dedup.shape == (2,)
        assert np.array_equal(dedup, base)
        assert np.array_equal(dedup, one_rank)


def _split_dedup_batch_as_baseline():
    rows = random_batch(np.random.default_rng(0), 4)
    batch = convert(as_batch(rows), TestForwardIteration().reader_spec())
    split_batch(batch, TestForwardIteration().model_spec(), "baseline", 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EmbeddingTable("a", np.zeros((2, 4))), "^weights must be float32$"),
        (lambda: GroupConfig((), "sum"), "^empty feature group$"),
        (lambda: GroupConfig(("a",), "median"), "^unknown pooling op 'median'$"),
        (lambda: ModelSpec({"a": 2}, (GroupConfig(("a", "b"), "sum"),)), "^feature 'b' has no table$"),
        (lambda: ShardingPlan(2, {"a": 2}), "^feature 'a' assigned to invalid rank 2$"),
        (_split_dedup_batch_as_baseline, r"^batch lacks plain tensors for \['u', 'v'\]$"),
        (lambda: attention_pool([], AttentionParams.create("g", 4, 0)), "^attention needs at least one feature$"),
        (
            lambda: attention_pool(
                [(np.zeros((2, 4), np.float32), np.array([0, 1])), (np.zeros((1, 4), np.float32), np.array([0]))],
                AttentionParams.create("g", 4, 0),
            ),
            "^group features disagree on row count$",
        ),
    ],
    ids=[
        "float64-weights",
        "empty-group",
        "pooling-op",
        "no-table",
        "rank",
        "no-plain-tensors",
        "attention-no-features",
        "attention-row-counts",
    ],
)
def test_malformed_model_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GroupConfig("uv", "attention"), TypeError, "^group keys must be a list of feature names, got 'uv'$"),
        (lambda: GroupConfig(("u", 1), "attention"), TypeError, "^group keys must hold feature names, got 1$"),
        (lambda: GroupConfig(("u", "u"), "attention"), ValueError, "^feature 'u' is listed twice in group keys$"),
    ],
    ids=["str", "non-str", "repeat"],
)
def test_group_key_list_rule(build, error, message):
    # "uv" made a two-key group and ("u", "u") one attention sequence of u twice
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ModelSpec({"a": True}, (GroupConfig(("a",), "sum"),)), "table 'a' rows"),
        (lambda: ModelSpec({"a": 10}, (GroupConfig(("a",), "sum"),), dim=True), "dim"),
    ],
    ids=["table-rows", "dim"],
)
def test_bool_is_not_a_count(build, field):
    # a JSON true loaded as the count 1
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got True$"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda n: ShardingPlan(n, {"u": 0}),
        lambda n: make_round_robin_plan(TestForwardIteration().model_spec(), n),
        lambda n: TestSplitBatch().split(random_batch(np.random.default_rng(0), 4), "dedup", n),
    ],
    ids=["ShardingPlan", "make_round_robin_plan", "split_batch"],
)
@pytest.mark.parametrize(
    "value, error, message",
    [
        (2.0, TypeError, "must be an integer, got 2.0"),
        (2.5, TypeError, "must be an integer, got 2.5"),
        (0, ValueError, "must be >= 1, got 0"),
        (True, TypeError, "must be an integer, got True"),
    ],
    ids=["whole-float", "fraction", "zero", "bool"],
)
def test_num_ranks_is_a_count(build, value, error, message):
    # a float rank count would give the plan float ranks, which
    # forward_iteration cannot index with
    with pytest.raises(error, match=f"^num_ranks {message}$"):
        build(value)


class TestSdd:
    def make_plan(self, keys, num_ranks):
        return ShardingPlan(
            num_ranks=num_ranks,
            assignment={k: i % num_ranks for i, k in enumerate(keys)},
        )

    def one_rank(self, key, jt):
        return PoolingUnit({key: jt}, None, np.array([0, jt.row_count]))

    def split_worked_rows(self, mode):
        # the worked batch once on each of 2 ranks, feature b as a
        # singleton group
        spec = DataloaderSpec(keys=("b",), dedup_sparse_features=(("b",),), batch_size=8)
        model = ModelSpec(
            tables={"b": 10},
            groups=(GroupConfig(keys=("b",), pooling="sum"),),
            plain={},
            dim=1,
        )
        batch = convert(
            as_batch(WORKED_ROWS * 2), spec if mode == "dedup" else spec.without_dedup()
        )
        return split_batch(batch, model, mode, 2)

    def test_single_rank_is_local_serialization(self):
        ikjt = build_ikjt(as_batch(WORKED_ROWS), ["b"])
        jt = ikjt.per_feature["b"]
        plan = self.make_plan(["b"], 1)
        unit = self.one_rank("b", jt)
        assert sdd([unit], plan) == slice_stream_bytes(jt)
        assert values_stream_bytes(unit.tensors["b"]) == 8 * jt.values.size

    def test_dedup_slices_shrink_values_stream(self):
        # each of 2 ranks transmits the worked batch's feature b:
        # 9 IDs as a KJT slice, 6 after dedup, factor 1.5
        plan = self.make_plan(["b"], 2)
        dedup_units = self.split_worked_rows("dedup")
        base_units = self.split_worked_rows("baseline")
        dedup_values = sum(values_stream_bytes(u.tensors["b"]) for u in dedup_units)
        base_values = sum(values_stream_bytes(u.tensors["b"]) for u in base_units)
        assert base_values == 2 * 9 * 8
        assert dedup_values == 2 * 6 * 8
        assert base_values / dedup_values == 1.5
        assert sdd(dedup_units, plan) < sdd(base_units, plan)

    def test_key_mismatch_rejected(self):
        # a key missing, extra or in two units
        plan = self.make_plan(["x"], 1)
        for unit_keys in (["y"], [], ["x", "y"], ["x", "x"]):
            units = [self.one_rank(k, from_rows([[1]])) for k in unit_keys]
            with pytest.raises(ValueError, match="do not match plan"):
                sdd(units, plan)

    @pytest.mark.parametrize("mode", ["baseline", "dedup"])
    @pytest.mark.parametrize("rows,ranks", SPLIT_CASES)
    def test_matches_per_rank_slices(self, rows, ranks, mode):
        # reference: every rank serializes its slice of every key
        _, units = TestSplitBatch().split(rows, mode, ranks)
        plan = make_round_robin_plan(TestForwardIteration().model_spec(), ranks)
        total = 0
        values = {k: 0 for k in plan.assignment}
        for r in range(min(ranks, len(rows))):
            for unit in units:
                for key, jt in unit.tensors.items():
                    part = slice_rows(jt, unit.bounds[r], unit.bounds[r + 1])
                    total += slice_stream_bytes(part)
                    values[key] += values_stream_bytes(part)
        assert sdd(units, plan) == total
        # the rank slices split each unit tensor's values stream
        assert values == {k: values_stream_bytes(jt) for u in units for k, jt in u.tensors.items()}


class TestModelSpec:
    def make_spec(self):
        return ModelSpec(
            tables={"u": 1000, "v": 1000, "plain_item": 1000},
            groups=(GroupConfig(keys=("u", "v"), pooling="attention"),),
            plain={"plain_item": "sum"},
            seed=0,
            dim=4,
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="no feature assignment"):
            ModelSpec(
                tables={"a": 2, "b": 2},
                groups=(GroupConfig(keys=("a",), pooling="sum"),),
                plain={},
            )
        with pytest.raises(ValueError, match="element-wise"):
            ModelSpec(
                tables={"a": 2},
                groups=(),
                plain={"a": "attention"},
            )
        with pytest.raises(ValueError, match="^model spec has no tables$"):
            ModelSpec(tables={}, groups=())

    @pytest.mark.parametrize(
        "which, expected", [("default", DEFAULT_UNITS), ("mixed", MIXED_UNITS)]
    )
    def test_units_are_groups_then_plain_keys(self, which, expected):
        model, _ = unit_order_case(which)
        assert model.units == expected
        assert model.all_keys == tuple(k for keys, _, _ in expected for k in keys)

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    @pytest.mark.parametrize("which", ["default", "mixed"])
    def test_round_robin_plan_follows_units(self, which, ranks):
        model, _ = unit_order_case(which)
        plan = make_round_robin_plan(model, ranks)
        assert plan.assignment == {
            k: i % ranks for i, (keys, _, _) in enumerate(model.units) for k in keys
        }
        if which == "mixed" and ranks == 3:
            assert plan.assignment == {"a1": 0, "a2": 0, "e": 1, "p1": 2, "p2": 0}

    def test_key_in_two_units_rejected(self):
        tables = {"a": 2, "b": 2}
        with pytest.raises(ValueError, match="^feature 'a' is listed twice in pooling units$"):
            ModelSpec(tables=tables, groups=(GroupConfig(("a",), "sum"),), plain={"a": "sum", "b": "sum"})
        with pytest.raises(ValueError, match="^feature 'a' is listed twice in pooling units$"):
            ModelSpec(
                tables=tables,
                groups=(GroupConfig(("a", "b"), "attention"), GroupConfig(("a",), "sum")),
                plain={},
            )

    def test_round_robin_plan_co_locates_groups(self):
        spec = self.make_spec()
        plan = make_round_robin_plan(spec, 2)
        assert plan.assignment["u"] == plan.assignment["v"]
        assert plan.num_ranks == 2
        assert set(plan.assignment) == {"u", "v", "plain_item"}

    def test_spec_io_round_trip(self, tmp_path):
        spec = self.make_spec()
        path = tmp_path / "model.json"
        save_model_spec(path, spec)
        assert load_model_spec(path) == spec

    def test_default_model_spec_covers_generator_features(self):
        specs = [
            FeatureSpec(
                key="viewed",
                kind="user_sequence",
                avg_len=8,
                vocab_size=100,
                change_prob=0.2,
            ),
            FeatureSpec(
                key="cart_a",
                kind="user_sequence",
                avg_len=4,
                vocab_size=100,
                change_prob=0.2,
                sync_group="cart",
            ),
            FeatureSpec(
                key="cart_b",
                kind="user_sequence",
                avg_len=4,
                vocab_size=100,
                change_prob=0.2,
                sync_group="cart",
            ),
            FeatureSpec(key="item", kind="item", avg_len=1, vocab_size=100),
        ]
        model = replace(default_model_spec(specs, seed=0), dim=8)
        assert set(model.all_keys) == {"viewed", "cart_a", "cart_b", "item"}
        cart = next(g for g in model.groups if set(g.keys) == {"cart_a", "cart_b"})
        assert cart.pooling == "attention"
        assert model.plain == {"item": "sum"}
        assert model.tables["viewed"] == 100


    def test_spec_json_without_plain_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            """{"seed": 3, "tables": {"u": 10}, "dim": 4,
            "groups": [{"keys": ["u"], "pooling": "max"}]}"""
        )
        assert load_model_spec(path) == ModelSpec(
            tables={"u": 10}, groups=(GroupConfig(("u",), "max"),), plain={}, seed=3, dim=4
        )

    def test_old_table_shape_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            """{"tables": {"u": {"rows": 10, "dim": 4}},
            "groups": [{"keys": ["u"], "pooling": "max"}]}"""
        )
        with pytest.raises(TypeError, match="^table 'u' rows must be an integer, got \\{'rows'"):
            load_model_spec(path)

    @pytest.mark.parametrize("key", ["seed", "dim", "pooling"])
    def test_misspelt_key_rejected(self, tmp_path, key):
        path = tmp_path / "model.json"
        save_model_spec(path, self.make_spec())
        path.write_text(path.read_text().replace(f'"{key}"', f'"{key}x"', 1))
        with pytest.raises(TypeError, match=f"{key}x"):
            load_model_spec(path)

    @pytest.mark.parametrize("field", ["tables", "groups"])
    def test_missing_field_names_file_and_field(self, tmp_path, field):
        # the missing groups raised a bare KeyError: 'groups'
        path = tmp_path / "model.json"
        save_model_spec(path, self.make_spec())
        obj = json.loads(path.read_text())
        del obj[field]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing required field '{field}'$"):
            load_model_spec(path)

    def test_non_integral_rows_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model_spec(path, self.make_spec())
        path.write_text(path.read_text().replace('"u": 1000', '"u": 1000.0', 1))
        with pytest.raises(TypeError, match="^table 'u' rows must be an integer, got 1000.0"):
            load_model_spec(path)

    def test_table_counts_name_their_field(self):
        tables, groups = {"a": 10}, (GroupConfig(("a",), "sum"),)
        with pytest.raises(TypeError, match="^dim must be an integer, got 4.0"):
            ModelSpec(tables, groups, dim=4.0)
        with pytest.raises(ValueError, match="^dim must be >= 1, got 0"):
            ModelSpec(tables, groups, dim=0)
        with pytest.raises(ValueError, match="^table 'a' rows must be >= 1, got 0"):
            ModelSpec({"a": 0}, groups)

    @pytest.mark.parametrize(
        "layout, units",
        [
            (
                "default",
                (
                    (("cart_item_ids", "cart_seller_ids"), "attention", True),
                    (("viewed_ids",), "sum", True),
                    (("liked_ids",), "max", True),
                    (("clicked_ids",), "avg", True),
                    (("item_id",), "sum", False),
                    (("item_category_ids",), "sum", False),
                ),
            ),
            (
                [("a", "x"), ("i", None), ("b", "y"), ("c", "x"), ("d", "y")],
                (
                    (("a", "c"), "attention", True),
                    (("b", "d"), "attention", True),
                    (("i",), "sum", False),
                ),
            ),
            ([("i", None), ("j", None)], ((("i",), "sum", False), (("j",), "sum", False))),
            (
                [("a", ""), ("b", ""), ("c", ""), ("d", ""), ("e", "")],
                (
                    (("a",), "sum", True),
                    (("b",), "max", True),
                    (("c",), "avg", True),
                    (("d",), "sum", True),
                    (("e",), "max", True),
                ),
            ),
            (
                [("a", ""), ("i", None), ("b", "x"), ("c", ""), ("d", "x")],
                (
                    (("b", "d"), "attention", True),
                    (("a",), "sum", True),
                    (("c",), "max", True),
                    (("i",), "sum", False),
                ),
            ),
        ],
        ids=["default", "two-sync-groups", "no-user-features", "five-solo", "sync-after-solo"],
    )
    def test_default_model_spec_layout(self, layout, units):
        """``units`` order sets the interaction stub's pair order, so it
        and the table order are pinned. In a layout, a sync group of
        None marks an item feature and "" a solo user feature."""
        if layout == "default":
            _, specs = default_config()
        else:
            specs = [
                FeatureSpec(key, "item", 1, 7)
                if group is None
                else FeatureSpec(key, "user_sequence", 2, 7, 0.1, group or None)
                for key, group in layout
            ]
        model = replace(default_model_spec(specs, seed=5), dim=8)
        assert model.units == units
        assert list(model.plain) == [key for keys, _, grouped in units if not grouped for key in keys]
        assert list(model.tables) == [s.key for s in specs]
        assert model == ModelSpec(
            tables={s.key: s.vocab_size for s in specs},
            groups=tuple(GroupConfig(keys, op) for keys, op, grouped in units if grouped),
            plain={keys[0]: op for keys, op, grouped in units if not grouped},
            seed=5,
            dim=8,
        )

def _interaction_reference(blocks):
    """The interaction stub as one (B, F, F) product of the stacked blocks,
    its upper triangle and the mean: the oracle for ``_interaction_logits``."""
    z = np.stack(blocks, axis=1)
    inter = np.einsum("bfd,bgd->bfg", z, z)
    fi, fj = np.triu_indices(z.shape[1])
    return inter[:, fi, fj].astype(np.float32, copy=False).mean(axis=1, dtype=np.float32)


def _interaction_blocks(rng, f, b, d, zeros=False):
    """F pooled (B, d) blocks with magnitudes over 12 decades; with
    ``zeros``, half the cells are -1.0, -0.0 or +0.0."""
    blocks = []
    for _ in range(f):
        x = rng.standard_normal((b, d)) * 10.0 ** rng.integers(-6, 7, (b, d))
        if zeros:
            signed = rng.choice([-1.0, -0.0, 0.0], size=(b, d))
            x = np.where(rng.random((b, d)) < 0.5, signed, x)
        blocks.append(x.astype(np.float32))
    return blocks


def _assert_interaction_matches(blocks):
    got = trainer_sim._interaction_logits(blocks)
    want = _interaction_reference(blocks)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestInteractionStub:
    """The pair-by-pair stub against the batched product, bit for bit."""

    @pytest.mark.parametrize("zeros", [False, True], ids=["magnitudes", "signed-zeros"])
    @pytest.mark.parametrize("b", [1, 7, 4096])
    @pytest.mark.parametrize("f", [1, 2, 6, 9])
    def test_matches_batched_product(self, f, b, zeros):
        rng = np.random.default_rng(100 * f + b)
        _assert_interaction_matches(_interaction_blocks(rng, f, b, 16, zeros))

    def test_single_row_adds_pairs_pairwise(self):
        # With one batch row the mean sums the 21 pairs pairwise, and the
        # data tells that from a left-to-right running total on some rows.
        rng = np.random.default_rng(3)
        differs = 0
        for _ in range(20):
            blocks = _interaction_blocks(rng, 6, 1, 16)
            _assert_interaction_matches(blocks)
            total = np.zeros(1, dtype=np.float32)
            for i in range(6):
                for j in range(i, 6):
                    total += np.einsum("bd,bd->b", blocks[i], blocks[j])
            running = np.true_divide(total, np.intp(21), out=total, casting="unsafe")
            differs += running.tobytes() != _interaction_reference(blocks).tobytes()
        assert differs

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 70),
        st.sampled_from([1, 3, 16]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, f, b, d, zeros, seed):
        rng = np.random.default_rng(seed)
        _assert_interaction_matches(_interaction_blocks(rng, f, b, d, zeros))


class TestForwardIteration:
    def reader_spec(self):
        return DataloaderSpec(
            keys=("u", "v", "plain_item"),
            dedup_sparse_features=(("u", "v"),),
            batch_size=64,
        )

    def model_spec(self, pooling="attention", dim=8, seed=0):
        return ModelSpec(
            tables={"u": 1000, "v": 1000, "plain_item": 1000},
            groups=(GroupConfig(keys=("u", "v"), pooling=pooling),),
            plain={"plain_item": "sum"},
            seed=seed,
            dim=dim,
        )

    def run_both(self, rows, model, ranks):
        reader_spec = self.reader_spec()
        dedup_batch = convert(as_batch(rows), reader_spec)
        base_batch = convert(as_batch(rows), reader_spec.without_dedup())
        plan = make_round_robin_plan(model, ranks)
        tables = build_tables(model)
        d_scores, d_stats = forward_iteration(dedup_batch, model, plan, "dedup", tables)
        b_scores, b_stats = forward_iteration(base_batch, model, plan, "baseline", tables)
        return d_scores, d_stats, b_scores, b_stats

    @pytest.mark.parametrize("pooling", ["attention", "sum", "avg", "max"])
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_bit_exact_equivalence(self, pooling, ranks):
        rng = np.random.default_rng(13)
        rows = random_batch(rng, 23)
        model = self.model_spec(pooling=pooling)
        d_scores, d_stats, b_scores, b_stats = self.run_both(rows, model, ranks)
        np.testing.assert_array_equal(d_scores, b_scores)
        assert d_scores.dtype == b_scores.dtype == np.float32
        assert d_stats.dominated_by(b_stats)

    def test_single_row_batch(self):
        rng = np.random.default_rng(17)
        rows = random_batch(rng, 1)
        model = self.model_spec()
        d_scores, d_stats, b_scores, b_stats = self.run_both(rows, model, 1)
        np.testing.assert_array_equal(d_scores, b_scores)
        assert d_stats == b_stats  # nothing to dedup away at B=1, U=1

    def test_duplication_shrinks_counters(self):
        rng = np.random.default_rng(19)
        rows = random_batch(rng, 60, dup_rate=0.9)
        model = self.model_spec()
        d_scores, d_stats, b_scores, b_stats = self.run_both(rows, model, 1)
        np.testing.assert_array_equal(d_scores, b_scores)
        assert d_stats.lookup_count < b_stats.lookup_count
        assert d_stats.pooling_mac_count < b_stats.pooling_mac_count
        assert d_stats.a2a_bytes_fwd < b_stats.a2a_bytes_fwd
        assert d_stats.a2a_bytes_back < b_stats.a2a_bytes_back

    def test_lookup_count_matches_encoding_sizes(self):
        rng = np.random.default_rng(23)
        rows = random_batch(rng, 30)
        model = self.model_spec()
        reader_spec = self.reader_spec()
        dedup_batch = convert(as_batch(rows), reader_spec)
        base_batch = convert(as_batch(rows), reader_spec.without_dedup())
        _, d_stats, _, b_stats = self.run_both(rows, model, 1)
        ikjt = dedup_batch.ikjts[0]
        dedup_expected = (
            ikjt.per_feature["u"].values.size
            + ikjt.per_feature["v"].values.size
            + dedup_batch.kjts["plain_item"].values.size
        )
        base_expected = sum(
            base_batch.kjts[k].values.size for k in ("u", "v", "plain_item")
        )
        assert d_stats.lookup_count == dedup_expected
        assert b_stats.lookup_count == base_expected

    def test_scores_independent_of_rank_count(self):
        rng = np.random.default_rng(29)
        rows = random_batch(rng, 30)
        model = self.model_spec()
        scores = {}
        for ranks in (1, 2, 3, 5):
            d, _, b, _ = self.run_both(rows, model, ranks)
            scores[ranks] = (d, b)
        ref = scores[1][0]
        for d, b in scores.values():
            np.testing.assert_array_equal(d, ref)
            np.testing.assert_array_equal(b, ref)

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(31)
        rows = random_batch(rng, 4)
        batch = convert(as_batch(rows), self.reader_spec())
        model = self.model_spec()
        plan = make_round_robin_plan(model, 1)
        with pytest.raises(ValueError, match="mode"):
            forward_iteration(batch, model, plan, "training", build_tables(model))

    def test_missing_group_encoding_rejected(self):
        rng = np.random.default_rng(37)
        rows = random_batch(rng, 4)
        batch = convert(as_batch(rows), self.reader_spec().without_dedup())
        model = self.model_spec()
        plan = make_round_robin_plan(model, 1)
        with pytest.raises(ValueError, match="no IKJT"):
            forward_iteration(batch, model, plan, "dedup", build_tables(model))

    def test_stats_start_from_zero(self):
        stats = IterationStats()
        assert stats.dominated_by(IterationStats())
        worse = IterationStats(a2a_bytes_fwd=1)
        assert stats.dominated_by(worse)
        assert not worse.dominated_by(stats)


# Exact forward-pass output on a 600-session default-config dataset
# (seed 0) read in batches of 2000 rows. Scores are the same in both modes and at every rank count, so one
# sha256 list per clustering; the counters are per (clustering, ranks,
# mode), one IterationStats tuple per batch.
GOLDEN_SCORE_SHA256 = {
    "none": [
        "82188c6e7def42f59ab97b63a7daeb958aca3ac65ad55cbe26a6a091c87e5ca6",
        "93827ec2f664f8fc5c34c254eaf0d4430b3cea2ad5f013a0fd2c180a93561216",
        "e1ff9f6335bec846ff3321bfcc959ded0a62315259cf8fa12bf79071a733c374",
        "d496c55df4162fac95b63bc1fa648d43e14156043845e71adf1f8eb1e8038bad",
        "7c3dd1098b161e6c4f60d842d9d6eb2d1ba488a51fda200b4e2fb5029a1cdc10",
    ],
    "by_session": [
        "e6a1b81618c4196427f3a236e4efb1a15f6d5edcc08c4e30cb83dc509f6f989f",
        "68db005b3a4757d7df28b88e4940a0c44176d9fc891ae5aa2c4d35dcac2d4a71",
        "70222a0d65e98be9bc9db7e4ce251f5f2f288a6dc4dad432720fd3eb0e57ae52",
        "245ed62b3c1d4d5c2862d786328920c0cbdc49a405bf8d7e92739883f4d5c755",
        "2f261967090b3cacf2da97204be7b7a01ae2f88286438914132fef45785e2e01",
    ],
}
_BASELINE_R1 = [(2048112, 768000, 242000, 1536000, 118048000, 128000)] * 4 + [
    (1175664, 440832, 138908, 881664, 67759552, 73472)
]
_BASELINE_R4 = [(2048448, 768000, 242000, 384000, 118048000, 128000)] * 4 + [
    (1176000, 440832, 138908, 220416, 67759552, 73472)
]
GOLDEN_COUNTERS = {
    ("none", 1, "baseline"): _BASELINE_R1,
    ("none", 4, "baseline"): _BASELINE_R4,
    ("none", 1, "dedup"): [
        (808144, 439808, 93416, 555264, 42369664, 128000),
        (799032, 437952, 92300, 536064, 42694336, 128000),
        (793824, 437184, 91672, 529920, 42056320, 128000),
        (800424, 437568, 92488, 549888, 42240640, 128000),
        (573432, 281280, 66744, 403968, 31096192, 73472),
    ],
    ("none", 4, "dedup"): [
        (1337296, 579584, 156788, 250368, 74553664, 128000),
        (1331280, 578688, 156052, 244992, 74427712, 128000),
        (1330536, 578496, 155956, 242688, 74768704, 128000),
        (1316072, 574528, 154228, 241152, 73713472, 128000),
        (885856, 364736, 104124, 162816, 50362048, 73472),
    ],
    ("by_session", 1, "baseline"): _BASELINE_R1,
    ("by_session", 4, "baseline"): _BASELINE_R4,
    ("by_session", 1, "dedup"): [
        (499920, 359616, 56448, 291072, 24252160, 128000),
        (505272, 360192, 57084, 303360, 25632448, 128000),
        (500648, 358912, 56552, 302592, 24139648, 128000),
        (523240, 364736, 59284, 331008, 24240448, 128000),
        (318640, 213056, 36224, 210432, 15593728, 73472),
    ],
    ("by_session", 4, "dedup"): [
        (502680, 360192, 56740, 79872, 24371008, 128000),
        (507920, 360832, 57360, 78336, 25808128, 128000),
        (503224, 359552, 56820, 80640, 24258112, 128000),
        (525408, 365184, 59504, 86016, 24358144, 128000),
        (321608, 213760, 36540, 57600, 15712960, 73472),
    ],
}


class TestGoldenForward:
    """Exact scores and counters on generator data, not only dominance."""

    @pytest.fixture(scope="class")
    def dataset(self):
        cfg, specs = default_config(seed=0, num_sessions=600)
        model = default_model_spec(specs, seed=0)
        return generate_dataset(cfg, specs), model, build_tables(model)

    @pytest.mark.parametrize("clustering", ["none", "by_session"])
    def test_scores_and_counters_match_pinned(self, dataset, clustering, tmp_path):
        table, model, tables = dataset
        f = write_table(table, tmp_path / "t.sesscol", clustering=clustering)
        spec = DataloaderSpec(
            keys=model.all_keys,
            dedup_sparse_features=tuple(g.keys for g in model.groups),
            batch_size=2000,
        )
        for mode in ("baseline", "dedup"):
            batches = list(read_batches(f, spec if mode == "dedup" else spec.without_dedup()))
            for ranks in (1, 4):
                plan = make_round_robin_plan(model, ranks)
                out = [forward_iteration(b, model, plan, mode, tables) for b in batches]
                digests = [hashlib.sha256(s.tobytes()).hexdigest() for s, _ in out]
                assert digests == GOLDEN_SCORE_SHA256[clustering], (mode, ranks)
                counters = [astuple(st) for _, st in out]
                assert counters == GOLDEN_COUNTERS[clustering, ranks, mode]


# Exact forward-pass output on variable-length data: user sequences of
# average length 5.5 (5 or 6 IDs per session), a cart attention group
# whose rows reach 95, 96 or 97 elements, so every batch has several
# attention length buckets and buckets that split into sub-blocks, and
# item features with empty rows. 150 sessions (seed 0, 2540 rows) read
# in batches of 1000 rows. Laid out as GOLDEN_SCORE_SHA256 and
# GOLDEN_COUNTERS.
def variable_length_config():
    user = dict(kind="user_sequence", change_prob=0.15)
    specs = [
        FeatureSpec(key="viewed_ids", avg_len=5.5, vocab_size=2_000, **user),
        FeatureSpec(key="liked_ids", avg_len=5.5, vocab_size=500, **user),
        FeatureSpec(key="cart_item_ids", avg_len=5.5, vocab_size=500, sync_group="cart", **user),
        FeatureSpec(key="cart_seller_ids", avg_len=90.5, vocab_size=200, sync_group="cart", **user),
        FeatureSpec(key="item_id", kind="item", avg_len=0.5, vocab_size=1_000),
        FeatureSpec(key="item_category_ids", kind="item", avg_len=2.5, vocab_size=50),
    ]
    cfg = SessionConfig(
        num_sessions=150,
        samples_per_session=SampleCountDist(kind="geometric", mean=16.0),
        seed=0,
    )
    return cfg, specs


VARIABLE_SCORE_SHA256 = {
    "none": [
        "39ad6a67ea978a114a4f6be28c61126dde4727b02da9372931776d29a05b269e",
        "870a1efd5ef1efc700655d1ad22273382e73d27bf138be74cdd19d4faddbb3a2",
        "b8c4f201c064d2a1f72a91f96bee99b211fe68bd096aaded183ce00f928b9450",
    ],
    "by_session": [
        "eefbd8fc2f14f80e88f2469c68fafc1845c578cdd6403869a596d5db9905aa20",
        "e103078eb6898b6c3abd6c5c23a1a2e6cf73d4bb434481b19248d9a3eb3154e0",
        "dd4bc83c4375cd8750cb127a66e3678e30c3fda6355046eb1af4d15ea73b46bb",
    ],
}
VARIABLE_COUNTERS = {
    ("none", 1, "baseline"): [
        (928408, 320000, 110039, 1447264, 368853088, 48000),
        (927680, 320000, 109948, 1446960, 368548912, 48000),
        (501288, 172800, 59409, 781712, 199167056, 25920),
    ],
    ("none", 4, "baseline"): [
        (928696, 320000, 110039, 361936, 368853088, 48000),
        (927968, 320000, 109948, 361840, 368548912, 48000),
        (501576, 172800, 59409, 195504, 199167056, 25920),
    ],
    ("none", 1, "dedup"): [
        (279336, 179072, 31837, 390784, 99597536, 48000),
        (272504, 180032, 30978, 376304, 95889280, 48000),
        (188192, 104768, 21687, 272192, 69289488, 25920),
    ],
    ("none", 4, "dedup"): [
        (475496, 220864, 55447, 183824, 181103152, 48000),
        (461496, 221248, 53710, 175104, 174005520, 48000),
        (326248, 134592, 38287, 131712, 126428976, 25920),
    ],
    ("by_session", 1, "baseline"): [
        (928528, 320000, 110054, 1447216, 368115040, 48000),
        (927264, 320000, 109896, 1447424, 369402224, 48000),
        (501584, 172800, 59446, 781296, 199051792, 25920),
    ],
    ("by_session", 4, "baseline"): [
        (928816, 320000, 110054, 362960, 368115040, 48000),
        (927552, 320000, 109896, 362176, 369402224, 48000),
        (501872, 172800, 59446, 195600, 199051792, 25920),
    ],
    ("by_session", 1, "dedup"): [
        (224672, 167616, 25245, 300976, 76617984, 48000),
        (209656, 165952, 23412, 275136, 70182672, 48000),
        (116400, 89280, 13036, 154832, 39463104, 25920),
    ],
    ("by_session", 4, "dedup"): [
        (227632, 168192, 25567, 92512, 77711488, 48000),
        (211048, 166400, 23542, 85552, 70552112, 48000),
        (118512, 89728, 13255, 50672, 40194464, 25920),
    ],
}


class TestGoldenForwardVariableLength:
    """TestGoldenForward on rows of varying length, where attention runs
    several length buckets per batch and splits the large ones."""

    @pytest.fixture(scope="class")
    def dataset(self):
        cfg, specs = variable_length_config()
        model = default_model_spec(specs, seed=0)
        return generate_dataset(cfg, specs), model, build_tables(model)

    def read(self, dataset, clustering, mode, tmp_path):
        table, model, _ = dataset
        f = write_table(table, tmp_path / "t.sesscol", clustering=clustering)
        spec = DataloaderSpec(
            keys=model.all_keys,
            dedup_sparse_features=tuple(g.keys for g in model.groups),
            batch_size=1000,
        )
        return list(read_batches(f, spec if mode == "dedup" else spec.without_dedup()))

    @pytest.mark.parametrize("clustering", ["none", "by_session"])
    def test_attention_runs_several_buckets_and_sub_blocks(self, dataset, clustering, tmp_path):
        for batch in self.read(dataset, clustering, "baseline", tmp_path):
            n = sum(batch.kjts[k].row_lengths() for k in ("cart_item_ids", "cart_seller_ids"))
            lengths, counts = np.unique(n, return_counts=True)
            assert lengths.size >= 3
            steps = trainer_sim._ATTENTION_BLOCK_ELEMENTS // (lengths * lengths)
            assert np.any(counts > steps)
            for key in ("viewed_ids", "item_id"):
                assert np.unique(batch.kjts[key].row_lengths()).size == 2

    @pytest.mark.parametrize("clustering", ["none", "by_session"])
    def test_scores_and_counters_match_pinned(self, dataset, clustering, tmp_path):
        _, model, tables = dataset
        for mode in ("baseline", "dedup"):
            batches = self.read(dataset, clustering, mode, tmp_path)
            for ranks in (1, 4):
                plan = make_round_robin_plan(model, ranks)
                out = [forward_iteration(b, model, plan, mode, tables) for b in batches]
                digests = [hashlib.sha256(s.tobytes()).hexdigest() for s, _ in out]
                assert digests == VARIABLE_SCORE_SHA256[clustering], (mode, ranks)
                counters = [astuple(st) for _, st in out]
                assert counters == VARIABLE_COUNTERS[clustering, ranks, mode]


class TestRankHalves:
    """``forward_iteration`` runs a batch's rank halves on two threads when
    it has more than one rank and at least ``_SPLIT_MIN_VALUES`` looked-up
    values, else every rank on the calling thread; the path must change
    no score bit and no counter."""

    @pytest.fixture(scope="class")
    def data(self):
        cfg, specs = variable_length_config()
        model = default_model_spec(specs, seed=0)
        table = generate_dataset(cfg, specs)
        spec = DataloaderSpec(
            keys=model.all_keys,
            dedup_sparse_features=tuple(g.keys for g in model.groups),
            batch_size=len(table),
        )
        assert np.any(table.features.entries["item_id"].row_lengths() == 0)
        return table, model, build_tables(model), spec

    @staticmethod
    def run(data, start, size, ranks, mode, floor):
        """The forward pass of rows ``[start, start + size)`` with the
        split floor at ``floor``, and the rank ranges it ran, each with
        whether it ran on the calling thread."""
        table, model, tables, spec = data
        batch = convert(table.slice_rows(start, start + size), spec if mode == "dedup" else spec.without_dedup())
        calls = []
        forward_ranks = trainer_sim._forward_ranks

        def spy(*args):
            calls.append((args[-2], args[-1], threading.current_thread() is threading.main_thread()))
            return forward_ranks(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer_sim, "_SPLIT_MIN_VALUES", floor)
            mp.setattr(trainer_sim, "_forward_ranks", spy)
            scores, stats = forward_iteration(batch, model, make_round_robin_plan(model, ranks), mode, tables)
        return scores, stats, sorted(calls)

    @settings(max_examples=20, deadline=None)
    @given(
        size=st.sampled_from([*range(1, 10), 2540]),
        ranks=st.integers(1, 5),
        mode=st.sampled_from(["baseline", "dedup"]),
        where=st.floats(0, 1),
    )
    def test_split_matches_calling_thread(self, data, size, ranks, mode, where):
        # Sizes 1-9 include tails with fewer rows than ranks; 2540 rows (the
        # whole table) hold more baseline values than the floor, and pool
        # and attention stack blocks on them.
        start = int(where * (len(data[0]) - size))
        split_scores, split_stats, split_calls = self.run(data, start, size, ranks, mode, 0)
        one_scores, one_stats, one_calls = self.run(data, start, size, ranks, mode, math.inf)
        assert split_scores.dtype == one_scores.dtype == np.float32
        assert split_scores.tobytes() == one_scores.tobytes()
        assert astuple(split_stats) == astuple(one_stats)
        used = min(ranks, size)
        assert one_calls == [(0, used, True)]
        if used == 1:
            assert split_calls == [(0, 1, True)]
        else:
            half = -(-used // 2)
            assert split_calls == [(0, half, False), (half, used, False)]

    @pytest.mark.parametrize(
        "mode, ranks, above, calls",
        [
            ("baseline", 4, True, [(0, 2, False), (2, 4, False)]),
            ("dedup", 4, False, [(0, 4, True)]),
            ("baseline", 1, True, [(0, 1, True)]),
        ],
    )
    def test_floor_and_rank_count_pick_the_path(self, data, mode, ranks, above, calls):
        floor = trainer_sim._SPLIT_MIN_VALUES
        _, stats, ran = self.run(data, 0, 2540, ranks, mode, floor)
        assert (stats.lookup_count >= floor) == above
        assert ran == calls

    @pytest.mark.parametrize("mode", ["baseline", "dedup"])
    @pytest.mark.parametrize("key", ["item_category_ids", "cart_seller_ids"])
    def test_bad_id_in_second_half_named_across_unit(self, data, mode, key):
        # The bad ID sits in the last row: rank 2 of 3, the second half.
        table, model, tables, spec = data
        rows = table.slice_rows(0, 9)
        values = rows.features.entries[key].values.copy()
        values[-1] = model.tables[key] + 7
        bad = replace(
            rows,
            features=replace(
                rows.features,
                entries={**rows.features.entries, key: replace(rows.features.entries[key], values=values)},
            ),
        )
        batch = convert(bad, spec if mode == "dedup" else spec.without_dedup())
        unit = next(u for u in split_batch(batch, model, mode, 3) if key in u.tensors)
        jt = unit.tensors[key]
        position = jt.values.size - 1
        assert position >= jt.offsets[unit.bounds[2]]
        with pytest.raises(ValueError) as want:
            embedding_lookup(jt, tables[key], key)
        assert str(want.value) == (
            f"feature {key!r}: ID {model.tables[key] + 7} at position {position} "
            f"out of range [0, {model.tables[key]})"
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer_sim, "_SPLIT_MIN_VALUES", 0)
            with pytest.raises(ValueError) as got:
                forward_iteration(batch, model, make_round_robin_plan(model, 3), mode, tables)
        assert str(got.value) == str(want.value)

    def test_worker_error_raised_after_both_halves_stop(self, data, monkeypatch):
        # Ranks [0, 2) pool 6 rows and rank 2 pools 3; the second half fails.
        table, model, tables, spec = data
        batch = convert(table.slice_rows(0, 9), spec.without_dedup())
        attention = trainer_sim.attention_pool

        def failing(acts, params):
            if acts[0][1].size == 3:
                raise RuntimeError("second half failed")
            return attention(acts, params)

        monkeypatch.setattr(trainer_sim, "_SPLIT_MIN_VALUES", 0)
        monkeypatch.setattr(trainer_sim, "attention_pool", failing)
        with pytest.raises(RuntimeError, match="second half failed"):
            forward_iteration(batch, model, make_round_robin_plan(model, 3), "baseline", tables)
        assert not [t.name for t in threading.enumerate() if t.name.startswith("forward")]
