"""Desk-scale forward sparse path over simulated ranks.

Simulates one training iteration's sparse pipeline. The batch is split
into per-rank row ranges; each rank's feature slices are sent to the
ranks owning their embedding tables (the sparse-data distribution, SDD),
which look up embeddings, pool per row (element-wise or attention), send
the pooled vectors back, and the source rank expands deduplicated rows
and scores them through a fixed interaction stub.

``ModelSpec.units`` fixes the order of the pooling units: each dedup
group in turn, then each plain key alone. The round-robin plan,
``split_batch`` and the forward pass all read that one order.

The rank is part of the dedup key, so each rank's unique rows sit
contiguously in one tensor per feature, rank after rank. Lookup,
pooling, expand and the interaction stub run once per pooling unit over
the whole batch, since where a row is pooled changes no score and no
counter. ``sdd`` counts the serialized bytes of every (rank, key)
slice from the units' rank bounds alone, since a slice's wire size
depends only on its row and value counts. Stacked pooling blocks are
cut straight from each key's activations and the interaction stub dots
the pooled blocks pair by pair, so no step copies a whole batch only to
lay it out; ``_ATTENTION_BLOCK_ELEMENTS`` bounds attention's memory.

The baseline path runs every batch row; the dedup path runs each unique
row once and expands afterwards. Both paths reduce each logical row's
elements in the same order with the same float32 routines, so their
scores match bit for bit, which the test suite asserts exhaustively.

"Network bytes" are serialized-slice sizes, not wall-clock transfers,
and R=1 counts local serialization rather than zero: byte volume is the
desk-scale observable, independent of transport.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .datagen import sync_groups
from .reader import ReaderBatch
from .tensors import (
    JaggedTensor,
    _positive_count,
    _row_lengths,
    jagged_index_select,
    slice_stream_bytes,
    unique_first_occurrence,
    values_stream_bytes,
    window_index,
)

__all__ = [
    "EmbeddingTable",
    "ShardingPlan",
    "IterationStats",
    "GroupConfig",
    "ModelSpec",
    "AttentionParams",
    "SddResult",
    "PoolingUnit",
    "sdd",
    "embedding_lookup",
    "pool",
    "attention_pool",
    "forward_iteration",
    "split_batch",
    "make_round_robin_plan",
    "build_tables",
    "activation_bytes",
    "load_model_spec",
    "save_model_spec",
    "default_model_spec",
]

ELEMENT_POOLING = ("sum", "avg", "max")
POOLING_OPS = ELEMENT_POOLING + ("attention",)

# Fewest rows of one length that ``pool`` reduces as one stacked block.
# A block costs about 20 ufunc calls whatever its size, so small buckets
# are cheaper through ``reduceat``. Sized on (m, n, 16) float32 rows of
# mixed lengths (2-core x86_64): with 32, no mix measured more than 10%
# slower than ``reduceat`` alone, and 4096 rows of 48 ran about 3x faster.
_POOL_BLOCK_ROWS = 32

# Score elements (rows x n x n) per stacked attention block. Attention
# pools a whole batch at once, so this caps its working set: a block's
# q, k, v and score tensors, not the batch's sequences, set the peak.
_ATTENTION_BLOCK_ELEMENTS = 1 << 20

# Rows of a table drawn at once. ``Generator.uniform`` draws one double
# per value in order, so chunks give the one-shot draw's weights while
# the float64 transient stays one chunk (2 MiB at dim 16) however big
# the table is.
_TABLE_CHUNK_ROWS = 16_384


def _key_seed(base: int, *names: str) -> np.random.Generator:
    tag = hashlib.blake2b("|".join(names).encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(
        np.random.SeedSequence((base, int.from_bytes(tag, "little")))
    )


@dataclass(frozen=True)
class EmbeddingTable:
    key: str
    weights: np.ndarray  # (rows, dim) float32

    def __post_init__(self) -> None:
        if self.weights.dtype != np.float32:
            raise ValueError("weights must be float32")
        self.weights.setflags(write=False)

    @classmethod
    def create(cls, key: str, rows: int, dim: int, seed: int) -> "EmbeddingTable":
        rng = _key_seed(seed, "table", key)
        weights = np.empty((rows, dim), dtype=np.float32)
        for lo in range(0, rows, _TABLE_CHUNK_ROWS):
            chunk = weights[lo : lo + _TABLE_CHUNK_ROWS]
            chunk[:] = rng.uniform(-0.1, 0.1, size=chunk.shape)
        return cls(key=key, weights=weights)


@dataclass(frozen=True)
class AttentionParams:
    """Single-head scaled dot-product attention projections, each
    (dim, dim)."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    @classmethod
    def create(cls, name: str, dim: int, seed: int) -> "AttentionParams":
        rng = _key_seed(seed, "attention", name)
        mats = [
            rng.uniform(-0.25, 0.25, size=(dim, dim)).astype(np.float32)
            for _ in range(4)
        ]
        for m in mats:
            m.setflags(write=False)
        return cls(w_q=mats[0], w_k=mats[1], w_v=mats[2], w_o=mats[3])


@dataclass(frozen=True)
class GroupConfig:
    keys: tuple[str, ...]
    pooling: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        if not self.keys:
            raise ValueError("empty feature group")
        if self.pooling not in POOLING_OPS:
            raise ValueError(f"unknown pooling op {self.pooling!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Sparse-path model description.

    ``tables`` maps each feature key to its table's row count;
    ``groups`` are the dedup feature groups (each one IKJT in dedup
    mode); ``plain`` maps the remaining keys to an element-wise pooling
    op. Every table has ``dim`` columns: one dim, so pooled vectors can
    interact via pairwise dot products.
    """

    tables: dict[str, int]
    groups: tuple[GroupConfig, ...]
    plain: dict[str, str] = field(default_factory=dict)
    seed: int = 0
    dim: int = 16

    def __post_init__(self) -> None:
        tables = {k: _positive_count(f"table {k!r} rows", n) for k, n in self.tables.items()}
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "plain", dict(self.plain))
        object.__setattr__(self, "dim", _positive_count("dim", self.dim))
        if not self.tables:
            raise ValueError("model spec has no tables")
        seen: set[str] = set()
        for keys, op, grouped in self.units:
            if not grouped and op not in ELEMENT_POOLING:
                raise ValueError(f"plain pooling must be element-wise, got {op!r}")
            for key in keys:
                if key in seen:
                    raise ValueError(f"feature {key!r} is in two pooling units")
                if key not in self.tables:
                    raise ValueError(f"feature {key!r} has no table")
                seen.add(key)
        unused = set(self.tables) - seen
        if unused:
            raise ValueError(f"tables with no feature assignment: {sorted(unused)}")

    @property
    def units(self) -> tuple[tuple[tuple[str, ...], str, bool], ...]:
        """The pooling units in order, one ``(keys, pooling op, grouped)``
        triple each: every group in turn, then every plain key alone."""
        return tuple((g.keys, g.pooling, True) for g in self.groups) + tuple(
            ((key,), op, False) for key, op in self.plain.items()
        )

    @property
    def all_keys(self) -> tuple[str, ...]:
        return tuple(key for keys, _, _ in self.units for key in keys)


@dataclass(frozen=True)
class ShardingPlan:
    num_ranks: int
    assignment: dict[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        if self.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        for key, rank in self.assignment.items():
            if not 0 <= rank < self.num_ranks:
                raise ValueError(f"feature {key!r} assigned to invalid rank {rank}")


def make_round_robin_plan(spec: ModelSpec, num_ranks: int) -> ShardingPlan:
    """Round-robin over the pooling units in ``spec.units`` order; a
    group's features stay on one rank so attention sees its whole
    sequence locally."""
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    assignment = {
        key: i % num_ranks for i, (keys, _, _) in enumerate(spec.units) for key in keys
    }
    return ShardingPlan(num_ranks=num_ranks, assignment=assignment)


def build_tables(spec: ModelSpec) -> dict[str, EmbeddingTable]:
    return {
        key: EmbeddingTable.create(key, rows, spec.dim, spec.seed)
        for key, rows in spec.tables.items()
    }


@dataclass
class IterationStats:
    """Forward-pass counters. Each adds up over batches unless its field's
    ``fold`` metadata names another rule."""

    a2a_bytes_fwd: int = 0
    a2a_bytes_back: int = 0
    lookup_count: int = 0
    # A peak per (rank, feature) slice: totals over batches keep the max.
    activation_elements: int = field(default=0, metadata={"fold": max})
    pooling_mac_count: int = 0
    index_select_elements: int = 0

    def dominated_by(self, other: "IterationStats") -> bool:
        """True when every counter here is <= the other's."""
        return all(
            getattr(self, f.name) <= getattr(other, f.name) for f in fields(self)
        )


def activation_bytes(
    batch_size: int, list_len: float, dim: int, elem_bytes: int = 4
) -> int:
    """Bytes to hold one feature's pre-pooling activations."""
    return int(batch_size * list_len * dim * elem_bytes)


@dataclass
class SddResult:
    a2a_bytes_fwd: int
    values_bytes_by_key: dict[str, int]


def sdd(units: list[PoolingUnit], plan: ShardingPlan) -> SddResult:
    """Account for every rank sending its slices of the pooling units'
    tensors to their owners.

    a2a_bytes_fwd counts the canonical serialized size of each
    transmitted (offsets, values) slice pair, one per (rank, key), local
    destinations included, so R=1 reports the local serialization size.
    A unit's R' rank slices (``bounds``) split each tensor's rows and
    values, so they cost the whole tensor's ``slice_stream_bytes`` plus
    one more 16-byte pair of count prefixes per extra slice; inverses
    never travel.
    """
    keys = sorted(k for u in units for k in u.tensors)
    if keys != sorted(plan.assignment):
        raise ValueError(
            f"pooling unit keys {keys} do not match plan keys {sorted(plan.assignment)}"
        )
    total = 0
    values_bytes: dict[str, int] = {}
    for u in units:
        for key, jt in u.tensors.items():
            total += slice_stream_bytes(jt) + 16 * (u.bounds.size - 2)
            values_bytes[key] = values_stream_bytes(jt)
    return SddResult(a2a_bytes_fwd=total, values_bytes_by_key=values_bytes)


def embedding_lookup(
    jt: JaggedTensor, table: EmbeddingTable, key: str = ""
) -> np.ndarray:
    """One embedding vector per values element, in values order.

    The range check is explicit because ``np.take`` would wrap a
    negative ID rather than reject it.
    """
    vals = jt.values
    rows = table.weights.shape[0]
    if vals.size and (vals.min() < 0 or vals.max() >= rows):
        p = int(np.flatnonzero((vals < 0) | (vals >= rows))[0])
        raise ValueError(
            f"feature {key or table.key!r}: ID {int(vals[p])} at position {p} "
            f"out of range [0, {rows})"
        )
    return np.take(table.weights, vals, axis=0)


def _length_buckets(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The non-empty rows stably sorted by length, one length per row or a
    (keys, rows) matrix of them, and the bounds of each run of equal
    lengths: bucket ``j`` is ``rows[bounds[j]:bounds[j+1]]``."""
    lens = np.atleast_2d(lengths)
    rows = np.flatnonzero(lens.any(axis=0))
    rows = rows[np.lexsort(np.take(lens, rows, axis=1))]
    change = np.diff(np.take(lens, rows, axis=1)).any(axis=0)
    starts = np.flatnonzero(np.append(rows.size > 0, change))
    return rows, np.append(starts, rows.size)


def _row_block(
    acts: np.ndarray, offsets: np.ndarray, rows: np.ndarray, n: int
) -> tuple[np.ndarray, slice | np.ndarray]:
    """Rows ``rows`` (ascending, each of length n) as an (m, n, d) block,
    and the rows as an index: a view and a slice when the rows are
    consecutive, since their elements are then one run; else one gather."""
    lo, m = int(rows[0]), rows.size
    if int(rows[-1]) - lo == m - 1:
        start = int(offsets[lo])
        block = acts[start : start + m * n].reshape(m, n, acts.shape[1])
        return block, slice(lo, lo + m)
    return np.take(acts, offsets[rows][:, None] + np.arange(n), axis=0), rows


def _lane_tree(x: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """The eight lanes of NumPy's unrolled loop over an (m, 8j, d) block
    along axis 1: each lane takes every eighth element in turn, then the
    lanes combine as ((0, 1), (2, 3)), ((4, 5), (6, 7))."""
    if x.shape[1] > 8:
        lanes = ufunc(x[:, :8], x[:, 8:16])
    else:
        lanes = x[:, :8].copy()
    for i in range(16, x.shape[1], 8):
        ufunc(lanes, x[:, i : i + 8], out=lanes)
    l = [lanes[:, j] for j in range(8)]
    return ufunc(
        ufunc(ufunc(l[0], l[1]), ufunc(l[2], l[3])),
        ufunc(ufunc(l[4], l[5]), ufunc(l[6], l[7])),
    )


def _unrolled(x: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """NumPy's unrolled reduction loop over an (m, n, d) block along axis
    1, n >= 1: the lane tree of the first n - n % 8 elements, then the
    rest folded in one by one (all of them, left to right, below 8)."""
    n = x.shape[1]
    k = n - n % 8
    acc = _lane_tree(x[:, :k], ufunc) if k else x[:, 0].copy()
    for i in range(max(k, 1), n):
        ufunc(acc, x[:, i], out=acc)
    return acc


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """NumPy's pairwise sum of an (m, n, d) block along axis 1, n >= 1:
    the unrolled loop up to 128 elements, above that the sum of two
    halves cut at a multiple of 8."""
    n = x.shape[1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(x[:, :half]) + _pairwise_sum(x[:, half:])
    return _unrolled(x, np.add)


def _reduce_block(x: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """``ufunc.reduceat`` of each row of an (m, n, d) block, in its order.

    For one row and column, ``reduceat`` starts from the row's first
    element and hands the rest to NumPy's strided reduction loop: ``add``
    adds their pairwise sum, ``maximum`` folds in their lane tree and
    then the leftover elements one by one. Doing the same over whole
    blocks gives the same bits, signed zeros included. ``maximum`` may
    take the first element last because, on the CPUs checked, it returns
    its second operand on a tie, which makes it associative bit for bit.
    NumPy documents
    none of this, so ``pool`` uses these blocks only where
    ``_blocks_match_reduceat`` found them exact.
    """
    first, rest = x[:, 0], x[:, 1:]
    if not rest.shape[1]:
        return first.copy()
    return ufunc(first, _pairwise_sum(rest) if ufunc is np.add else _unrolled(rest, ufunc))


def _blocks_match_reduceat() -> bool:
    """Whether ``_reduce_block`` gives ``reduceat``'s bits with this NumPy
    on this CPU, checked once at import on rows of mixed magnitudes and
    of ±0.0 ties, at every length where NumPy's loop changes course."""
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 8, 9, 16, 17, 128, 129, 136, 256, 257, 300):
        x = rng.standard_normal((8, n, 3)) * 10.0 ** rng.integers(-6, 7, (8, n, 3))
        x[4:] = rng.choice([-1.0, -0.0, 0.0], size=(4, n, 3))
        x = x.astype(np.float32)
        starts = np.arange(0, x.shape[0] * n, n)
        for ufunc in (np.add, np.maximum):
            want = ufunc.reduceat(x.reshape(-1, 3), starts, axis=0)
            if _reduce_block(x, ufunc).tobytes() != want.tobytes():
                return False
    return True


_BLOCKS_MATCH_REDUCEAT = _blocks_match_reduceat()


def pool(activations: np.ndarray, offsets: np.ndarray, op: str) -> np.ndarray:
    """Per-row reduction; empty rows produce zero vectors for every op.

    The result is bit-identical to ``ufunc.reduceat`` over the rows, and
    so depends only on each row's own elements: ``sum`` is the row's
    first element plus NumPy's pairwise sum of the rest, ``avg`` divides
    that by ``np.float32(length)``, and ``max`` follows NumPy's strided
    maximum loop, which fixes which of +0.0 and -0.0 a tie returns.
    Rows are bucketed by length. A bucket of at least ``_POOL_BLOCK_ROWS``
    rows reduces as one (m, n, d) block, a view of the activations when
    its rows are consecutive, and the other rows go through ``reduceat``
    after one gather. Every row goes through ``reduceat`` in place when
    such buckets hold under half the elements, since that gather would
    cost more than the blocks save; when the import-time probe found the
    blocks inexact with this NumPy and CPU (they were checked on x86_64
    with NumPy 2.4); and for a single-column ``max``, which NumPy reduces
    with SIMD lanes of a CPU-dependent width.
    """
    if op not in ELEMENT_POOLING:
        raise ValueError(f"unknown pooling op {op!r}")
    total, dim = activations.shape
    lengths = _row_lengths(offsets, total)
    out = np.zeros((offsets.size, dim), dtype=np.float32)
    ufunc = np.maximum if op == "max" else np.add
    rows, bounds = _length_buckets(lengths)
    sizes, ns = np.diff(bounds), lengths[rows[bounds[:-1]]]
    stacked = sizes >= _POOL_BLOCK_ROWS
    # The half-share rule: the gather of the other rows costs about what
    # the blocks save per element. On 1,024 shuffled distinct lengths
    # plus scattered rows of one length (d = 16, 2-core x86_64), blocks
    # and gather ran 1.1-1.4x slower than reduceat in place while the
    # blocks held 20-35% of the elements, and 0.74-0.96x at 50%; one
    # extra bucket of 32 rows of length 5 took 40 ms against 22 ms.
    if (
        2 * int(sizes[stacked] @ ns[stacked]) < total
        or not _BLOCKS_MATCH_REDUCEAT
        or (op == "max" and dim == 1)
    ):
        stacked[:] = False
    few = np.sort(rows[np.repeat(~stacked, sizes)])
    if few.size:
        src, starts = activations, offsets[few]
        if few.size < rows.size:
            gather, starts = window_index(starts, lengths[few])
            src = np.take(activations, gather, axis=0)
        out[few] = ufunc.reduceat(src, starts, axis=0)
    for j in np.flatnonzero(stacked):
        r = rows[bounds[j] : bounds[j + 1]]
        block, at = _row_block(activations, offsets, r, int(ns[j]))
        out[at] = _reduce_block(block, ufunc)
    if op == "avg":
        out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
    return out


def attention_pool(
    per_key_activations: list[tuple[np.ndarray, np.ndarray]],
    params: AttentionParams,
) -> tuple[np.ndarray, int]:
    """Single-head attention over each row's concatenated group sequence.

    Input: per group feature, (activations, offsets) with a shared row
    count. Returns one output vector per row plus the multiply-accumulate
    count (3nd^2 + 2n^2 d + d^2 per non-empty row of sequence length n).

    Rows are bucketed by their per-key lengths; each bucket runs as
    stacked (m, n, d) blocks of at most ``_ATTENTION_BLOCK_ELEMENTS``
    score elements, so the Python work grows with the number of distinct
    length tuples, not with the row count. A block is its keys' parts
    joined along the sequence axis, each part cut from that key's
    activations by ``_row_block`` (a view when the block's rows are
    consecutive); a lone key's part is the block itself.
    A row's output does not depend on which rows share its block: every
    matmul runs per stacked matrix with the shapes of a lone row (the
    output projection as (1, d) @ (d, d), since a (m, d) product can
    round differently), the softmax sum and the mean reduce each row
    along the same axis as a lone (n, d) row would, and only the max,
    which is exact, takes a different reduction path.
    Empty rows give zero vectors.
    """
    if not per_key_activations:
        raise ValueError("attention needs at least one feature")
    n_rows = per_key_activations[0][1].size
    d = params.w_q.shape[0]
    for acts, offs in per_key_activations:
        if offs.size != n_rows:
            raise ValueError("group features disagree on row count")
        if acts.shape[1] != d:
            raise ValueError(
                f"activation dim {acts.shape[1]} != attention dim {d}"
            )
    out = np.zeros((n_rows, d), dtype=np.float32)
    key_lens = np.stack(
        [_row_lengths(offs, acts.shape[0]) for acts, offs in per_key_activations]
    )
    rows, bounds = _length_buckets(key_lens)
    ns = key_lens[:, rows].sum(axis=0)
    macs = int(np.sum(3 * ns * d * d + 2 * ns * ns * d + d * d))

    scale = np.float32(1.0 / math.sqrt(d))
    for first, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        widths = key_lens[:, rows[first]].tolist()
        n = sum(widths)
        step = max(1, _ATTENTION_BLOCK_ELEMENTS // (n * n))
        for a in range(first, stop, step):
            r = rows[a : min(a + step, stop)]
            parts = [
                _row_block(acts, offs, r, w)[0]
                for (acts, offs), w in zip(per_key_activations, widths)
                if w
            ]
            x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            q = x @ params.w_q
            k = x @ params.w_k
            v = x @ params.w_v
            scores = (q @ k.transpose(0, 2, 1)) * scale
            scores -= scores.max(axis=2, keepdims=True, initial=-np.inf)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=2, keepdims=True)
            ctx = scores @ v
            pooled = ctx.mean(axis=1, keepdims=True)
            out[r] = (pooled @ params.w_o)[:, 0]
    return out, macs


def _rank_bounds(batch_size: int, num_ranks: int) -> np.ndarray:
    """Row bounds of the ranks that take rows: rank r owns rows
    ``bounds[r]:bounds[r+1]``. A batch of B rows goes to min(R, B) ranks
    and the first B mod R of them take one extra row."""
    n = min(num_ranks, batch_size)
    base, extra = divmod(batch_size, n)
    ranks = np.arange(n + 1, dtype=np.int64)
    return ranks * base + np.minimum(ranks, extra)


@dataclass(frozen=True)
class PoolingUnit:
    """Tensors pooled together, with the ranks' slices of them.

    Rank r transmits rows ``bounds[r]:bounds[r+1]`` of every tensor.
    ``inverse`` maps each batch row onto a tensor row; it is None for a
    plain key, whose tensor is the batch itself.
    """

    tensors: dict[str, JaggedTensor]
    inverse: np.ndarray | None
    bounds: np.ndarray


def split_batch(
    batch: ReaderBatch, spec: ModelSpec, mode: str, num_ranks: int
) -> list[PoolingUnit]:
    """A reader batch's pooling units in ``spec.units`` order, split
    across ranks (data parallelism): each group's tensors with an
    inverse, then each plain key's tensor.

    Ranks own contiguous row ranges (:func:`_rank_bounds`), so ranks
    beyond the row count get no rows and send nothing. In dedup mode the
    rank is part of the dedup key: one :func:`unique_first_occurrence`
    over ``rank * U + inverse_lookup`` of the batch's IKJT lays each rank's
    unique rows out contiguously, rank after rank, each rank's in
    first-occurrence order, which is what deduplicating that rank's rows
    alone gives. In baseline mode a group is its plain tensors with an
    identity inverse.
    """
    if mode not in ("baseline", "dedup"):
        raise ValueError(f"unknown mode {mode!r}")
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if batch.batch_size < 1:
        raise ValueError("cannot split an empty batch")
    rows = _rank_bounds(batch.batch_size, num_ranks)
    rank_of_row = np.repeat(np.arange(rows.size - 1), np.diff(rows))
    units = []
    for keys, _, grouped in spec.units:
        if grouped and mode == "dedup":
            ik = next((ik for ik in batch.ikjts if ik.group_keys == keys), None)
            if ik is None:
                raise ValueError(
                    f"batch has no IKJT for group {list(keys)}; "
                    "reader spec and model spec disagree"
                )
            key = rank_of_row * ik.unique_count + ik.inverse_lookup
            first, inverse = unique_first_occurrence(key)
            picked = ik.inverse_lookup[first]
            tensors = {k: jagged_index_select(ik.per_feature[k], picked) for k in keys}
            units.append(PoolingUnit(tensors, inverse, np.searchsorted(first, rows)))
            continue
        missing = [k for k in keys if k not in batch.kjts]
        if missing:
            raise ValueError(f"batch lacks plain tensors for {missing}")
        identity = np.arange(batch.batch_size, dtype=np.int64) if grouped else None
        units.append(PoolingUnit({k: batch.kjts[k] for k in keys}, identity, rows))
    return units


def forward_iteration(
    batch: ReaderBatch,
    spec: ModelSpec,
    plan: ShardingPlan,
    mode: str,
    tables: dict[str, EmbeddingTable] | None = None,
) -> tuple[np.ndarray, IterationStats]:
    """One forward sparse pass; returns per-row scores and counters.

    ``mode`` must match how the batch was read: "dedup" consumes the
    batch's IKJTs, "baseline" consumes plain tensors for every key.
    Scores are float32 and bit-identical across modes and rank counts.
    """
    units = split_batch(batch, spec, mode, plan.num_ranks)
    if tables is None:
        tables = build_tables(spec)
    dim = spec.dim
    stats = IterationStats()
    stats.a2a_bytes_fwd = sdd(units, plan).a2a_bytes_fwd

    # Pooled blocks in unit order: groups, then plain keys.
    blocks: list[np.ndarray] = []
    for unit, (keys, op, _) in zip(units, spec.units):
        acts = []
        for key, jt in unit.tensors.items():
            acts.append((embedding_lookup(jt, tables[key], key), jt.offsets))
            stats.lookup_count += jt.values.size
            rank_values = np.diff(np.append(jt.offsets, jt.values.size)[unit.bounds])
            stats.activation_elements = max(
                stats.activation_elements, int(rank_values.max()) * dim
            )
        if op == "attention":
            params = AttentionParams.create("/".join(keys), dim, spec.seed)
            pooled, macs = attention_pool(acts, params)
            stats.pooling_mac_count += macs
            unit_blocks = [pooled]
        else:
            unit_blocks = [pool(a, offs, op) for a, offs in acts]
            stats.pooling_mac_count += sum(a.shape[0] for a, _ in acts) * dim
        stats.a2a_bytes_back += sum(b.shape[0] * dim * 4 for b in unit_blocks)
        if unit.inverse is not None:
            unit_blocks = [np.take(b, unit.inverse, axis=0) for b in unit_blocks]
            stats.index_select_elements += len(unit_blocks) * unit.inverse.size * dim
        blocks.extend(unit_blocks)

    logit = _interaction_logits(blocks)
    return (1.0 / (1.0 + np.exp(-logit))).astype(np.float32), stats


def _interaction_logits(blocks: list[np.ndarray]) -> np.ndarray:
    """The interaction stub's logit per batch row: the mean of the
    pairwise dots of the pooled (B, d) blocks, diagonal included so a
    single-block model still produces a signal. The pairs (0, 0), (0, 1),
    ..., (F-1, F-1) each fill one row of a pair-major (pairs, B) array,
    whose mean over axis 0 adds them left to right per batch row when
    B > 1 but pairwise when B = 1, so the dots are kept, not summed as
    they come."""
    f = len(blocks)
    pairs = ((i, j) for i in range(f) for j in range(i, f))
    dots = np.empty((f * (f + 1) // 2, blocks[0].shape[0]), dtype=np.float32)
    for row, (i, j) in zip(dots, pairs):
        np.einsum("bd,bd->b", blocks[i], blocks[j], out=row)
    return dots.mean(axis=0, dtype=np.float32)


def save_model_spec(path: str | Path, spec: ModelSpec) -> None:
    Path(path).write_text(json.dumps(asdict(spec), indent=2) + "\n")


def load_model_spec(path: str | Path) -> ModelSpec:
    obj = json.loads(Path(path).read_text())
    groups = [GroupConfig(**g) for g in obj.pop("groups")]
    return ModelSpec(groups=groups, **obj)


def default_model_spec(feature_specs, seed: int = 0) -> ModelSpec:
    """Model spec aligned with a generator config, read from
    ``datagen.sync_groups``: attention over each named sync group (one
    member or more), then a singleton group for each other user sequence,
    cycling through sum, max and avg, and sum-pooled item features."""
    resolved = sync_groups(feature_specs)
    ops = itertools.cycle(("sum", "max", "avg"))
    groups = [GroupConfig(tuple(s.key for s in m), "attention") for n, m in resolved if n is not None]
    groups += [GroupConfig((m[0].key,), next(ops)) for n, m in resolved if n is None]
    plain = {fs.key: "sum" for fs in feature_specs if fs.kind == "item"}
    tables = {fs.key: fs.vocab_size for fs in feature_specs}
    return ModelSpec(tables=tables, groups=groups, plain=plain, seed=seed)
