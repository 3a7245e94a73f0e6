"""Jagged and deduplicated tensor encodings.

A batch of variable-length ID lists is stored either as a plain keyed
jagged tensor (:class:`KJT`) or, when rows repeat, as an inverse keyed
jagged tensor (:class:`IKJT`) that keeps one copy of each distinct row
and an ``inverse_lookup`` slice mapping batch rows onto the unique rows.
Grouped IKJTs deduplicate several features under one shared
``inverse_lookup``; two batch rows merge only when *every* feature in
the group has identical lists on both rows. Rows are deduplicated by one
64-bit key per row, built from two wrapping sums over the row's values;
every merge the keys propose is then checked value by value, and a call
in which a check fails (two distinct rows shared a key) falls back to
comparing whole zero-padded rows.

Only this module knows the jagged layout: :meth:`JaggedTensor.from_lengths`
builds offsets, :func:`_check_offsets` checks them, :func:`concat_rows`
joins tensors. A :class:`RunJaggedTensor` holds each stored row once as a
head plus a row -> head index, as a stored stripe's marks give them (a
row equal to its session's previous row is marked). Every tensor is
read as heads plus a row index (:func:`_heads`; a plain tensor is its
own heads), so :func:`_dedup` (behind :func:`build_ikjt` and
``characterize``) keys group heads only and :func:`expand_runs` (behind
:func:`build_kjt`) is the heads themselves or one gather. Tensors are
immutable (read-only buffers) and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "JaggedTensor",
    "RunJaggedTensor",
    "KJT",
    "IKJT",
    "PartialIKJT",
    "DedupeModel",
    "build_kjt",
    "build_ikjt",
    "build_partial_ikjt",
    "jagged_index_select",
    "gather_windows",
    "window_index",
    "concat_rows",
    "slice_rows",
    "expand_runs",
    "unique_first_occurrence",
    "dedupe_len",
    "dedupe_factor",
    "measured_dedupe_factor",
    "payload_bytes",
    "slice_stream_bytes",
    "values_stream_bytes",
    "splitmix64",
]

_I64 = np.dtype("<i8")
_U64 = np.uint64


def _positive_count(name: str, value) -> int:
    """``value`` as an int: TypeError unless it is an integer (a float
    such as 3.0 is not, nor is a bool), ValueError if it is below 1; both
    name ``name``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


def _real(name: str, value):
    """``value`` unchanged: TypeError naming ``name`` unless it is a real
    number (a bool is not, nor is a numeric string). Range checks are
    the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return value


def _json_fields(path, cls, *also: str) -> dict:
    """The JSON object in the file ``path``, holding the fields of the
    dataclass ``cls`` and the required ``also``: TypeError names a field
    it does not know, ValueError a missing one that has no default; both
    name the file."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    required = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    required |= dict.fromkeys(also, True)
    for name in [*obj, *required]:  # unknown fields first, then missing ones
        if name not in required:
            raise TypeError(f"{path}: unknown field {name!r}")
        if required[name] and name not in obj:
            raise ValueError(f"{path}: missing required field {name!r}")
    return obj


def _key_names(what: str, value) -> tuple[str, ...]:
    """``value`` as a tuple of feature names: TypeError unless it is a
    list or tuple of str (a string is not, since its characters would
    become keys, nor is a set, whose order is arbitrary), ValueError if a
    name repeats; both name ``what``."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what} must be a list of feature names, got {value!r}")
    for i, name in enumerate(value):
        if not isinstance(name, str):
            raise TypeError(f"{what} must hold feature names, got {name!r}")
        if name in value[:i]:
            raise ValueError(f"feature {name!r} is listed twice in {what}")
    return tuple(value)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _check_offsets(offsets: np.ndarray, total: int) -> None:
    """Raise ValueError naming the first row that does not start at 0,
    starts before the previous row or past ``total``. Comparing, not
    subtracting, neighbours keeps every offset in ``[0, total]``, so no
    wrapped int64 difference can pass."""
    if offsets.size and (offsets[0] or offsets[-1] > total or np.any(offsets[1:] < offsets[:-1])):
        bad = np.append(offsets[0] != 0, offsets[1:] < offsets[:-1]) | (offsets > total)
        row = int(np.argmax(bad))
        raise ValueError(
            f"offsets must start at 0, never decrease and stay within the "
            f"{total} elements; row {row} starts at {int(offsets[row])}"
        )


def _row_lengths(offsets: np.ndarray, total: int) -> np.ndarray:
    """:func:`_check_offsets`, then each row's length, the last row
    running to ``total``."""
    _check_offsets(offsets, total)
    return np.diff(offsets, append=total)


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Each row's offset when rows of ``lengths`` are laid end to end."""
    return np.cumsum(lengths, dtype=np.int64) - lengths


@dataclass(frozen=True, eq=False)
class JaggedTensor:
    """A batch of variable-length int64 ID lists in values/offsets form.

    ``offsets`` holds one entry per row: row ``i`` spans
    ``values[offsets[i]:offsets[i+1]]``, and the last row runs to the end
    of ``values``.
    """

    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        object.__setattr__(self, "offsets", _freeze(self.offsets))
        _check_offsets(self.offsets, self.values.size)

    @classmethod
    def from_lengths(cls, values, lengths) -> "JaggedTensor":
        """Rows of ``lengths[i]`` values each, laid end to end in ``values``.
        Raises ValueError unless the lengths are non-negative and sum to
        the values count, also where their int64 sum wraps."""
        lengths = np.asarray(lengths, dtype=np.int64)
        jt = cls(values=values, offsets=_starts(lengths))
        if lengths.size and int(jt.offsets[-1]) + int(lengths[-1]) != jt.values.size:
            raise ValueError(f"row lengths do not sum to the {jt.values.size} values")
        return jt

    @property
    def row_count(self) -> int:
        return int(self.offsets.size)

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.offsets, append=self.values.size)

    def row(self, i: int) -> np.ndarray:
        n = self.row_count
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range for {n} rows")
        start = self.offsets[i]
        end = self.offsets[i + 1] if i + 1 < n else self.values.size
        return self.values[start:end]


def _in_first_use_order(index: np.ndarray, heads: int) -> bool:
    """Whether ``index`` starts at 0 and each entry is either an earlier
    entry or one past the largest so far, ending at ``heads - 1``: every
    head is used, and heads are first used in order."""
    if not index.size:
        return heads == 0
    top = np.maximum.accumulate(index)
    return bool(index[0] == 0 and top[-1] == heads - 1 and index.min() >= 0 and not np.any(np.diff(top) > 1))


@dataclass(frozen=True, eq=False)
class RunJaggedTensor:
    """Rows stored once each: row ``i`` is row ``head_index[i]`` of
    ``heads``.

    Heads are numbered in order of first use: ``head_index`` starts at 0,
    and each row takes either a head some earlier row took (in a stored
    stripe, its session's previous row, which may be any earlier row) or
    the next head. So every head is used, and the index is the identity
    exactly when no row repeats a head. Two heads may still be equal
    (rows of two sessions, or a session's repeat cut by a stripe
    boundary).
    """

    heads: JaggedTensor
    head_index: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "head_index", _freeze(self.head_index))
        n = self.heads.row_count
        if not _in_first_use_order(self.head_index, n):
            raise ValueError(
                f"head_index must start at 0 and use each of the {n} heads, "
                f"each first used after the head before it"
            )

    @property
    def row_count(self) -> int:
        return int(self.head_index.size)


def _heads(jt: JaggedTensor | RunJaggedTensor) -> tuple[JaggedTensor, np.ndarray]:
    """``jt`` as heads plus a row -> head index in order of first use: a
    plain tensor is its own heads, under the identity index."""
    return (jt.heads, jt.head_index) if isinstance(jt, RunJaggedTensor) else (jt, np.arange(jt.row_count))


def expand_runs(jt: JaggedTensor | RunJaggedTensor) -> JaggedTensor:
    """The rows of ``jt`` laid out one by one: its heads themselves when
    no row repeats a head (so a plain tensor is returned as it is), else
    one gather of the heads through the index."""
    heads, index = _heads(jt)
    return heads if heads.row_count == index.size else jagged_index_select(heads, index)


@dataclass(frozen=True, eq=False)
class KJT:
    """Keyed jagged tensor: one tensor of ``batch_size`` rows per feature
    key, a JaggedTensor or, for a batch read from storage, a
    RunJaggedTensor; :func:`build_kjt` lays every one out."""

    batch_size: int
    entries: Mapping[str, JaggedTensor | RunJaggedTensor]

    def __post_init__(self) -> None:
        object.__setattr__(self, "batch_size", _positive_count("batch_size", self.batch_size))
        object.__setattr__(self, "entries", dict(self.entries))
        for key, jt in self.entries.items():
            if jt.row_count != self.batch_size:
                raise ValueError(
                    f"feature {key!r} has {jt.row_count} rows, expected {self.batch_size}"
                )

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(self.entries)


@dataclass(frozen=True, eq=False)
class IKJT:
    """Deduplicated keyed jagged tensor for one feature group.

    ``inverse_lookup[i]`` is the unique-row ordinal for batch row ``i``;
    every per-feature JaggedTensor has exactly U rows, numbered in
    first-occurrence order. Unique-row ordinals (not offsets positions)
    are used uniformly, so empty unique rows are addressed the same way
    as any other.
    """

    batch_size: int
    group_keys: tuple[str, ...]
    inverse_lookup: np.ndarray
    per_feature: Mapping[str, JaggedTensor]

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_keys", _key_names("group_keys", self.group_keys))
        object.__setattr__(self, "inverse_lookup", _freeze(self.inverse_lookup))
        object.__setattr__(self, "per_feature", dict(self.per_feature))
        object.__setattr__(self, "batch_size", _positive_count("batch_size", self.batch_size))
        if not self.group_keys:
            raise ValueError("empty dedup group")
        if self.inverse_lookup.size != self.batch_size:
            raise ValueError("inverse_lookup must have one entry per batch row")
        if set(self.group_keys) != set(self.per_feature):
            raise ValueError("group_keys and per_feature keys differ")
        u = self.unique_count
        if u > self.batch_size:
            raise ValueError("more unique rows than batch rows")
        for key, jt in self.per_feature.items():
            if jt.row_count != u:
                raise ValueError(
                    f"feature {key!r} has {jt.row_count} dedup rows, expected {u}"
                )
        if self.inverse_lookup.size:
            lo = int(self.inverse_lookup.min())
            hi = int(self.inverse_lookup.max())
            if lo < 0 or hi >= u:
                raise ValueError("inverse_lookup entry out of range")
            if np.count_nonzero(np.bincount(self.inverse_lookup, minlength=u)) != u:
                raise ValueError("orphan unique rows: some ordinal never referenced")

    @property
    def unique_count(self) -> int:
        key = self.group_keys[0]
        return self.per_feature[key].row_count


@dataclass(frozen=True, eq=False)
class PartialIKJT:
    """Single-feature encoding that also reuses shifted (partially equal) rows.

    Rows are stored as (offset, length) windows into one shared value
    buffer, so a row that is a shift of an earlier row costs only the
    non-overlapping tail.
    """

    feature_key: str
    values: np.ndarray
    windows: np.ndarray  # shape (B, 2): (offset, length) per row

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        win = _freeze(self.windows)
        object.__setattr__(self, "windows", win)
        if win.ndim != 2 or win.shape[1] != 2:
            raise ValueError("windows must be a (B, 2) array")
        if win.size and np.any(win[:, 0] + win[:, 1] > self.values.size):
            raise ValueError("window exceeds value buffer")
        if win.size and (np.any(win[:, 0] < 0) or np.any(win[:, 1] < 0)):
            raise ValueError("negative window bound")

    @property
    def row_count(self) -> int:
        return int(self.windows.shape[0])

    def row(self, i: int) -> np.ndarray:
        off, length = self.windows[i]
        return self.values[off : off + length]


def _entries(rows, keys: Sequence[str]) -> dict:
    """The tensors of ``keys`` in a columnar batch, as stored."""
    keys = _key_names("keys", keys)
    if not rows:
        raise ValueError("empty batch")
    have = rows.features.entries
    for key in keys:
        if key not in have:
            raise ValueError(f"feature {key!r} is not in the batch, which has {list(have)}")
    return {key: have[key] for key in keys}


def build_kjt(rows, keys: Sequence[str]) -> KJT:
    """Gather ``keys`` of a columnar batch into a KJT, preserving batch
    order. A tensor stored as heads is laid out row by row
    (:func:`expand_runs`); any other shares the batch's buffers.
    ``rows`` is a batch whose ``features`` is a KJT, such as a storage
    ``ScanBatch``."""
    entries = _entries(rows, keys)
    return KJT(rows.features.batch_size, {key: expand_runs(jt) for key, jt in entries.items()})


def splitmix64(x):
    """Stateless 64-bit mix of an integer or integer array, taken as
    uint64 bits: the row key of :func:`_unique_rows`, the sharding hash
    and the ``mod_hash`` transform."""
    with np.errstate(over="ignore"):
        z = np.asarray(x).astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


_ROW_K = _U64(0xD6E8FEB86659FD93)  # odd, so x -> x * K is a bijection of uint64


def _row_keys(jts: Sequence[JaggedTensor]) -> np.ndarray:
    """One uint64 per row, equal for equal rows of every tensor.

    Per tensor, with ``m = values * K`` xor-shifted right by 29 (all
    wrapping uint64), a row contributes ``s1 = sum(m)`` and
    ``s2 = sum(m * position in row)``; ``s2`` is the sum of
    ``m * global index`` less ``start * s1``. Both sums and the row
    length are mixed with :func:`splitmix64` and folded into the key in
    group order. The xor-shift makes the sums non-linear in the values:
    without it, rows of short lists from a vocabulary of a few hundred
    IDs share keys in many batches. Distinct rows may still share a key;
    :func:`_unique_rows` checks every merge.
    """
    n = jts[0].row_count
    keys = np.zeros(n, dtype=_U64)
    for jt in jts:
        lens = jt.row_lengths()
        s1 = np.zeros(n, dtype=_U64)
        s2 = np.zeros(n, dtype=_U64)
        nonempty = lens > 0
        starts = jt.offsets[nonempty]
        if starts.size:
            with np.errstate(over="ignore"):
                m = jt.values.view(_U64) * _ROW_K
                m ^= m >> _U64(29)
                s1[nonempty] = np.add.reduceat(m, starts)
                m *= np.arange(m.size, dtype=_U64)
                s2[nonempty] = np.add.reduceat(m, starts) - starts.view(_U64) * s1[nonempty]
        keys = splitmix64(keys ^ splitmix64(s1 ^ splitmix64(s2 ^ lens.view(_U64))))
    return keys


def _unique_rows(jts: Sequence[JaggedTensor]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows across jagged tensors of equal row count.

    Row i of the input is the tuple of row i of every tensor. Rows are
    numbered by one uint64 key each (:func:`_row_keys`), and every row
    merged into an earlier row of its key is then compared exactly with
    it (:func:`_equal_rows`) in every tensor. If any such check fails,
    two distinct rows shared a key, and the call falls back to
    :func:`_unique_rows_padded`, so unequal rows can never merge. Returns
    what :func:`unique_first_occurrence` returns for the rows.
    """
    first, inverse = unique_first_occurrence(_row_keys(jts))
    if first.size == inverse.size:  # distinct keys: distinct rows, nothing merged
        return first, inverse
    merged = np.flatnonzero(first[inverse] != np.arange(inverse.size))  # rows merged into an earlier row
    if all(_equal_rows(jt, merged, first[inverse[merged]]).all() for jt in jts):
        return first, inverse
    return _unique_rows_padded(jts)


def _equal_rows(jt: JaggedTensor, rows: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Whether row ``rows[k]`` of ``jt`` equals row ``refs[k]``, for each
    k. Two rows are compared value by value only when their lengths and
    first values match."""
    lens, starts, values = jt.row_lengths(), jt.offsets, jt.values
    same_length = lens[rows] == lens[refs]
    equal = same_length & (lens[rows] == 0)
    full = np.flatnonzero(same_length & (lens[rows] > 0))
    full = full[values[starts[rows[full]]] == values[starts[refs[full]]]]
    if full.size:
        r, f = rows[full], refs[full]
        cells, first_cell = window_index(starts[r], lens[r])
        differ = values[cells] != values[cells + np.repeat(starts[f] - starts[r], lens[r])]
        full = full[~np.logical_or.reduceat(differ, first_cell)]
    equal[full] = True
    return equal


def _unique_rows_padded(jts: Sequence[JaggedTensor]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_unique_rows` by whole-row comparison: the path taken when
    two distinct rows share a key, and the reference the tests compare
    against.

    Each row is laid out as ``(length, values..., zero padding)`` per
    tensor in one int64 matrix, and whole matrix rows are compared, so
    unequal rows can never compare equal.
    """
    n = jts[0].row_count
    lengths = [jt.row_lengths() for jt in jts]
    widths = [1 + int(lens.max()) for lens in lengths]
    table = np.zeros((n, sum(widths)), dtype=np.int64)
    col = 0
    for jt, lens, width in zip(jts, lengths, widths):
        table[:, col] = lens
        row_of = np.repeat(np.arange(n), lens)
        pos_in_row = np.arange(jt.values.size) - np.repeat(jt.offsets, lens)
        table[row_of, col + 1 + pos_in_row] = jt.values
        col += width
    whole_rows = table.view(np.dtype((np.void, table.shape[1] * _I64.itemsize)))
    return unique_first_occurrence(whole_rows.ravel())


def unique_first_occurrence(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries of a 1-D array, numbered in first-occurrence order.

    Returns the position of each distinct entry's first occurrence, in
    ascending order, and each entry's ordinal into that array, both
    int64. Equal entries form runs in one unstable sort; each run's
    first occurrence is its least position, and the runs are renumbered
    by it. Any dtype with a sort order and ``!=`` works, ``np.void``
    rows included.
    """
    order = np.argsort(keys)
    sorted_keys = keys[order]
    head = np.empty(sorted_keys.size, dtype=bool)
    head[:1] = True
    head[1:] = sorted_keys[1:] != sorted_keys[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(head))
    by_first = np.argsort(first)
    ordinal = np.empty_like(by_first)
    ordinal[by_first] = np.arange(by_first.size)
    inverse = np.empty_like(order)
    inverse[order] = ordinal[np.cumsum(head) - 1]
    return first[by_first], inverse


def _dedup(members: Sequence[JaggedTensor | RunJaggedTensor]) -> tuple[np.ndarray, list[JaggedTensor]]:
    """Each row's ordinal among the distinct rows, in first-occurrence
    order, and every member's distinct rows laid out in that order; row i
    is the tuple of row i of every member, all of equal row count.

    Only group heads are keyed (:func:`_heads`): a row is a group head
    when it is the first to use its tuple of member head indexes. Every
    other row equals the group head with its tuple in every member, so
    each distinct row first occurs at a group head, and the other rows
    take their head's ordinal. :func:`_unique_rows` numbers the group
    heads by a 64-bit key and checks every merge exactly, so unequal rows
    can never merge. When every keyed row is distinct, the keyed tensors
    are the distinct rows as they are.
    """
    parts = [_heads(jt) for jt in members]
    head_of, at = parts[0][1], None  # row -> group head ordinal; group head -> row
    for heads, index in parts[1:]:
        # ordinals stay below the row count, so the pair key cannot wrap
        at, head_of = unique_first_occurrence(head_of * heads.row_count + index)
    # A member whose heads are the group's needs no gather.
    jts = [
        heads if at is None or heads.row_count == at.size else jagged_index_select(heads, index[at])
        for heads, index in parts
    ]
    first, inverse = _unique_rows(jts)
    if first.size < inverse.size:
        jts = [jagged_index_select(jt, first) for jt in jts]
    return inverse[head_of], jts


def build_ikjt(rows, group: Sequence[str]) -> IKJT:
    """Deduplicate a feature group across the whole batch into an IKJT.

    Batch rows i and j share an ``inverse_lookup`` entry iff all features
    in the group have identical lists at i and j; unique rows are
    numbered in first-occurrence order (:func:`_dedup`, which keys the
    group's stored heads only). ``rows`` is a columnar batch such as a
    storage ``ScanBatch``.
    """
    entries = _entries(rows, group)
    if not entries:
        raise ValueError("empty dedup group")
    inverse, jts = _dedup(list(entries.values()))
    return IKJT(rows.features.batch_size, tuple(entries), inverse, dict(zip(entries, jts)))


def build_partial_ikjt(rows, key: str) -> PartialIKJT:
    """Greedy shift-aware encoding of one feature across a batch.

    For each row list, in batch order: reuse the leftmost contiguous
    window of the buffer equal to the list if one exists; otherwise, if
    the longest proper prefix of the list matches a suffix of the buffer,
    append only the non-overlapping tail; otherwise append the whole
    list. ``rows`` is a columnar batch such as a storage ``ScanBatch``.
    """
    jt = build_kjt(rows, [key]).entries[key]
    buf = bytearray()
    windows = np.empty((jt.row_count, 2), dtype=np.int64)
    item = _I64.itemsize
    for i in range(jt.row_count):
        arr = jt.row(i)
        needle = arr.astype(_I64, copy=False).tobytes()
        n = arr.size
        if n == 0:
            windows[i] = (0, 0)
            continue
        pos = _find_aligned(buf, needle, item)
        if pos >= 0:
            windows[i] = (pos // item, n)
            continue
        overlap = _suffix_overlap(buf, needle, item, max_len=n - 1)
        start = (len(buf) - overlap * item) // item
        buf.extend(needle[overlap * item :])
        windows[i] = (start, n)
    values = np.frombuffer(bytes(buf), dtype=_I64).astype(np.int64)
    return PartialIKJT(feature_key=key, values=values, windows=windows)


def _find_aligned(buf: bytearray, needle: bytes, item: int) -> int:
    start = 0
    while True:
        pos = buf.find(needle, start)
        if pos < 0:
            return -1
        if pos % item == 0:
            return pos
        start = pos + 1


def _suffix_overlap(buf: bytearray, needle: bytes, item: int, max_len: int) -> int:
    limit = min(max_len, len(buf) // item)
    for k in range(limit, 0, -1):
        if buf[-k * item :] == needle[: k * item]:
            return k
    return 0


def jagged_index_select(jt: JaggedTensor | RunJaggedTensor, indices) -> JaggedTensor:
    """Select rows of a jagged tensor without densifying.

    Output row k equals input row ``indices[k]``; the output value buffer
    holds exactly the selected rows' elements. Rows are gathered from the
    tensor's heads through its index (:func:`_heads`), so the selection
    is one gather whatever the tensor's form.
    """
    idx = np.asarray(indices, dtype=np.int64)
    n = jt.row_count
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        p = int(np.flatnonzero((idx < 0) | (idx >= n))[0])
        raise IndexError(f"index {int(idx[p])} at position {p} out of range for {n} rows")
    heads, index = _heads(jt)
    idx = index[idx]
    return gather_windows(heads.values, heads.offsets[idx], heads.row_lengths()[idx])


def window_index(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source index of every element when windows
    ``[starts[k], starts[k] + lengths[k])`` are laid end to end, and the
    laid-out rows' offsets."""
    out_offsets = _starts(lengths)
    # Gather: for output element t in row k, source index is
    # starts[k] + (t - out_offsets[k]).
    gather = np.repeat(starts - out_offsets, lengths)
    gather += np.arange(gather.size, dtype=np.int64)
    return gather, out_offsets


def gather_windows(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> JaggedTensor:
    """Rows laid end to end, row k being the window
    ``values[starts[k] : starts[k] + lengths[k]]``; windows may overlap."""
    gather, out_offsets = window_index(starts, lengths)
    return JaggedTensor(values=values[gather], offsets=out_offsets)


def concat_rows(jts: Sequence[JaggedTensor | RunJaggedTensor]) -> JaggedTensor | RunJaggedTensor:
    """The rows of ``jts``, in order, in one tensor with new buffers: heads
    and their index if any part holds heads, where a plain part's every
    row is a head. Each part's index is shifted past the heads before it,
    so the joined heads stay in order of first use."""
    heads, index = zip(*map(_heads, jts))
    joined = JaggedTensor.from_lengths(
        np.concatenate([h.values for h in heads]), np.concatenate([h.row_lengths() for h in heads])
    )
    if not any(isinstance(jt, RunJaggedTensor) for jt in jts):
        return joined
    base = _starts(np.array([h.row_count for h in heads], dtype=np.int64))
    return RunJaggedTensor(joined, np.concatenate([i + b for i, b in zip(index, base)]))


def slice_rows(jt: JaggedTensor | RunJaggedTensor, start: int, stop: int) -> JaggedTensor | RunJaggedTensor:
    """Rows ``[start, stop)`` as views of the tensor's buffers, offsets
    rebased to 0. A slice of heads keeps the heads its rows use: a view of
    them when they are the slice's own, in order of first use, and a
    gathered copy renumbered in that order when the slice starts after a
    head it uses, behind some later one."""
    if isinstance(jt, RunJaggedTensor):
        idx = jt.head_index[start:stop]
        first, last = int(idx[0]), int(idx.max())
        if _in_first_use_order(idx - first, last + 1 - first):
            return RunJaggedTensor(slice_rows(jt.heads, first, last + 1), idx - first)
        at, index = unique_first_occurrence(idx)
        return RunJaggedTensor(jagged_index_select(jt.heads, idx[at]), index)
    lo = jt.offsets[start]
    hi = jt.offsets[stop] if stop < jt.row_count else jt.values.size
    return JaggedTensor(values=jt.values[lo:hi], offsets=jt.offsets[start:stop] - lo)


@dataclass(frozen=True)
class DedupeModel:
    """Analytical predictor of per-batch deduplication for one feature.

    ``samples_per_session`` (S) is the average number of samples a
    session contributes, ``batch_size`` (B) the batch size, ``avg_len``
    (l) the feature's average list length, and ``unchanged_prob`` (d) the
    probability the feature's value is identical across adjacent rows of
    the same session.
    """

    samples_per_session: float
    batch_size: int
    avg_len: float
    unchanged_prob: float

    def __post_init__(self) -> None:
        if not 1 <= _real("samples_per_session", self.samples_per_session) < math.inf:
            raise ValueError(f"samples_per_session must be finite and >= 1, got {self.samples_per_session}")
        object.__setattr__(self, "batch_size", _positive_count("batch_size", self.batch_size))
        if not 0 < _real("avg_len", self.avg_len) < math.inf:
            raise ValueError(f"avg_len must be finite and > 0, got {self.avg_len}")
        if not 0.0 <= _real("unchanged_prob", self.unchanged_prob) <= 1.0:
            raise ValueError("unchanged_prob must be in [0, 1]")


def dedupe_len(model: DedupeModel) -> float:
    """Predicted values-slice length after deduplication.

    Evaluates l*B*(1 - (S-1)/S*d) with the division last, so whole-number
    cases come out exact.
    """
    s = model.samples_per_session
    unique_share = s - (s - 1.0) * model.unchanged_prob
    return model.avg_len * model.batch_size * unique_share / s


def dedupe_factor(model: DedupeModel) -> float:
    """Ratio of original to deduplicated values-slice length."""
    return model.avg_len * model.batch_size / dedupe_len(model)


def measured_dedupe_factor(ikjt: IKJT, baseline: KJT) -> dict[str, float]:
    """Observed per-feature dedupe factor of an encoded batch.

    Ratio of the baseline values length to the deduplicated values
    length; features whose values are empty in both encodings report 1.0.
    """
    if ikjt.batch_size != baseline.batch_size:
        raise ValueError("batch size mismatch")
    out: dict[str, float] = {}
    for key in ikjt.group_keys:
        if key not in baseline.entries:
            raise ValueError(f"feature {key!r} missing from baseline KJT")
        base_n = baseline.entries[key].values.size
        dedup_n = ikjt.per_feature[key].values.size
        out[key] = base_n / dedup_n if dedup_n else 1.0
    return out


def slice_stream_bytes(jt: JaggedTensor) -> int:
    """Wire size of one feature's (offsets, values) slices: two
    count-prefixed i64 streams."""
    return 16 + 8 * (jt.offsets.size + jt.values.size)


def values_stream_bytes(jt: JaggedTensor) -> int:
    """Data bytes of the values stream alone (excluding the count prefix)."""
    return 8 * jt.values.size


def payload_bytes(tensors: Mapping[str, JaggedTensor], inverse_rows: int) -> int:
    """Wire size of one tensor payload in the layout that
    ``docs/file_format.md`` defines, worked out from sizes alone: no
    payload is built. ``tensors`` are a KJT's entries or an IKJT's
    per-feature tensors, and ``inverse_rows`` is the IKJT's batch size
    (its inverse_lookup entries), 0 for a KJT. The key table, the u64
    batch size and u8 inverse flag, the inverse, then each key's
    (offsets, values) streams."""
    key_table = 4 + sum(4 + len(key.encode("utf-8")) for key in tensors)
    return key_table + 9 + 8 * inverse_rows + sum(map(slice_stream_bytes, tensors.values()))
