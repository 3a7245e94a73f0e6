"""Dataset duplication characterization.

Quantifies how much of a row stream is redundant: samples per session
(whole-stream and per-batch), the percent of samples whose feature list
exactly repeats another same-session sample, and the percent of
individual ID occurrences already present in other same-session samples.

Counting rules:
  exact   - within a session, samples with byte-identical lists form a
            class; every sample past the first in its class is a
            duplicate. A never-updated feature over a k-sample session
            therefore scores (k-1)/k.
  partial - within a session, for each distinct ID value, occurrences
            beyond the largest single-sample multiplicity are
            duplicates. A 100-ID list shifted by one across two samples
            scores 99/200 = 49.5%. Multiset semantics: an ID occurring
            twice in one list needs two occurrences elsewhere to be
            fully matched.

Counting is columnar, in blocks of whole sessions, and each count takes
one 1-D sort or none: exact keys each (session, list) row by its
verified 64-bit hash (``tensors._unique_rows``); partial sorts one
packed int64 key per ID occurrence, (session, value, row); the session
histograms count one int64 (chunk, session rank) key per row. A block
whose rows lie in one ascending run, as in a file clustered by session,
is cut from the stripe batches without a gather.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .storage import ScanBatch
from .tensors import (
    JaggedTensor, _key_names, _positive_count, _unique_rows, build_kjt, concat_rows, jagged_index_select,
    slice_rows
)

__all__ = [
    "FeatureDupStats",
    "SessionHistogram",
    "DupStats",
    "session_histogram",
    "exact_dup_pct",
    "partial_dup_pct",
    "byte_weighted",
    "compute_dup_stats",
    "dup_stats_to_csv",
]

_BLOCK_ROWS = 4096  # rows per block of whole sessions; bounds the sorts' memory
_KEY_LIMIT = 2**62  # packed sort keys stay below this


@dataclass(frozen=True)
class SessionHistogram:
    counts: dict[int, int]  # samples-per-session value -> frequency
    mean: float


@dataclass(frozen=True)
class FeatureDupStats:
    exact_dup_pct: float
    partial_dup_pct: float
    avg_len: float


@dataclass(frozen=True)
class DupStats:
    per_feature: dict[str, FeatureDupStats]
    byte_weighted_exact_pct: float
    byte_weighted_partial_pct: float
    partition: SessionHistogram
    per_batch: SessionHistogram


def _columns(rows, keys):
    """Session ids and ``keys`` KJTs of a ScanBatch or a sequence of them."""
    rows = [rows] if isinstance(rows, ScanBatch) else rows
    sids = [b.session_ids for b in rows] or [np.empty(0, dtype=np.int64)]
    return np.concatenate(sids), [build_kjt(b, keys) for b in rows]


def session_histogram(rows, window: str = "partition", batch_size: int = 4096) -> SessionHistogram:
    """Samples-per-session distribution over the chosen window.

    ``partition`` counts over the whole stream; ``batch`` splits the
    stream into consecutive ``batch_size`` chunks and pools the
    per-chunk session counts.
    """
    if window not in ("partition", "batch"):
        raise ValueError(f"unknown window {window!r}")
    if window == "batch":
        batch_size = _positive_count("batch_size", batch_size)
    sids = _columns(rows, ())[0]
    chunk = np.arange(sids.size) // batch_size if window == "batch" else np.zeros_like(sids)
    # With m sessions ranked 0..m-1, chunk * m + rank numbers each (chunk, session).
    sessions, rank = np.unique(sids, return_inverse=True)
    _, per_session = np.unique(chunk * sessions.size + rank, return_counts=True)
    sizes, freq = np.unique(per_session, return_counts=True)
    mean = sids.size / per_session.size if per_session.size else 0.0
    return SessionHistogram(counts=dict(zip(sizes.tolist(), freq.tolist())), mean=mean)


def _dup_ids(sids: np.ndarray, jt: JaggedTensor) -> int:
    """ID occurrences beyond, per (session, value), the most copies any
    one row holds; ``sids`` gives each row's session, and rows of one
    session must be consecutive.

    Each ID becomes one int64 key ``(session * span + value - vmin) * R
    + row``, session being the ordinal of its row's session run and R
    the row count, so one in-place sort groups the occurrences by
    (session, value) and, inside a group, by row. Where that key would
    reach 2^62, the values are first replaced by their dense ranks.
    """
    n, rows = jt.values.size, jt.row_count
    if n == 0:
        return 0
    session = np.concatenate(([0], np.cumsum(sids[1:] != sids[:-1], dtype=np.int64)))
    sessions = int(session[-1]) + 1
    vals, vmin = jt.values, int(jt.values.min())
    span = int(jt.values.max()) - vmin + 1
    if sessions * span * rows >= _KEY_LIMIT:
        uniq, vals = np.unique(jt.values, return_inverse=True)
        vmin, span = 0, uniq.size
        if sessions * span * rows >= _KEY_LIMIT:
            raise ValueError(f"a block of {rows} rows and {n} IDs is too large to count")
    key = vals - vmin
    key *= rows
    key += np.repeat(session * (span * rows) + np.arange(rows), jt.row_lengths())
    key.sort()
    run_start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    copies = np.diff(np.append(run_start, n))  # per (session, value, row)
    group = key[run_start] // rows  # (session, value)
    most = np.maximum.reduceat(copies, np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1]))))
    return n - int(most.sum())


def _gather(jts: list[JaggedTensor], starts: np.ndarray, idx: np.ndarray) -> JaggedTensor:
    """Rows ``idx`` of ``jts`` laid end to end, ``jts[p]`` holding the
    rows from ``starts[p]``. Rows in one ascending run are cut from the
    tensors they lie in, as views when that is one tensor."""
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    if hi - lo == idx.size and np.all(idx[1:] > idx[:-1]):
        parts = [
            slice_rows(jt, max(lo - s, 0), min(hi - s, e - s))
            for jt, s, e in zip(jts, starts, starts[1:])
            if max(lo, s) < min(hi, e)
        ]
        return parts[0] if len(parts) == 1 else concat_rows(parts)
    by_row = np.argsort(idx)
    cuts = np.searchsorted(idx[by_row], starts)
    parts = [jagged_index_select(jt, idx[by_row[a:b]] - s) for jt, s, a, b in zip(jts, starts, cuts, cuts[1:])]
    return jagged_index_select(concat_rows(parts), np.argsort(by_row))


def _feature_stats(sids: np.ndarray, kjts, keys) -> dict[str, FeatureDupStats]:
    """Each distinct key's statistics, counted in one pass: rows are
    sorted by session, and each block holds the sessions whose first row
    falls in one ``_BLOCK_ROWS`` window of that order. Blocks hold whole
    sessions, so their integer counts add up exactly."""
    n = max(sids.size, 1)  # with no rows every count, and so every statistic, is 0
    counts = {key: [0, 0, 0] for key in keys}  # duplicate rows, IDs, duplicate IDs
    starts = np.cumsum([0] + [kjt.batch_size for kjt in kjts])
    order = np.argsort(sids, kind="stable")
    first = np.flatnonzero(np.diff(sids[order], prepend=sids[order[:1]] - 1))
    bounds = [*first[np.unique(first // _BLOCK_ROWS, return_index=True)[1]].tolist(), sids.size]
    for lo, hi in zip(bounds, bounds[1:]):
        idx = order[lo:hi]
        block_sids = sids[idx]
        for key, c in counts.items():
            jt = _gather([kjt.entries[key] for kjt in kjts], starts, idx)
            c[0] += hi - lo - _unique_rows([JaggedTensor(block_sids, np.arange(hi - lo)), jt])[0].size
            c[1] += jt.values.size
            c[2] += _dup_ids(block_sids, jt)
    return {
        key: FeatureDupStats(100.0 * dup_rows / n, 100.0 * dup_ids / max(ids, 1), ids / n)
        for key, (dup_rows, ids, dup_ids) in counts.items()
    }


def _blend(per_feature: dict[str, FeatureDupStats], keys) -> tuple[float, float]:
    stats = [per_feature[key] for key in keys]
    wsum = sum(fs.avg_len for fs in stats)
    if wsum == 0:
        return 0.0, 0.0
    exact = sum(fs.avg_len * fs.exact_dup_pct for fs in stats) / wsum
    partial = sum(fs.avg_len * fs.partial_dup_pct for fs in stats) / wsum
    return exact, partial


def exact_dup_pct(rows, key: str) -> float:
    """Percent of samples whose list for ``key`` repeats another
    same-session sample's list."""
    return _feature_stats(*_columns(rows, [key]), [key])[key].exact_dup_pct


def partial_dup_pct(rows, key: str) -> float:
    """Percent of individual ID occurrences for ``key`` that repeat
    across same-session samples."""
    return _feature_stats(*_columns(rows, [key]), [key])[key].partial_dup_pct


def byte_weighted(rows, keys) -> tuple[float, float]:
    """Average-length-weighted exact and partial percentages across
    features: features carrying more IDs count proportionally more. A
    repeated key would count twice in the blend, so it is rejected."""
    keys = _key_names("keys", keys)
    return _blend(_feature_stats(*_columns(rows, keys), keys), keys)


def compute_dup_stats(rows, keys, batch_size: int = 4096) -> DupStats:
    """Per-feature and byte-weighted duplication plus the session
    histograms over the whole stream and per ``batch_size`` chunk.
    ``rows`` is a storage ``ScanBatch`` or a sequence of them (one
    stream, in order)."""
    keys = _key_names("keys", keys)
    per_batch = session_histogram(rows, "batch", batch_size)  # checks batch_size first
    per_feature = _feature_stats(*_columns(rows, keys), keys)
    partition = session_histogram(rows, "partition")
    return DupStats(per_feature, *_blend(per_feature, keys), partition, per_batch)


def dup_stats_to_csv(stats: DupStats) -> str:
    out = io.StringIO()
    out.write("feature,exact_dup_pct,partial_dup_pct,avg_len\n")
    for key, fs in stats.per_feature.items():
        out.write(f"{key},{fs.exact_dup_pct:.6f},{fs.partial_dup_pct:.6f},{fs.avg_len:.6f}\n")
    return out.getvalue()
