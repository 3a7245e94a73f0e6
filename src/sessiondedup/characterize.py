"""Dataset duplication characterization.

Quantifies how much of a record stream is redundant: samples per session
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
"""

from __future__ import annotations

import io
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .tensors import _feature_list

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
    per_batch: SessionHistogram | None = None


def session_histogram(records, window: str = "partition", batch_size: int = 4096) -> SessionHistogram:
    """Samples-per-session distribution over the chosen window.

    ``partition`` counts over the whole stream; ``batch`` splits the
    stream into consecutive ``batch_size`` chunks and pools the
    per-chunk session counts.
    """
    if window not in ("partition", "batch"):
        raise ValueError(f"unknown window {window!r}")
    if window == "batch" and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    counts: Counter[int] = Counter()
    if window == "partition":
        per_session: Counter[int] = Counter(r.session_id for r in records)
        counts.update(per_session.values())
    else:
        for start in range(0, len(records), batch_size):
            chunk = records[start : start + batch_size]
            per_session = Counter(r.session_id for r in chunk)
            counts.update(per_session.values())
    total_groups = sum(counts.values())
    total_samples = sum(k * v for k, v in counts.items())
    mean = total_samples / total_groups if total_groups else 0.0
    return SessionHistogram(counts=dict(sorted(counts.items())), mean=mean)


def exact_dup_pct(records, key: str) -> float:
    """Percent of samples whose list for ``key`` repeats another
    same-session sample's list."""
    total = 0
    classes: set[tuple[int, bytes]] = set()
    for rec in records:
        total += 1
        classes.add((rec.session_id, _feature_list(rec, key).tobytes()))
    if total == 0:
        return 0.0
    return 100.0 * (total - len(classes)) / total


def partial_dup_pct(records, key: str) -> float:
    """Percent of individual ID occurrences for ``key`` that repeat
    across same-session samples."""
    # Per (session, value): duplicated occurrences are everything beyond
    # the single sample holding the most copies.
    total_mult: dict[int, Counter[int]] = defaultdict(Counter)
    max_mult: dict[int, Counter[int]] = defaultdict(Counter)
    total = 0
    for rec in records:
        arr = _feature_list(rec, key)
        total += arr.size
        if arr.size == 0:
            continue
        vals, mult = np.unique(arr, return_counts=True)
        tm = total_mult[rec.session_id]
        mm = max_mult[rec.session_id]
        for v, m in zip(vals.tolist(), mult.tolist()):
            tm[v] += m
            if m > mm[v]:
                mm[v] = m
    if total == 0:
        return 0.0
    dup = 0
    for sid, tm in total_mult.items():
        mm = max_mult[sid]
        dup += sum(tm.values()) - sum(mm.values())
    return 100.0 * dup / total


def _avg_len(records, key: str) -> float:
    total = 0
    n = 0
    for rec in records:
        total += _feature_list(rec, key).size
        n += 1
    return total / n if n else 0.0


def byte_weighted(records, keys) -> tuple[float, float]:
    """Average-length-weighted exact and partial percentages across
    features: features carrying more IDs count proportionally more."""
    records = list(records)
    weights = []
    exacts = []
    partials = []
    for key in keys:
        weights.append(_avg_len(records, key))
        exacts.append(exact_dup_pct(records, key))
        partials.append(partial_dup_pct(records, key))
    wsum = sum(weights)
    if wsum == 0:
        return 0.0, 0.0
    exact = sum(w * e for w, e in zip(weights, exacts)) / wsum
    partial = sum(w * p for w, p in zip(weights, partials)) / wsum
    return exact, partial


def compute_dup_stats(records, keys, batch_size: int | None = 4096) -> DupStats:
    records = list(records)
    per_feature = {
        key: FeatureDupStats(
            exact_dup_pct=exact_dup_pct(records, key),
            partial_dup_pct=partial_dup_pct(records, key),
            avg_len=_avg_len(records, key),
        )
        for key in keys
    }
    bw_exact, bw_partial = byte_weighted(records, keys) if keys else (0.0, 0.0)
    partition = session_histogram(records, "partition")
    per_batch = (
        session_histogram(records, "batch", batch_size) if batch_size else None
    )
    return DupStats(
        per_feature=per_feature,
        byte_weighted_exact_pct=bw_exact,
        byte_weighted_partial_pct=bw_partial,
        partition=partition,
        per_batch=per_batch,
    )


def dup_stats_to_csv(stats: DupStats) -> str:
    out = io.StringIO()
    out.write("feature,exact_dup_pct,partial_dup_pct,avg_len\n")
    for key, fs in stats.per_feature.items():
        out.write(f"{key},{fs.exact_dup_pct:.6f},{fs.partial_dup_pct:.6f},{fs.avg_len:.6f}\n")
    return out.getvalue()
