"""Synthetic session-centric impression log generator.

Each session draws a sample count, initializes its user-sequence
features once, and then mutates each feature between impressions with
probability ``change_prob`` (a mutation shifts the list by one: drop the
oldest ID, append a fresh one). ``sync_groups`` is the one definition of
which features mutate together: a session draws one coin sequence per
group, so a named ``sync_group``'s members change on the same
impressions and every other user sequence on its own. Item-kind
features are redrawn on every impression. The sessions' rows are
interleaved by a global timestamp into one columnar table, modeling logs
where a session's impressions are spread across a partition rather than
adjacent.

Everything is deterministic given the config seed: each session owns an
independent child RNG, so a session's content does not depend on how
many other sessions exist. Session ``i``'s Generator is seeded with
``SeedSequence((seed, i))`` and makes its draws in one fixed order, the
contract that the golden digests pin:

1. the sample count (``SampleCountDist.sample``);
2. ``count`` timestamps, ``integers(0, horizon)``;
3. ``count`` label doubles, then ``count - 1`` mutation coins per sync
   group in group order, as one ``random`` call;
4. per feature in spec order: if its ``avg_len`` has a fraction, the
   Bernoulli doubles of its lengths (one per session for a user
   sequence, one per row for an item); then its ID pool,
   ``integers(0, vocab_size)``.

Only the draws happen session by session; the columns are built from
them afterwards, whole.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .storage import ScanBatch
from .tensors import KJT, _json_fields, _key_names, _positive_count, _real, _starts, gather_windows, splitmix64

__all__ = [
    "FeatureSpec",
    "SampleCountDist",
    "SessionConfig",
    "sync_groups",
    "generate_dataset",
    "shard_logs",
    "load_config",
    "save_config",
    "default_config",
    "splitmix64",
]

_LABEL_RATE = 0.1


@dataclass(frozen=True)
class FeatureSpec:
    """One sparse feature column.

    ``change_prob`` is the per-impression probability that a
    user_sequence feature mutates (so the unchanged rate d equals
    ``1 - change_prob``). Features sharing a ``sync_group`` mutate on the
    same impressions, which makes them safe to deduplicate as one group.
    """

    key: str
    kind: str  # "user_sequence" or "item"
    avg_len: float
    vocab_size: int
    change_prob: float = 0.0
    sync_group: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("user_sequence", "item"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if not 0 < _real("avg_len", self.avg_len) < math.inf:
            raise ValueError(f"avg_len must be finite and > 0, got {self.avg_len}")
        if self.kind == "user_sequence" and self.avg_len < 1:
            raise ValueError("user_sequence features need avg_len >= 1")
        object.__setattr__(self, "vocab_size", _positive_count("vocab_size", self.vocab_size))
        if not 0.0 <= _real("change_prob", self.change_prob) <= 1.0:
            raise ValueError("change_prob must be in [0, 1]")
        if self.sync_group == "":
            raise ValueError(f"feature {self.key!r}: sync_group must be a name or null, not empty")


@dataclass(frozen=True)
class SampleCountDist:
    """Distribution of samples per session.

    kinds:
      fixed      - every session has exactly ``mean`` samples (integer)
      geometric  - P(k) = (1/S)(1-1/S)^(k-1), mean S = ``mean``
      empirical  - draw from ``histogram`` (count -> weight); ``mean``
                   is the histogram's, and a given one must equal it
    """

    kind: str
    mean: float | None = None  # 1.0 for fixed and geometric when omitted
    histogram: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "geometric", "empirical"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "empirical":
            if not self.histogram:
                raise ValueError("empirical distribution needs a histogram")
            # JSON object keys are strings: "16" reads as 16, while "2.7"
            # stays a string and is rejected.
            hist = {
                _positive_count("histogram key", int(k) if isinstance(k, str) and k.isdecimal() else k): w
                for k, w in self.histogram.items()
            }
            object.__setattr__(self, "histogram", hist)
            if not all(0 < _real("histogram weight", w) < math.inf for w in self.histogram.values()):
                raise ValueError("histogram weights must be finite and > 0")
            mean = sum(k * w for k, w in hist.items()) / sum(hist.values())
            if not math.isfinite(mean):  # finite weights whose sums overflow
                raise ValueError(f"histogram mean must be finite, got {mean}")
            if self.mean is not None and not math.isclose(_real("mean", self.mean), mean, rel_tol=1e-9):
                raise ValueError(
                    f"empirical mean {self.mean} differs from its histogram's mean {mean}"
                )
            object.__setattr__(self, "mean", mean)
        else:
            if self.histogram is not None:
                raise ValueError(f"{self.kind} distribution takes no histogram")
            if self.mean is None:
                object.__setattr__(self, "mean", 1.0)
            if not 1 <= _real("mean", self.mean) < math.inf:
                raise ValueError(f"mean samples per session must be finite and >= 1, got {self.mean}")
            if self.kind == "fixed" and self.mean != int(self.mean):
                raise ValueError("fixed distribution needs an integer mean")

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "fixed":
            return int(self.mean)
        if self.kind == "geometric":
            return int(rng.geometric(1.0 / self.mean))
        counts = sorted(self.histogram)
        weights = np.array([self.histogram[c] for c in counts], dtype=np.float64)
        return int(rng.choice(counts, p=weights / weights.sum()))


@dataclass(frozen=True)
class SessionConfig:
    num_sessions: int
    samples_per_session: SampleCountDist
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_sessions", _positive_count("num_sessions", self.num_sessions))


def _session_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def sync_groups(
    specs: list[FeatureSpec],
) -> list[tuple[str | None, tuple[FeatureSpec, ...]]]:
    """Each group of user-sequence features once, as ``(name, members)``
    in order of the group's first member: a named ``sync_group``'s
    members together, every other user sequence alone with name None.
    Members of a group mutate on the same impressions, so they must agree
    on ``change_prob``; an item feature, never mutated, takes neither a
    ``sync_group`` nor a ``change_prob``."""
    named: dict[str, list[FeatureSpec]] = {}
    groups = []
    for s in specs:
        if s.kind == "item":
            if s.sync_group is not None or s.change_prob:
                raise ValueError(f"item feature {s.key!r} takes no sync_group or change_prob")
            continue
        members = [] if s.sync_group is None else named.setdefault(s.sync_group, [])
        if not members:
            groups.append((s.sync_group, members))
        elif s.change_prob != members[0].change_prob:
            raise ValueError(
                f"sync group {s.sync_group!r}: {s.key!r} has change_prob {s.change_prob},"
                f" {members[0].key!r} has {members[0].change_prob}"
            )
        members.append(s)
    return [(name, tuple(members)) for name, members in groups]


def generate_dataset(
    session_cfg: SessionConfig, feature_specs: list[FeatureSpec]
) -> ScanBatch:
    """Generate the full interleaved impression log for a config, as one
    columnar table in (timestamp, session_id) order.

    Session ``i`` draws from its own Generator, seeded with
    ``SeedSequence((seed, i))``, in the order that the golden digests
    pin: its sample count; ``count`` timestamps from ``integers(0,
    horizon)``; ``count`` label doubles, then ``count - 1`` mutation
    coins per sync group in group order; then, per feature in spec
    order, a fractional length's Bernoulli doubles (one per session for
    a user sequence, one per row for an item) and the feature's ID pool
    from ``integers(0, vocab_size)``. Consecutive doubles are one
    ``random`` call, and consecutive pools one ``integers`` call with one
    bound per ID; each draws the stream exactly as the separate calls
    would. No double moves across an integer draw: both take 64-bit
    words from the one stream (a 32-bit draw keeps a word's other half
    for the next 32-bit draw, and doubles skip it), so moving one would
    move the words the other reads."""
    keys = _key_names("feature_specs", [s.key for s in feature_specs])
    groups = sync_groups(feature_specs)
    group_of = {s.key: i for i, (_, members) in enumerate(groups) for s in members}
    num_groups = len(groups)
    change_probs = np.array([members[0].change_prob for _, members in groups]).reshape(-1, 1)
    # Per feature: its index into a session's change counts per group
    # (num_groups, which reads 0, for an item); its base length and the
    # fraction drawn on top as a Bernoulli, which keeps the mean length
    # exact; and whether it has a length per row (an item) or one per
    # session.
    terms = [
        (group_of.get(s.key, num_groups), int(s.avg_len), s.avg_len - int(s.avg_len), s.key not in group_of)
        for s in feature_specs
    ]
    # A fractional length's doubles must stay between the pools before
    # and after it, so each such feature starts a new run of pools drawn
    # in one integers call, bounded by each member's vocab_size.
    cuts = [f for f, (_, _, frac, _) in enumerate(terms) if f == 0 or frac > 0] + [len(terms)]
    vocab = np.array([s.vocab_size for s in feature_specs], dtype=np.int64)
    runs = [(range(a, b), vocab[a:b]) for a, b in zip(cuts, cuts[1:])]
    # Draws grow as raw bytes in session order, so no per-session array
    # outlives its session; the columns are built from them after the
    # loop.
    counts: list[int] = []
    pool_sizes: list[int] = []
    ts_buf, coin_buf, pool_buf = bytearray(), bytearray(), bytearray()
    frac_buf = {f: bytearray() for f, (_, _, frac, _) in enumerate(terms) if frac > 0}
    # Timestamps are drawn over one shared horizon so sessions overlap
    # heavily; a global sort then interleaves them.
    dist = session_cfg.samples_per_session
    horizon = max(64, int(4 * session_cfg.num_sessions * dist.mean))
    for idx in range(session_cfg.num_sessions):
        rng = _session_rng(session_cfg.seed, idx)
        count = dist.sample(rng)
        counts.append(count)
        ts_buf += rng.integers(0, horizon, count).tobytes()
        coins = rng.random(count + num_groups * (count - 1))
        coin_buf += coins.tobytes()
        changes = (coins[count:].reshape(num_groups, count - 1) < change_probs).sum(axis=1).tolist()
        changes.append(0)
        for members, highs in runs:
            sizes = []
            for f in members:
                g, base, frac, per_row = terms[f]
                rows = count if per_row else 1
                size = changes[g] + base * rows
                if frac > 0:  # the run's first member
                    draws = rng.random(rows)
                    frac_buf[f] += draws.tobytes()
                    size += np.count_nonzero(draws < frac)
                sizes.append(size)
            pool_sizes += sizes
            pool_buf += rng.integers(0, np.repeat(highs, sizes)).tobytes()
    counts = np.array(counts, dtype=np.int64)
    first = _starts(counts)  # each session's first row

    def in_session(running):
        # a running total over all rows, restarted at each session
        return running - np.repeat(running[first], counts)

    session_ids = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    rank = in_session(np.arange(session_ids.size, dtype=np.int64))
    ts = np.frombuffer(ts_buf, dtype=np.int64)
    # each session's timestamps sorted, then ties broken: strictly
    # increasing in session
    ts = ts[np.lexsort((ts, session_ids))] + rank
    del ts_buf
    order = np.lexsort((session_ids, ts))
    coins = np.frombuffer(coin_buf, dtype=np.float64)
    # A row's label double sits at its rank in the session's doubles.
    # Group g's coin for rank k >= 1 follows the session's labels and the
    # g groups' coins before it; rank 0 reads some earlier double, which
    # in_session cancels below.
    label_at = np.repeat(_starts(counts + num_groups * (counts - 1)), counts) + rank
    labels = (coins[label_at] < _LABEL_RATE).astype(np.int64)[order]
    changed = [
        coins[label_at + np.repeat(counts + g * (counts - 1) - 1, counts)] < change_probs[g, 0]
        for g in range(num_groups)
    ]
    del coins, coin_buf, label_at, rank
    session_ids, ts = session_ids[order], ts[order]
    # Each feature's pools end to end, one row per session, so that each
    # is freed once the feature's column exists.
    sizes = np.array(pool_sizes, dtype=np.int64).reshape(counts.size, len(feature_specs))
    pool = np.frombuffer(pool_buf, dtype=np.int64)
    pool_at = _starts(sizes.ravel()).reshape(sizes.shape)
    pools = [gather_windows(pool, at, n) for at, n in zip(pool_at.T, sizes.T)]
    del pool, pool_buf
    # A row's window into its session's pool of a feature: a user
    # sequence's starts at its group's changes so far (the shift-append
    # update), an item's after the session's earlier rows.
    features = {}
    for f, (key, (g, base, frac, per_row)) in enumerate(zip(keys, terms)):
        lengths = np.full(session_ids.size if per_row else counts.size, base, dtype=np.int64)
        if frac > 0:
            lengths += np.frombuffer(frac_buf.pop(f)) < frac
        if per_row:
            starts = in_session(_starts(lengths))
        else:
            lengths = np.repeat(lengths, counts)
            starts = in_session(np.cumsum(changed[g], dtype=np.int64))
        pool, pools[f] = pools[f], None
        starts += np.repeat(pool.offsets, counts)
        # Each row's values are gathered once, straight into final order.
        features[key] = gather_windows(pool.values, starts[order], lengths[order])
    return ScanBatch(
        session_ids=session_ids,
        timestamps=ts,
        labels=labels,
        features=KJT(batch_size=order.size, entries=features),
    )


def shard_logs(table: ScanBatch, num_shards: int, key: str = "session_id") -> list:
    """Route a table's rows to shards, preserving stream order within
    each shard. An empty shard is None.

    ``session_id`` keying keeps every session whole on one shard;
    ``random_hash`` routes each row independently.
    """
    num_shards = _positive_count("num_shards", num_shards)
    if key not in ("session_id", "random_hash"):
        raise ValueError(f"unknown shard key {key!r}")
    ids = table.session_ids if key == "session_id" else np.arange(len(table))
    hashed = splitmix64(ids) % np.uint64(num_shards)
    rows = [np.flatnonzero(hashed == shard) for shard in range(num_shards)]
    return [table.take_rows(idx) if idx.size else None for idx in rows]


def save_config(
    path: str | Path, session_cfg: SessionConfig, feature_specs: list[FeatureSpec]
) -> None:
    payload = {**asdict(session_cfg), "features": [asdict(s) for s in feature_specs]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_config(path: str | Path) -> tuple[SessionConfig, list[FeatureSpec]]:
    obj = _json_fields(path, SessionConfig, "features")
    specs = [FeatureSpec(**f) for f in obj.pop("features")]
    dist = SampleCountDist(**obj.pop("samples_per_session"))
    return SessionConfig(samples_per_session=dist, **obj), specs


def default_config(
    seed: int = 0, num_sessions: int = 6000
) -> tuple[SessionConfig, list[FeatureSpec]]:
    """High-duplication e-commerce-style config: geometric S=16, user
    features with d=0.85 (change_prob 0.15), two item features."""
    cfg = SessionConfig(
        num_sessions=num_sessions,
        samples_per_session=SampleCountDist(kind="geometric", mean=16.0),
        seed=seed,
    )
    user = dict(kind="user_sequence", change_prob=0.15)
    specs = [
        FeatureSpec(key="viewed_ids", avg_len=48, vocab_size=200_000, **user),
        FeatureSpec(key="liked_ids", avg_len=24, vocab_size=100_000, **user),
        FeatureSpec(key="clicked_ids", avg_len=12, vocab_size=100_000, **user),
        FeatureSpec(
            key="cart_item_ids",
            avg_len=16,
            vocab_size=50_000,
            sync_group="cart",
            **user,
        ),
        FeatureSpec(
            key="cart_seller_ids",
            avg_len=16,
            vocab_size=20_000,
            sync_group="cart",
            **user,
        ),
        FeatureSpec(key="item_id", kind="item", avg_len=1, vocab_size=200_000),
        FeatureSpec(key="item_category_ids", kind="item", avg_len=4, vocab_size=1_000),
    ]
    return cfg, specs
