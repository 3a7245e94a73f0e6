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
many other sessions exist.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .storage import ScanBatch
from .tensors import KJT, _positive_count, _starts, gather_windows, splitmix64

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
        if not 0 < self.avg_len < math.inf:
            raise ValueError(f"avg_len must be finite and > 0, got {self.avg_len}")
        if self.kind == "user_sequence" and self.avg_len < 1:
            raise ValueError("user_sequence features need avg_len >= 1")
        _positive_count("vocab_size", self.vocab_size)
        if not 0.0 <= self.change_prob <= 1.0:
            raise ValueError("change_prob must be in [0, 1]")
        if self.sync_group == "":
            raise ValueError(f"feature {self.key!r}: sync_group must be a name or null, not empty")

    @property
    def unchanged_prob(self) -> float:
        return 1.0 - self.change_prob


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
            if not all(0 < w < math.inf for w in self.histogram.values()):
                raise ValueError("histogram weights must be finite and > 0")
            mean = sum(k * w for k, w in self.histogram.items()) / sum(
                self.histogram.values()
            )
            if self.mean is not None and not math.isclose(self.mean, mean, rel_tol=1e-9):
                raise ValueError(
                    f"empirical mean {self.mean} differs from its histogram's mean {mean}"
                )
            object.__setattr__(self, "mean", mean)
        else:
            if self.histogram is not None:
                raise ValueError(f"{self.kind} distribution takes no histogram")
            if self.mean is None:
                object.__setattr__(self, "mean", 1.0)
            if not 1 <= self.mean < math.inf:
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
        _positive_count("num_sessions", self.num_sessions)


def _draw_lengths(avg_len: float, count: int, rng: np.random.Generator) -> np.ndarray:
    # floor(l) plus a Bernoulli on the fraction keeps the mean exact.
    base = int(avg_len)
    frac = avg_len - base
    lengths = np.full(count, base, dtype=np.int64)
    if frac > 0:
        lengths += rng.random(count) < frac
    return lengths


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
    columnar table in (timestamp, session_id) order."""
    keys = [s.key for s in feature_specs]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate feature keys")
    groups = sync_groups(feature_specs)
    group_of = {s.key: i for i, (_, members) in enumerate(groups) for s in members}
    # Columns grow as raw int64 bytes, so no per-session array outlives
    # its session; per key: "pool" holds every session's ID pool end to
    # end, "start" and "length" each row's window into it.
    columns = {name: bytearray() for name in ("session_id", "timestamp", "label")}
    for key in keys:
        columns.update({(key, name): bytearray() for name in ("pool", "start", "length")})
    # Timestamps are drawn over one shared horizon so sessions overlap
    # heavily; a global sort then interleaves them.
    mean_s = session_cfg.samples_per_session.mean
    horizon = max(64, int(4 * session_cfg.num_sessions * mean_s))
    for idx in range(session_cfg.num_sessions):
        rng = _session_rng(session_cfg.seed, idx)
        count = session_cfg.samples_per_session.sample(rng)
        ts = np.sort(rng.integers(0, horizon, count))
        ts += np.arange(count)  # break ties: strictly increasing in session
        columns["session_id"] += np.full(count, idx, dtype=np.int64).tobytes()
        columns["timestamp"] += ts.tobytes()
        columns["label"] += (rng.random(count) < _LABEL_RATE).astype(np.int64).tobytes()
        # One mutation coin sequence per sync group, so a group's members
        # change on the same impressions. Shift-append update: impression
        # i reads a window of the feature's pool that starts at the
        # group's number of changes so far.
        group_starts = []
        for _, members in groups:
            starts = np.zeros(count, dtype=np.int64)
            np.cumsum(rng.random(count - 1) < members[0].change_prob, out=starts[1:])
            group_starts.append(starts)
        for s in feature_specs:
            if s.key in group_of:
                starts = group_starts[group_of[s.key]]
                lengths = np.full(count, _draw_lengths(s.avg_len, 1, rng)[0], dtype=np.int64)
            else:
                lengths = _draw_lengths(s.avg_len, count, rng)
                starts = _starts(lengths)
            pool = rng.integers(0, s.vocab_size, int(starts[-1] + lengths[-1]), dtype=np.int64)
            base = len(columns[s.key, "pool"]) // 8
            columns[s.key, "pool"] += pool.tobytes()
            columns[s.key, "start"] += (starts + base).tobytes()
            columns[s.key, "length"] += lengths.tobytes()

    def column(name):
        return np.frombuffer(columns.pop(name), dtype=np.int64)

    session_ids = column("session_id")
    ts = column("timestamp")
    order = np.lexsort((session_ids, ts))
    # Each row's values are gathered once, straight into final order.
    features = {
        key: gather_windows(
            column((key, "pool")), column((key, "start"))[order], column((key, "length"))[order]
        )
        for key in keys
    }
    return ScanBatch(
        session_ids=session_ids[order],
        timestamps=ts[order],
        labels=column("label")[order],
        features=KJT(batch_size=order.size, entries=features),
    )


def shard_logs(table: ScanBatch, num_shards: int, key: str = "session_id") -> list:
    """Route a table's rows to shards, preserving stream order within
    each shard. An empty shard is None.

    ``session_id`` keying keeps every session whole on one shard;
    ``random_hash`` routes each row independently.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
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
    obj = json.loads(Path(path).read_text())
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
