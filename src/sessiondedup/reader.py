"""Reader pipeline in four stages: fill raw rows, convert them to tensors,
process transforms, emit: price the tensors as the bytes a trainer is
sent, without building them. ``read_batches`` runs the stages and is
their only clock: it times each stage call and stores the four times on
the batch as one ``StageTimings``.

``read_batches`` runs one batch ahead of its consumer, on one worker
thread per open iterator: while the consumer works on batch i, the worker
prepares batch i+1, so at most one extra batch is held. The heavy stage
work (inflate, varint decode, the sorts and gathers of ``build_ikjt``)
runs in C with the GIL released, so the two overlap. The stage times are
taken on the worker and overlap the consumer's work: their sum is the
reader's work per batch, not the time the consumer waited for it.

A dataloader spec names the feature keys, the dedup groups (each group
becomes one IKJT whose features share an inverse_lookup slice), the
transforms to apply, and the batch size. Features outside every group
stay plain jagged tensors.

Transforms are restricted to pure element-wise ID maps. That restriction
is what makes running them on deduplicated values sound: a row-dependent
transform would need the expanded batch and is rejected by construction
here (there is simply no such transform kind).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .storage import ColumnarFile, ScanBatch, scan
from .tensors import (
    IKJT,
    JaggedTensor,
    _json_fields,
    _key_names,
    _positive_count,
    build_ikjt,
    build_kjt,
    payload_bytes,
    splitmix64,
)

__all__ = [
    "Transform",
    "DataloaderSpec",
    "StageTimings",
    "ReaderBatch",
    "fill",
    "convert",
    "process",
    "emit",
    "read_batches",
    "apply_transform",
    "load_dataloader_spec",
    "save_dataloader_spec",
]


@dataclass(frozen=True)
class Transform:
    """Element-wise ID map applied to one feature's values slice."""

    op: str  # "identity" | "mod_hash" | "clamp"
    key: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.op not in ("identity", "mod_hash", "clamp"):
            raise ValueError(f"unknown transform op {self.op!r}")
        if self.op == "identity":
            if self.param is not None:
                raise ValueError(f"identity takes no param, got {self.param!r}")
        elif self.param is None:
            raise ValueError(f"{self.op} needs a positive param")
        else:
            object.__setattr__(self, "param", _positive_count("param", self.param))


def apply_transform(values: np.ndarray, t: Transform) -> np.ndarray:
    if t.op == "identity":
        return values
    if t.op == "mod_hash":
        return (splitmix64(values) % np.uint64(t.param)).astype(np.int64)
    return np.clip(values, 0, t.param)


@dataclass(frozen=True)
class DataloaderSpec:
    keys: tuple[str, ...]
    dedup_sparse_features: tuple[tuple[str, ...], ...]
    transforms: tuple[Transform, ...] = ()
    batch_size: int = 4096

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", _key_names("keys", self.keys))
        groups = self.dedup_sparse_features
        if not isinstance(groups, (list, tuple)):
            raise TypeError(f"dedup_sparse_features must be a list of groups, got {groups!r}")
        groups = tuple(_key_names("dedup_sparse_features group", g) for g in groups)
        object.__setattr__(self, "dedup_sparse_features", groups)
        object.__setattr__(self, "transforms", tuple(self.transforms))
        object.__setattr__(self, "batch_size", _positive_count("batch_size", self.batch_size))
        if not all(groups):
            raise ValueError("empty dedup group")
        for key in _key_names("dedup_sparse_features", [key for group in groups for key in group]):
            if key not in self.keys:
                raise ValueError(f"grouped feature {key!r} not in keys")
        for t in self.transforms:
            if t.key not in self.keys:
                raise ValueError(f"transform targets unknown key {t.key!r}")

    @property
    def plain_keys(self) -> tuple[str, ...]:
        grouped = {k for g in self.dedup_sparse_features for k in g}
        return tuple(k for k in self.keys if k not in grouped)

    def without_dedup(self) -> "DataloaderSpec":
        """The baseline spec: same keys and transforms, no dedup groups."""
        return replace(self, dedup_sparse_features=())


@dataclass(frozen=True)
class StageTimings:
    fill_s: float = 0.0
    convert_s: float = 0.0
    process_s: float = 0.0
    emit_s: float = 0.0

    @property
    def total_s(self) -> float:
        return sum(astuple(self))


@dataclass
class ReaderBatch:
    """One batch as the trainer takes it: its size is the label count, and
    every plain tensor and IKJT has one row per label. ``bytes_in`` is
    the stored bytes read for its rows, ``bytes_out`` the wire size that
    ``emit`` prices its tensors at."""

    kjts: dict[str, JaggedTensor]
    ikjts: list[IKJT]
    labels: np.ndarray
    stage_timings: StageTimings = field(default_factory=StageTimings)
    bytes_in: int = 0
    bytes_out: int = 0

    def __post_init__(self) -> None:
        n = self.batch_size
        if n < 1:
            raise ValueError("a reader batch needs at least one row")
        rows = [(f"feature {key!r}", jt.row_count) for key, jt in self.kjts.items()]
        rows += [(f"group {list(ik.group_keys)}", ik.batch_size) for ik in self.ikjts]
        for what, count in rows:
            if count != n:
                raise ValueError(f"{what} has {count} rows, but the batch has {n} labels")

    @property
    def batch_size(self) -> int:
        return int(self.labels.size)


def fill(stream: Iterator[ScanBatch]) -> ScanBatch | None:
    """Pull the next raw row batch; None signals an exhausted stream."""
    return next(stream, None)


def convert(rows: ScanBatch, spec: DataloaderSpec) -> ReaderBatch:
    """Turn a raw batch into tensors: one IKJT per dedup group, one plain
    jagged tensor per remaining key."""
    ikjts = [build_ikjt(rows, group) for group in spec.dedup_sparse_features]
    kjts = build_kjt(rows, spec.plain_keys).entries
    return ReaderBatch(kjts=kjts, ikjts=ikjts, labels=rows.labels, bytes_in=rows.bytes_read)


def process(batch: ReaderBatch, transforms) -> ReaderBatch:
    """Apply element-wise transforms; IKJT features are transformed on
    their deduplicated values only and stay IKJTs. The input batch is
    left as it was."""
    by_key: dict[str, list[Transform]] = {}
    known = {*batch.kjts, *(key for ikjt in batch.ikjts for key in ikjt.group_keys)}
    for t in transforms:
        if t.key not in known:
            raise ValueError(f"transform targets missing key {t.key!r}")
        by_key.setdefault(t.key, []).append(t)

    def run(key: str, jt: JaggedTensor) -> JaggedTensor:
        values = jt.values
        for t in by_key.get(key, ()):
            values = apply_transform(values, t)
        if values is jt.values:
            return jt
        return JaggedTensor(values=values, offsets=jt.offsets)

    kjts = {key: run(key, jt) for key, jt in batch.kjts.items()}
    # A group no transform targets keeps its IKJT object: rebuilding it
    # would only re-run the constructor's checks.
    ikjts = [
        ikjt
        if by_key.keys().isdisjoint(ikjt.group_keys)
        else IKJT(
            batch_size=ikjt.batch_size,
            group_keys=ikjt.group_keys,
            inverse_lookup=ikjt.inverse_lookup,
            per_feature={k: run(k, jt) for k, jt in ikjt.per_feature.items()},
        )
        for ikjt in batch.ikjts
    ]
    return replace(batch, kjts=kjts, ikjts=ikjts)


def emit(batch: ReaderBatch) -> int:
    """Price a processed batch as the bytes a trainer is sent, in the
    tensor layout of ``docs/file_format.md``: the IKJT count, one payload
    per IKJT, the plain flag and the plain KJT's payload, then the
    count-prefixed labels. Records the sum as bytes_out and returns it;
    no payload is built."""
    n = batch.batch_size
    size = 4 + sum(payload_bytes(ikjt.per_feature, n) for ikjt in batch.ikjts)
    size += 1 + (payload_bytes(batch.kjts, 0) if batch.kjts else 0)
    batch.bytes_out = size + 8 + 8 * n
    return batch.bytes_out


def _run_stages(file: ColumnarFile, spec: DataloaderSpec) -> Iterator[ReaderBatch]:
    stream = scan(file, spec.batch_size)
    clock = time.perf_counter
    while True:
        t0 = clock()
        rows = fill(stream)
        t1 = clock()
        if rows is None:
            return
        batch = convert(rows, spec)
        t2 = clock()
        batch = process(batch, spec.transforms)
        t3 = clock()
        emit(batch)
        batch.stage_timings = StageTimings(t1 - t0, t2 - t1, t3 - t2, clock() - t3)
        yield batch


def read_batches(file: ColumnarFile, spec: DataloaderSpec) -> Iterator[ReaderBatch]:
    """Full fill -> convert -> process -> emit pipeline over a columnar
    file. Each batch carries the wall time of its four stage calls and
    its bytes_in and bytes_out.

    One worker thread runs the stages one batch ahead: batch i+1 is
    prepared while the consumer holds batch i, so at most one extra batch
    is held. The stage times are measured on the worker and overlap the
    consumer's work. A stage error is raised at the batch it belongs to,
    and only if that batch is asked for. Closing the iterator, or
    dropping it, waits for the batch in flight and stops the worker."""
    stages = _run_stages(file, spec)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="read_batches") as worker:
        ahead = worker.submit(next, stages, None)
        try:
            while (batch := ahead.result()) is not None:
                ahead = worker.submit(next, stages, None)
                yield batch
        finally:
            # A stage's error holds this frame in its traceback and the
            # future holds the error: drop the future to break the cycle,
            # which would keep the caller's frames and iterators alive.
            del ahead


def save_dataloader_spec(path: str | Path, spec: DataloaderSpec) -> None:
    Path(path).write_text(json.dumps(asdict(spec), indent=2) + "\n")


def load_dataloader_spec(path: str | Path) -> DataloaderSpec:
    obj = _json_fields(path, DataloaderSpec)
    transforms = [Transform(**t) for t in obj.pop("transforms", ())]
    return DataloaderSpec(transforms=transforms, **obj)
