"""Per-row records for tests: the one adapter between rows written out
by hand (or iterated by brute-force oracles) and the columnar tables the
library generates, writes, reads and converts."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from sessiondedup import storage
from sessiondedup.datagen import _LABEL_RATE, sync_groups
from sessiondedup.storage import ScanBatch
from sessiondedup.tensors import (
    IKJT,
    KJT,
    JaggedTensor,
    _key_names,
    _starts,
    expand_runs,
    gather_windows,
    jagged_index_select,
)
from sessiondedup.varint import encode_varints


@dataclass
class ImpressionRecord:
    session_id: int
    timestamp: int
    features: dict[str, np.ndarray]
    label: int


def _features(row) -> dict:
    return getattr(row, "features", row)


def from_rows(rows) -> JaggedTensor:
    """A jagged tensor of the given ID lists, in order."""
    arrs = [np.asarray(r, dtype=np.int64) for r in rows]
    for arr in arrs:
        if arr.ndim != 1:
            raise ValueError(f"ID list must be one-dimensional, got shape {arr.shape}")
    values = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.int64)
    return JaggedTensor.from_lengths(values, [a.size for a in arrs])


def to_pylists(jt: JaggedTensor) -> list[list[int]]:
    """The rows of a jagged tensor as lists of ints."""
    return [jt.row(i).tolist() for i in range(jt.row_count)]


def jt_equal(a: JaggedTensor, b: JaggedTensor) -> bool:
    return np.array_equal(a.values, b.values) and np.array_equal(a.offsets, b.offsets)


def kjt_equal(a: KJT, b: KJT) -> bool:
    if a.batch_size != b.batch_size or a.keys != b.keys:
        return False
    return all(jt_equal(a.entries[k], b.entries[k]) for k in a.entries)


def ikjt_to_kjt(ikjt: IKJT) -> KJT:
    """Expand an IKJT back to the logically equal KJT."""
    entries = {
        key: jagged_index_select(jt, ikjt.inverse_lookup)
        for key, jt in ikjt.per_feature.items()
    }
    return KJT(batch_size=ikjt.batch_size, entries=entries)


def as_batch(rows, keys=None) -> ScanBatch:
    """Records or feature dicts as one columnar table, in order.

    ``keys`` defaults to every key in the rows, in order of first
    appearance; a row without a key holds an empty list there. Feature
    dicts carry no session id, timestamp or label: those columns are 0.
    """
    rows = list(rows)
    if keys is None:
        keys = list(dict.fromkeys(key for row in rows for key in _features(row)))
    entries = {
        key: from_rows([_features(row).get(key, ()) for row in rows])
        for key in keys
    }

    def column(attr):
        return np.array([getattr(row, attr, 0) for row in rows], dtype=np.int64)

    return ScanBatch(
        column("session_id"), column("timestamp"), column("label"), KJT(len(rows), entries)
    )


def as_records(batch: ScanBatch) -> list[ImpressionRecord]:
    """The rows of a table as records, whose feature lists are read-only
    views of the table's value buffers."""
    cols = [
        (key, jt.values, np.append(jt.offsets, jt.values.size).tolist())
        for key, jt in ((key, expand_runs(jt)) for key, jt in batch.features.entries.items())
    ]
    rows = zip(batch.session_ids.tolist(), batch.timestamps.tolist(), batch.labels.tolist())
    return [
        ImpressionRecord(sid, ts, {k: v[b[i] : b[i + 1]] for k, v, b in cols}, label)
        for i, (sid, ts, label) in enumerate(rows)
    ]


def _draw_lengths(avg_len: float, count: int, rng: np.random.Generator) -> np.ndarray:
    # floor(l) plus a Bernoulli on the fraction keeps the mean exact.
    base = int(avg_len)
    frac = avg_len - base
    lengths = np.full(count, base, dtype=np.int64)
    if frac > 0:
        lengths += rng.random(count) < frac
    return lengths


def reference_generate_dataset(session_cfg, feature_specs) -> ScanBatch:
    """``datagen.generate_dataset`` one session at a time: each session's
    draws made and laid out before the next session's Generator exists.
    The library's generator must equal it bit for bit."""
    keys = _key_names("feature_specs", [s.key for s in feature_specs])
    groups = sync_groups(feature_specs)
    group_of = {s.key: i for i, (_, members) in enumerate(groups) for s in members}
    columns = {name: bytearray() for name in ("session_id", "timestamp", "label")}
    for key in keys:
        columns.update({(key, name): bytearray() for name in ("pool", "start", "length")})
    mean_s = session_cfg.samples_per_session.mean
    horizon = max(64, int(4 * session_cfg.num_sessions * mean_s))
    for idx in range(session_cfg.num_sessions):
        rng = np.random.default_rng(np.random.SeedSequence((session_cfg.seed, idx)))
        count = session_cfg.samples_per_session.sample(rng)
        ts = np.sort(rng.integers(0, horizon, count))
        ts += np.arange(count)
        columns["session_id"] += np.full(count, idx, dtype=np.int64).tobytes()
        columns["timestamp"] += ts.tobytes()
        columns["label"] += (rng.random(count) < _LABEL_RATE).astype(np.int64).tobytes()
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


def serialize_log_records(records) -> bytes:
    """Row-major varint serialization of records: equal bytes mean equal
    rows in equal order."""
    if not records:
        return b""
    pieces: list[np.ndarray] = []
    for rec in records:
        head = [rec.session_id, rec.timestamp, rec.label, len(rec.features)]
        head.extend(len(arr) for arr in rec.features.values())
        pieces.append(np.array(head, dtype=np.int64))
        pieces.extend(rec.features.values())
    return encode_varints(np.concatenate(pieces))


def _serialize(
    keys: Sequence[str], batch_size: int, inverse: np.ndarray | None, tensors: Mapping[str, JaggedTensor]
) -> bytes:
    """One tensor payload, byte for byte, in the layout of
    docs/file_format.md: the reference that ``tensors.payload_bytes``
    prices without building it."""
    parts = [struct.pack("<I", len(keys))]
    for key in keys:
        kb = key.encode("utf-8")
        parts.append(struct.pack("<I", len(kb)))
        parts.append(kb)
    parts.append(struct.pack("<Q", batch_size))
    if inverse is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(inverse.astype("<i8", copy=False).tobytes())
    for key in keys:
        off = tensors[key].offsets
        parts.append(struct.pack("<Q", off.size))
        parts.append(off.astype("<i8", copy=False).tobytes())
    for key in keys:
        val = tensors[key].values
        parts.append(struct.pack("<Q", val.size))
        parts.append(val.astype("<i8", copy=False).tobytes())
    return b"".join(parts)


def serialize_kjt(kjt: KJT) -> bytes:
    return _serialize(kjt.keys, kjt.batch_size, None, kjt.entries)


def serialize_ikjt(ikjt: IKJT) -> bytes:
    return _serialize(ikjt.group_keys, ikjt.batch_size, ikjt.inverse_lookup, ikjt.per_feature)


def serialize_batch(batch) -> bytes:
    """A reader batch's tensors byte for byte in the envelope of
    docs/file_format.md, whose length ``reader.emit`` prices: equal bytes
    mean equal tensors and labels."""
    parts = [struct.pack("<I", len(batch.ikjts))]
    parts += [serialize_ikjt(ikjt) for ikjt in batch.ikjts]
    parts.append(struct.pack("<B", 1 if batch.kjts else 0))
    if batch.kjts:
        parts.append(serialize_kjt(KJT(batch_size=batch.batch_size, entries=batch.kjts)))
    parts.append(struct.pack("<Q", batch.labels.size))
    parts.append(batch.labels.astype("<i8", copy=False).tobytes())
    return b"".join(parts)


def column_digest(table):
    """sha256 of session ids, timestamps, labels and each key's row
    lengths and values, as little-endian int64."""
    h = hashlib.sha256()
    for column in (table.session_ids, table.timestamps, table.labels):
        h.update(column.astype("<i8").tobytes())
    for key, jt in table.features.entries.items():
        jt = expand_runs(jt)
        h.update(key.encode())
        h.update(np.diff(jt.offsets, append=jt.values.size).astype("<i8").tobytes())
        h.update(jt.values.astype("<i8").tobytes())
    return h.hexdigest()


# Row lengths that wrap in int64 to the 5 values stored after them, so
# every count check passes and only the offsets check can catch them.
WRAPPED_LENGTHS = [2**62, 2**62, 2**62, 2**62 + 5]


def write_raw_stripe(path, lengths, values, sessions=None) -> None:
    """Write a one-stripe file of feature ``f`` whose row lengths and
    values streams hold ``lengths`` and ``values`` as given, whether or
    not they agree. The rows' session ids are ``sessions`` (all 0 if
    None); timestamps and labels are 0."""
    rows = len(lengths)
    written = storage.write_table(as_batch([{"f": [0]}]), path)
    start, level = written.stripes[0].offset, written.level
    sessions = [0] * rows if sessions is None else sessions
    streams = (sessions, [0] * rows, [0] * rows, lengths, values)
    blob = struct.pack("<I", rows) + b"".join(
        storage._pack_stream(np.array(a, dtype=np.int64), level) for a in streams
    )
    footer = struct.pack("<IQIQ", 1, start, rows, start + len(blob)) + storage.MAGIC
    path.write_bytes(path.read_bytes()[:start] + blob + footer)


def break_values_stream(path, ordinal, key) -> None:
    """Overwrite the zlib header of feature ``key``'s values stream in
    stripe ``ordinal`` of the file at ``path``: reading that stripe fails
    on that feature, and every other stripe reads as before."""
    f = storage.open_table(path)
    data = bytearray(path.read_bytes())
    pos = f.stripes[ordinal].offset + 4  # past the row count
    # session ids, timestamps, labels, then a lengths and a values
    # stream per feature, each framed as (raw_len, comp_len, body)
    for _ in range(3 + 2 * f.feature_keys.index(key) + 1):
        pos += 8 + struct.unpack_from("<I", data, pos + 4)[0]
    data[pos + 8 : pos + 10] = b"\xff\xff"
    path.write_bytes(bytes(data))
