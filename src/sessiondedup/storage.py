"""Columnar log file with row-group stripes and per-column compression.

Layout (all integers little-endian, see docs/file_format.md):

    header:  magic "SESSCOL1" | u32 version | u8 codec | u8 level |
             u16 reserved | u32 schema_len | schema_len bytes of utf-8
             JSON {"keys": [...], "feature_specs": [...] or null} |
             u32 CRC32 of every header byte before it
    stripe:  u32 row_count | streams in fixed order
             (session_id, timestamp, label, then per key: row lengths,
             then values), each stream u32 raw_len | u32 comp_len |
             comp bytes. A row equal to the previous row of its own
             session in the stripe is stored as length -1 and no values.
    footer:  u32 stripe count | per stripe u64 file offset + u32 rows |
             u64 footer offset | magic

Streams are varint-packed int64 before compression. Writer and reader
find a row's session predecessor from the stripe's session ids alone
(:func:`_session_order`). A decoded stripe keeps each marked feature as
its stored rows plus a row -> stored row index
(``tensors.RunJaggedTensor``). Files are write-once; any number of
readers may scan one concurrently.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .tensors import (
    KJT, JaggedTensor, RunJaggedTensor, _equal_rows, _key_names, _positive_count, concat_rows, expand_runs,
    jagged_index_select, slice_rows
)
from .varint import decode_varints, encode_varints

__all__ = [
    "StorageError",
    "ColumnarFile",
    "StripeInfo",
    "ScanBatch",
    "write_table",
    "open_table",
    "scan",
    "stream_sizes",
    "DEFAULT_STRIPE_ROWS",
]

MAGIC = b"SESSCOL1"
VERSION = 5
CODEC_ZLIB = 1
DEFAULT_STRIPE_ROWS = 4096
DEFAULT_LEVEL = 6


class StorageError(Exception):
    pass


def _count(name: str, value) -> int:
    """:func:`_positive_count`, raising its message as a StorageError."""
    try:
        return _positive_count(name, value)
    except (TypeError, ValueError) as exc:
        raise StorageError(str(exc)) from exc


@dataclass(frozen=True)
class StripeInfo:
    offset: int  # file offset of the stripe's first byte
    row_count: int
    byte_size: int  # file bytes spanned by the stripe


@dataclass(frozen=True)
class ColumnarFile:
    """Handle over a written file: header fields plus the stripe index."""

    path: Path
    level: int
    feature_keys: tuple[str, ...]
    feature_specs: tuple[dict, ...] | None  # one per key, or None if not recorded
    stripes: tuple[StripeInfo, ...]

    @property
    def row_count(self) -> int:
        return sum(s.row_count for s in self.stripes)


@dataclass(eq=False)
class ScanBatch:
    """Consecutive rows in columns, as stored: one entry per row in
    ``session_ids``, ``timestamps`` and ``labels``, and one jagged tensor
    per feature key in ``features``. A batch read from a file holds a
    feature whose stripes marked rows (a row equal to its session's
    previous row) as a ``RunJaggedTensor``; ``tensors.build_kjt`` lays
    its rows out."""

    session_ids: np.ndarray
    timestamps: np.ndarray
    labels: np.ndarray
    features: KJT
    bytes_read: int = 0  # compressed file bytes consumed for this batch

    def __post_init__(self) -> None:
        for name in ("session_ids", "timestamps", "labels"):
            shape = np.shape(getattr(self, name))
            if shape != (len(self),):
                raise ValueError(f"{name} has shape {shape}, expected ({len(self)},)")

    def __len__(self) -> int:
        return self.features.batch_size

    def slice_rows(self, start: int, stop: int) -> "ScanBatch":
        """Rows ``[start, stop)`` as views of this batch's buffers."""
        return self._select(slice(start, stop), lambda jt: slice_rows(jt, start, stop))

    def take_rows(self, indices: np.ndarray) -> "ScanBatch":
        """Rows ``indices``, in that order, gathered into new buffers."""
        return self._select(indices, lambda jt: jagged_index_select(jt, indices))

    def _select(self, rows, select) -> "ScanBatch":
        # ``rows`` picks from the plain columns, ``select`` from each feature.
        session_ids = self.session_ids[rows]
        entries = {key: select(jt) for key, jt in self.features.entries.items()}
        return ScanBatch(
            session_ids, self.timestamps[rows], self.labels[rows], KJT(session_ids.size, entries)
        )


def _join(parts: list[ScanBatch], bytes_read: int) -> ScanBatch:
    """One batch of the rows of ``parts``, in order; ``parts`` is left
    empty. A lone part (a batch inside one stripe) is returned as it is,
    as views of that stripe. A batch that spans stripes is copied column
    by column, and each feature's stripe arrays are let go as soon as its
    joined copy exists, so the stripes are not all held beside the whole
    copy."""
    if len(parts) == 1:
        part = parts.pop()
        part.bytes_read = bytes_read
        return part
    session_ids = np.concatenate([b.session_ids for b in parts])
    timestamps = np.concatenate([b.timestamps for b in parts])
    labels = np.concatenate([b.labels for b in parts])
    columns = [dict(b.features.entries) for b in parts]
    parts.clear()
    entries = {key: concat_rows([c.pop(key) for c in columns]) for key in list(columns[0])}
    features = KJT(batch_size=session_ids.size, entries=entries)
    return ScanBatch(session_ids, timestamps, labels, features, bytes_read=bytes_read)


def _pack_stream(arr: np.ndarray, level: int) -> bytes:
    raw = encode_varints(arr)
    comp = zlib.compress(raw, level)
    return struct.pack("<II", len(raw), len(comp)) + comp


def write_table(
    table: ScanBatch,
    path: str | Path,
    stripe_rows: int = DEFAULT_STRIPE_ROWS,
    clustering: str = "none",
    level: int = DEFAULT_LEVEL,
    feature_specs: Sequence[dict] | None = None,
) -> ColumnarFile:
    """Write a columnar table to a file and return its handle.

    ``by_session`` clustering stably sorts rows by (session_id,
    timestamp) first, gathering one stripe's rows at a time; ``none``
    writes each stripe as a slice of the table's rows. ``feature_specs``,
    one JSON-ready dict per key in the table's key order (a feature
    spec's ``asdict``), is recorded in the header.
    """
    stripe_rows = _count("stripe_rows", stripe_rows)
    if clustering not in ("none", "by_session"):
        raise StorageError(f"unknown clustering mode {clustering!r}")
    if not 0 <= level <= 9:
        raise StorageError(f"compression level {level} outside 0-9")
    if not table:
        raise StorageError("refusing to write an empty table")
    keys = table.features.keys
    if feature_specs is not None:
        feature_specs = tuple(dict(s) for s in feature_specs)
        spec_keys = tuple(s.get("key") for s in feature_specs)
        if spec_keys != keys:
            raise StorageError(f"feature specs for keys {list(spec_keys)}, table has {list(keys)}")
    schema = json.dumps(
        {"keys": keys, "feature_specs": feature_specs}, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    header = MAGIC + struct.pack("<IBBHI", VERSION, CODEC_ZLIB, level, 0, len(schema)) + schema
    order = None
    if clustering == "by_session":
        order = np.lexsort((table.timestamps, table.session_ids))  # stable

    path = Path(path)
    stripes: list[StripeInfo] = []
    with open(path, "wb") as out:
        out.write(header + struct.pack("<I", zlib.crc32(header)))
        for start in range(0, len(table), stripe_rows):
            stop = min(start + stripe_rows, len(table))
            offset = out.tell()
            try:
                if order is None:
                    chunk = table.slice_rows(start, stop)
                else:
                    chunk = table.take_rows(order[start:stop])
                blob = _encode_stripe(chunk, level)
            except Exception as exc:  # pragma: no cover - defensive
                raise StorageError(f"stripe {len(stripes)}: write failed: {exc}") from exc
            out.write(blob)
            stripes.append(
                StripeInfo(offset=offset, row_count=len(chunk), byte_size=len(blob))
            )
        footer_offset = out.tell()
        out.write(struct.pack("<I", len(stripes)))
        for s in stripes:
            out.write(struct.pack("<QI", s.offset, s.row_count))
        out.write(struct.pack("<Q", footer_offset))
        out.write(MAGIC)
    return ColumnarFile(
        path=path,
        level=level,
        feature_keys=keys,
        feature_specs=feature_specs,
        stripes=tuple(stripes),
    )


def _encode_stripe(chunk: ScanBatch, level: int) -> bytes:
    # Each feature's streams are packed as they are made, so only one
    # feature's copy of its stored values is held at a time.
    streams = [_pack_stream(a, level) for a in (chunk.session_ids, chunk.timestamps, chunk.labels)]
    order, first = _session_order(chunk.session_ids)
    later = ~first[1:]  # positions whose session predecessor is the position before
    rows, before = order[1:][later], order[:-1][later]
    for jt in chunk.features.entries.values():
        streams += [_pack_stream(a, level) for a in _mark_repeats(expand_runs(jt), rows, before)]
    return struct.pack("<I", len(chunk)) + b"".join(streams)


def _session_order(session_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stripe's rows in stable session order, and whether each position
    of that order starts a session. A row's session predecessor is the
    row one position before it, unless it starts its session. One map
    per stripe, which every feature shares."""
    order = np.argsort(session_ids, kind="stable")
    ids = session_ids[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    return order, first


def _mark_repeats(jt: JaggedTensor, rows: np.ndarray, before: np.ndarray) -> list[np.ndarray]:
    """One feature's lengths and values streams for a stripe, where
    ``before[k]`` is the session predecessor of row ``rows[k]`` (every
    row that has one). A row equal to its session predecessor, empty or
    not, is stored as length -1 and no values."""
    lens, values = jt.row_lengths(), jt.values
    repeat = rows[_equal_rows(jt, rows, before)]
    if not repeat.size:
        return [lens, values]
    marks = lens.copy()
    marks[repeat] = -1
    return [marks, values[np.repeat(marks >= 0, lens)]]


def open_table(path: str | Path) -> ColumnarFile:
    path = Path(path)
    try:
        return _open_table(path)
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"{path}: corrupt header or footer: {exc}") from exc


def _open_table(path: Path) -> ColumnarFile:
    size = path.stat().st_size
    if size < 16 + len(MAGIC) * 2:
        raise StorageError(f"{path}: too small to be a columnar file")
    with open(path, "rb") as f:
        if f.read(8) != MAGIC:
            raise StorageError(f"{path}: bad magic")
        fixed = f.read(12)
        version, codec, level, reserved, schema_len = struct.unpack("<IBBHI", fixed)
        if version != VERSION:
            raise StorageError(f"{path}: unsupported version {version}")
        if codec != CODEC_ZLIB:
            raise StorageError(f"{path}: unknown codec tag {codec}")
        if level > 9:
            raise StorageError(f"{path}: compression level {level} outside 0-9")
        if reserved:
            raise StorageError(f"{path}: reserved header field is {reserved}, not 0")
        if schema_len > size:
            raise StorageError(f"{path}: schema length {schema_len} exceeds the file")
        schema = f.read(schema_len)
        (crc,) = struct.unpack("<I", f.read(4))
        if crc != zlib.crc32(MAGIC + fixed + schema):
            raise StorageError(f"{path}: header checksum mismatch")
        keys, specs = _parse_schema(path, schema)
        header_end = f.tell()
        f.seek(size - 16)
        footer_offset, trailer = struct.unpack("<Q8s", f.read(16))
        if trailer != MAGIC:
            raise StorageError(f"{path}: bad trailer magic")
        if not header_end <= footer_offset <= size - 20:
            raise StorageError(f"{path}: footer offset {footer_offset} outside the file")
        f.seek(footer_offset)
        (n_stripes,) = struct.unpack("<I", f.read(4))
        if 4 + 12 * n_stripes != size - 16 - footer_offset:
            raise StorageError(f"{path}: footer size does not match {n_stripes} stripes")
        stripes = []
        prev_end = header_end - 1
        for i in range(n_stripes):
            offset, rows = struct.unpack("<QI", f.read(12))
            if not prev_end < offset < footer_offset:
                raise StorageError(f"{path}: stripe {i} offset not increasing")
            prev_end = offset
            stripes.append((offset, rows))
    infos = []
    for i, (offset, rows) in enumerate(stripes):
        end = stripes[i + 1][0] if i + 1 < len(stripes) else footer_offset
        infos.append(StripeInfo(offset=offset, row_count=rows, byte_size=end - offset))
    return ColumnarFile(
        path=path,
        level=level,
        feature_keys=keys,
        feature_specs=specs,
        stripes=tuple(infos),
    )


def _parse_schema(path: Path, schema: bytes):
    """The (keys, feature specs) of a schema block whose checksum held."""
    obj = json.loads(schema.decode("utf-8"))
    try:
        keys, specs = obj["keys"], obj["feature_specs"]
        named = keys if specs is None else [s["key"] for s in specs]
    except (KeyError, TypeError) as exc:
        raise StorageError(f"{path}: schema block lacks keys or feature specs: {exc!r}") from exc
    try:
        keys = _key_names("schema keys", keys)
    except (TypeError, ValueError) as exc:
        raise StorageError(f"{path}: {exc}") from exc
    if list(keys) != named:
        raise StorageError(f"{path}: schema feature specs name keys {named!r}, not its keys {list(keys)}")
    return keys, None if specs is None else tuple(specs)


def _stream_frame(buf: memoryview, pos: int, where: str) -> tuple[int, int, int]:
    """The declared (raw_len, comp_len) of the stream at ``pos`` and the
    end of its body, which must lie inside the stripe. Errors start with
    ``where``, which names the stripe and, for a feature's stream, the
    feature."""
    if pos + 8 > len(buf):
        raise StorageError(f"{where}: truncated stream header")
    raw_len, comp_len = struct.unpack_from("<II", buf, pos)
    end = pos + 8 + comp_len
    if end > len(buf):
        raise StorageError(f"{where}: truncated stream body")
    return raw_len, comp_len, end


def _check_stripe_end(buf: memoryview, pos: int, ordinal: int) -> None:
    if pos != len(buf):
        raise StorageError(f"stripe {ordinal}: {len(buf) - pos} bytes past the last stream")


def _read_stream(buf: memoryview, pos: int, where: str, count: int):
    """Inflate and decode the stream at ``pos``, which holds ``count``
    varints. Each varint takes 1-10 bytes, so a ``raw_len`` outside
    ``[count, 10 * count]`` is rejected before inflating, and inflation
    stops one byte past ``raw_len``: a small body can never inflate to
    more than it declares."""
    raw_len, _, end = _stream_frame(buf, pos, where)
    if not count <= raw_len <= 10 * count:
        raise StorageError(f"{where}: stream length {raw_len} cannot hold {count} varints")
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(buf[pos + 8 : end], raw_len + 1)
    except zlib.error as exc:
        raise StorageError(f"{where}: corrupt stream: {exc}") from exc
    if len(raw) != raw_len or not inflate.eof:
        raise StorageError(f"{where}: stream does not inflate to its {raw_len} bytes")
    try:
        arr = decode_varints(raw, count)
    except ValueError as exc:
        raise StorageError(f"{where}: corrupt varints: {exc}") from exc
    return arr, end


def _resolve_marks(lengths: np.ndarray, order: np.ndarray, first: np.ndarray, where: str) -> np.ndarray:
    """Each row's stored row ordinal, for a lengths stream that holds
    marks, where ``order, first`` is :func:`_session_order` of the
    stripe. Stored rows are numbered in row order; a -1 row takes the
    number of its session's last stored row before it, found by one
    running maximum along the session order."""
    low = np.flatnonzero(lengths < -1)
    if low.size:
        raise StorageError(f"{where}: negative row length {lengths[low[0]]} at row {low[0]}")
    stored = lengths[order] >= 0
    orphans = order[first & ~stored]
    if orphans.size:
        raise StorageError(
            f"{where}: negative row length -1 at row {orphans.min()}, which has no earlier row of its session"
        )
    number = np.cumsum(lengths >= 0) - 1
    last = np.maximum.accumulate(np.where(stored, np.arange(order.size), 0))
    head_index = np.empty_like(number)
    head_index[order] = number[order[last]]
    return head_index


def read_stripe(file: ColumnarFile, ordinal: int) -> ScanBatch:
    if not 0 <= ordinal < len(file.stripes):
        raise StorageError(f"stripe {ordinal} out of range")
    info = file.stripes[ordinal]
    with open(file.path, "rb") as f:
        f.seek(info.offset)
        blob = f.read(info.byte_size)
    if len(blob) != info.byte_size:
        raise StorageError(f"stripe {ordinal}: short read")
    buf = memoryview(blob)
    if len(buf) < 4:
        raise StorageError(f"stripe {ordinal}: truncated header")
    (rows,) = struct.unpack_from("<I", buf, 0)
    if rows != info.row_count:
        raise StorageError(
            f"stripe {ordinal}: row count {rows} != index {info.row_count}"
        )
    if rows == 0:
        raise StorageError(f"stripe {ordinal}: no rows")
    pos, where = 4, f"stripe {ordinal}"
    sids, pos = _read_stream(buf, pos, where, rows)
    ts, pos = _read_stream(buf, pos, where, rows)
    labels, pos = _read_stream(buf, pos, where, rows)
    entries, sessions = {}, None
    for key in file.feature_keys:
        where = f"stripe {ordinal}: feature {key!r}"
        lengths, pos = _read_stream(buf, pos, where, rows)
        marked = bool(lengths.min() < 0)
        if marked:
            if sessions is None:
                sessions = _session_order(sids)
            head_index = _resolve_marks(lengths, *sessions, where)
        heads = lengths[lengths >= 0] if marked else lengths
        total = int(heads.sum())
        if total < 0:
            raise StorageError(f"{where}: row lengths sum past 2^63")
        values, pos = _read_stream(buf, pos, where, total)
        try:
            jt = JaggedTensor.from_lengths(values, heads)
        except ValueError as exc:
            raise StorageError(f"{where}: {exc}") from exc
        entries[key] = RunJaggedTensor(jt, head_index) if marked else jt
    _check_stripe_end(buf, pos, ordinal)
    features = KJT(batch_size=rows, entries=entries)
    return ScanBatch(sids, ts, labels, features, bytes_read=info.byte_size)


def scan(file: ColumnarFile, batch_size: int) -> Iterator[ScanBatch]:
    """Yield columnar batches of ``batch_size`` rows in file order.

    The final batch may be short. ``bytes_read`` charges each stripe's
    compressed size to the batch that forced its decode.
    """
    batch_size = _count("batch_size", batch_size)
    parts: list[ScanBatch] = []  # rows read, not yet yielded
    held = pending_bytes = 0
    for ordinal, info in enumerate(file.stripes):
        stripe = read_stripe(file, ordinal)
        pending_bytes += info.byte_size
        start = 0
        while held + len(stripe) - start >= batch_size:
            stop = start + batch_size - held
            parts.append(stripe.slice_rows(start, stop))
            yield _join(parts, pending_bytes)
            held, pending_bytes, start = 0, 0, stop
        if start < len(stripe):
            parts.append(stripe.slice_rows(start, len(stripe)))
            held += len(stripe) - start
    if parts:
        yield _join(parts, pending_bytes)


def stream_sizes(file: ColumnarFile) -> tuple[int, int]:
    """Total (raw, compressed) stream bytes across all stripes.

    Nothing is decompressed: ``raw_len`` is summed as each stream header
    declares it. The framing is checked as :func:`read_stripe` checks it:
    every stream body lies inside its stripe, and the last one ends
    exactly at the stripe's end.
    """
    raw_total = 0
    comp_total = 0
    n_streams = 3 + 2 * len(file.feature_keys)
    with open(file.path, "rb") as f:
        for ordinal, info in enumerate(file.stripes):
            f.seek(info.offset)
            buf = memoryview(f.read(info.byte_size))
            pos = 4
            for _ in range(n_streams):
                raw_len, comp_len, pos = _stream_frame(buf, pos, f"stripe {ordinal}")
                raw_total += raw_len
                comp_total += comp_len
            _check_stripe_end(buf, pos, ordinal)
    return raw_total, comp_total
