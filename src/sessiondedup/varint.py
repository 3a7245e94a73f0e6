"""Vectorized LEB128 varint codec for int64 streams.

Signed values are zigzag-mapped to unsigned first, then packed as
little-endian base-128 with the high bit as a continuation flag.

Both directions work on a 4-byte window per value, which holds any
varint of up to four bytes (a zigzag value below 2^28).

- Decoding finds each varint's start and length from its terminator
  byte (high bit clear) and checks the lengths. It gathers one
  little-endian u32 window at each start, from a copy of the stream
  padded by 3 bytes so that no read passes its end. It compacts the
  four 7-bit groups and masks the result to ``7 * length`` bits. A
  stream whose longest varint is 5-10 bytes then adds one pass per
  further byte position, run only over the values that long.
- Encoding spreads each value's 7-bit groups into a u32, ORs in the
  continuation bits for its length and keeps the window's first
  ``length`` bytes. A stream holding a zigzag value of 2^28 or more
  is packed by one masked pass per byte position instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["encode_varints", "decode_varints"]

_U64 = np.uint64
_U32 = np.uint32
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)
_WINDOW = 4
# Indexed by varint length: the window bits that length decodes (a longer
# varint keeps all 28), the continuation flags it sets, and the window
# bytes it keeps (one 0/1 byte each, read as bools).
_LENGTH_MASKS = np.array([0, 0x7F, 0x3FFF, 0x1FFFFF] + [0xFFFFFFF] * 7, dtype=_U32)
_CONTINUATIONS = np.array([0, 0, 0x80, 0x8080, 0x808080], dtype=_U32)
_KEPT_BYTES = np.array([0, 0x1, 0x101, 0x10101, 0x1010101], dtype="<u4")


def _zigzag(arr: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(arr, dtype=np.int64)
    # Arithmetic shift spreads the sign bit; viewing as uint64 keeps
    # two's-complement bits so the xor is the standard zigzag map.
    sign = (a >> np.int64(63)).view(_U64)
    return ((a.view(_U64) << _U64(1)) ^ sign)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    neg = (u & _U64(1)) * _U64(0xFFFFFFFFFFFFFFFF)
    return ((u >> _U64(1)) ^ neg).view(np.int64)


def _encode_wide(u: np.ndarray) -> bytes:
    """Pack zigzag values of any width, one masked pass per byte position."""
    nbytes = np.ones(u.size, dtype=np.int64)
    for k in range(1, _MAX_VARINT_BYTES):
        nbytes += u >= _U64(1) << _U64(7 * k)
    starts = np.zeros(u.size, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    out = np.empty(int(nbytes.sum()), dtype=np.uint8)
    rem = u.copy()
    for j in range(_MAX_VARINT_BYTES):
        mask = nbytes > j
        if not mask.any():
            break
        byte = (rem[mask] & _U64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] > j + 1).astype(np.uint8) << np.uint8(7)
        out[starts[mask] + j] = byte | cont
        rem[mask] >>= _U64(7)
    return out.tobytes()


def encode_varints(arr) -> bytes:
    """Pack an int64 sequence into a LEB128 byte stream."""
    u = _zigzag(np.asarray(arr, dtype=np.int64))
    if u.size == 0:
        return b""
    if u.max() >= 1 << 7 * _WINDOW:
        return _encode_wide(u)
    v = u.astype(_U32)
    nbytes = np.ones(v.size, dtype=np.uint8)
    for k in range(1, _WINDOW):
        nbytes += v >= 1 << 7 * k
    w = (v & 0x7F) | (v << 1 & 0x7F00) | (v << 2 & 0x7F0000) | (v << 3 & 0x7F000000)
    w |= np.take(_CONTINUATIONS, nbytes)
    kept = np.take(_KEPT_BYTES, nbytes).view(np.bool_)
    return np.compress(kept, w.astype("<u4", copy=False).view(np.uint8)).tobytes()


def decode_varints(buf: bytes, count: int | None = None) -> np.ndarray:
    """Unpack a LEB128 byte stream back to int64 values.

    Raises ValueError on a truncated stream, an over-long varint, a
    value wider than 64 bits, or (when ``count`` is given) a value-count
    mismatch.
    """
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        if count not in (None, 0):
            raise ValueError(f"expected {count} varints, stream is empty")
        return np.empty(0, dtype=np.int64)
    term = b < 0x80
    if not term[-1]:
        raise ValueError("truncated varint stream")
    ends = np.flatnonzero(term)
    n = ends.size
    if count is not None and n != count:
        raise ValueError(f"expected {count} varints, found {n}")
    starts = np.zeros(n, dtype=np.intp)
    np.add(ends[:-1], 1, out=starts[1:])
    lens = ends - starts
    lens += 1
    longest = int(lens.max())
    if longest > _MAX_VARINT_BYTES:
        raise ValueError("varint longer than 10 bytes")
    # A 10th byte carries bit 63 alone; higher bits would wrap silently.
    if longest == _MAX_VARINT_BYTES and b[ends[lens == longest]].max() > 1:
        raise ValueError("varint wider than 64 bits")
    padded = np.zeros(b.size + _WINDOW - 1, dtype=np.uint8)
    padded[: b.size] = b
    windows = np.ndarray((b.size,), dtype="<u4", buffer=padded, strides=(1,))
    x = np.take(windows, starts)
    v = (x & 0x7F) | (x >> 1 & 0x3F80) | (x >> 2 & 0x1FC000) | (x >> 3 & 0xFE00000)
    v &= np.take(_LENGTH_MASKS, lens)
    if longest <= _WINDOW:
        # Below 2^28, so the zigzag map inverts in 32 bits.
        return ((v >> 1) ^ -(v & 1)).view(np.int32).astype(np.int64)
    u = v.astype(_U64)
    rows = np.flatnonzero(lens > _WINDOW)
    for k in range(_WINDOW, longest):
        rows = rows[lens[rows] > k]
        u[rows] |= (b[starts[rows] + k] & 0x7F).astype(_U64) << _U64(7 * k)
    return _unzigzag(u)
