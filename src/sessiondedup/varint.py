"""Vectorized LEB128 varint codec for int64 streams.

Signed values are zigzag-mapped to unsigned first, then packed as
little-endian base-128 with the high bit as a continuation flag. Both
directions are numpy-vectorized: encoding loops over at most 10 byte
positions, decoding recovers group boundaries from terminator bytes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["encode_varints", "decode_varints"]

_U64 = np.uint64
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)


def _zigzag(arr: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(arr, dtype=np.int64)
    # Arithmetic shift spreads the sign bit; viewing as uint64 keeps
    # two's-complement bits so the xor is the standard zigzag map.
    sign = (a >> np.int64(63)).view(_U64)
    return ((a.view(_U64) << _U64(1)) ^ sign)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    neg = (u & _U64(1)) * _U64(0xFFFFFFFFFFFFFFFF)
    return ((u >> _U64(1)) ^ neg).view(np.int64)


def encode_varints(arr) -> bytes:
    """Pack an int64 sequence into a LEB128 byte stream."""
    u = _zigzag(np.asarray(arr, dtype=np.int64))
    if u.size == 0:
        return b""
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
    starts = np.zeros(n, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    gid = np.zeros(b.size, dtype=np.int64)
    np.cumsum(term[:-1], out=gid[1:])
    within = np.arange(b.size, dtype=np.int64) - starts[gid]
    longest = within.max()
    if longest >= _MAX_VARINT_BYTES:
        raise ValueError("varint longer than 10 bytes")
    # A 10th byte carries bit 63 alone; higher bits would wrap silently.
    if longest == _MAX_VARINT_BYTES - 1 and b[within == longest].max() > 1:
        raise ValueError("varint wider than 64 bits")
    contrib = (b.astype(_U64) & _U64(0x7F)) << (_U64(7) * within.view(_U64))
    # Groups are contiguous, so reduceat sums each varint's digit
    # contributions; disjoint bit ranges make the sum an exact OR.
    u = np.add.reduceat(contrib, starts)
    return _unzigzag(u)
