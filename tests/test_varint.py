"""Tests for the zigzag varint codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessiondedup.varint import decode_varints, encode_varints

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def roundtrip(values):
    arr = np.asarray(values, dtype=np.int64)
    out = decode_varints(encode_varints(arr))
    np.testing.assert_array_equal(out, arr)
    return out


def test_empty_stream():
    assert encode_varints(np.array([], dtype=np.int64)) == b""
    assert decode_varints(b"").size == 0
    assert decode_varints(b"", count=0).size == 0


def test_small_values_single_byte():
    # zigzag maps [-64, 63] onto [0, 127], all single-byte encodings
    arr = np.arange(-64, 64, dtype=np.int64)
    encoded = encode_varints(arr)
    assert len(encoded) == arr.size
    roundtrip(arr)


def test_known_encodings():
    assert encode_varints(np.array([0], dtype=np.int64)) == b"\x00"
    assert encode_varints(np.array([-1], dtype=np.int64)) == b"\x01"
    assert encode_varints(np.array([1], dtype=np.int64)) == b"\x02"
    assert encode_varints(np.array([64], dtype=np.int64)) == b"\x80\x01"


def test_extremes():
    roundtrip([INT64_MIN, INT64_MAX, 0, -1, 1])
    # int64 min zigzags to 2^64 - 1: ten bytes, last byte 1
    encoded = encode_varints(np.array([INT64_MIN], dtype=np.int64))
    assert len(encoded) == 10
    assert encoded[-1] == 0x01


def test_count_mismatch_rejected():
    buf = encode_varints(np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        decode_varints(buf, count=2)
    with pytest.raises(ValueError):
        decode_varints(buf, count=4)


def test_truncated_stream_rejected():
    buf = encode_varints(np.array([INT64_MAX], dtype=np.int64))
    with pytest.raises(ValueError):
        decode_varints(buf[:-1])


def test_overlong_varint_rejected():
    # eleven continuation-flagged bytes can never terminate a valid int64
    with pytest.raises(ValueError):
        decode_varints(b"\xff" * 10 + b"\x01")


@pytest.mark.parametrize("last", [0x02, 0x7F])
def test_varint_wider_than_64_bits_rejected(last):
    # a 10th byte holds bit 63 alone; anything above 1 would wrap onto
    # the same value as a last byte of 1, int64 min
    assert decode_varints(b"\xff" * 9 + b"\x01")[0] == INT64_MIN
    with pytest.raises(ValueError, match="64 bits"):
        decode_varints(b"\x00" + b"\xff" * 9 + bytes([last]))


@given(
    st.lists(
        st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
        max_size=200,
    )
)
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(values):
    roundtrip(values)


@given(st.lists(st.integers(min_value=-(2**20), max_value=2**20), max_size=100))
@settings(max_examples=100, deadline=None)
def test_concatenation_is_context_free(values):
    # encoding element-by-element must equal encoding the whole array
    arr = np.asarray(values, dtype=np.int64)
    piecewise = b"".join(
        encode_varints(arr[i : i + 1]) for i in range(arr.size)
    )
    assert piecewise == encode_varints(arr)


def test_large_random_block():
    rng = np.random.default_rng(7)
    arr = rng.integers(INT64_MIN, INT64_MAX, size=50_000, dtype=np.int64)
    roundtrip(arr)
