"""Tests for the zigzag varint codec.

A pure-Python LEB128 codec, one byte at a time, is the oracle for both
paths of the vectorized one: the 4-byte window that holds values whose
zigzag form is below 2^28, and the per-byte-position passes beyond it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessiondedup.varint import decode_varints, encode_varints

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def zigzag(v):
    return ((v << 1) ^ (v >> 63)) & (2**64 - 1)


def unzigzag(z):
    return (z >> 1) ^ -(z & 1)


def reference_encode(values):
    out = bytearray()
    for v in values:
        z = zigzag(int(v))
        while z >= 0x80:
            out.append(z & 0x7F | 0x80)
            z >>= 7
        out.append(z)
    return bytes(out)


def reference_decode(buf):
    values, z, shift = [], 0, 0
    for byte in buf:
        z |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            values.append(unzigzag(z))
            z, shift = 0, 0
    return values


# Zigzag values on each side of every varint length step (2^7k), and the
# two that map to the int64 extremes.
BOUNDARY_ZIGZAGS = sorted(
    {0, 2**64 - 2, 2**64 - 1}
    | {z for k in range(1, 10) for z in (2 ** (7 * k) - 1, 2 ** (7 * k), 2 ** (7 * k) + 1)}
)
BOUNDARY_VALUES = [unzigzag(z) for z in BOUNDARY_ZIGZAGS]
SHORT = list(range(-200, 200, 3))  # every value fits one window


def check_against_reference(values):
    arr = np.asarray(values, dtype=np.int64)
    encoded = encode_varints(arr)
    assert encoded == reference_encode(values)
    decoded = decode_varints(encoded, len(values))
    assert decoded.dtype == np.int64
    assert decoded.tolist() == reference_decode(encoded) == [int(v) for v in values]


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


def test_count_checked_on_an_empty_stream():
    assert decode_varints(b"", 0).size == 0
    with pytest.raises(ValueError, match="^expected 3 varints, stream is empty$"):
        decode_varints(b"", 3)


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


class TestAgainstReference:
    @pytest.mark.parametrize("z", BOUNDARY_ZIGZAGS)
    def test_each_length_boundary_alone(self, z):
        v = unzigzag(z)
        check_against_reference([v])
        assert len(encode_varints(np.array([v], dtype=np.int64))) == max(1, -(-z.bit_length() // 7))

    def test_all_boundaries_in_one_stream(self):
        check_against_reference(BOUNDARY_VALUES)
        check_against_reference(BOUNDARY_VALUES[::-1])

    @pytest.mark.parametrize("wide", [2**28, 2**35, INT64_MIN, INT64_MAX])
    @pytest.mark.parametrize("where", ["first", "middle", "last", "every-third"])
    def test_window_and_wide_values_mixed(self, wide, where):
        values = list(SHORT)
        if where == "every-third":
            values[::3] = [wide] * len(values[::3])
        else:
            values.insert({"first": 0, "middle": len(values) // 2, "last": len(values)}[where], wide)
        check_against_reference(values)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(BOUNDARY_VALUES),
                st.integers(-(2**27), 2**27 - 1),
                st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_boundary_biased_property(self, values):
        check_against_reference(values)


class TestErrorsAmongShortVarints:
    """Each fault sits in a stream whose other values all fit one window."""

    short = reference_encode(SHORT)

    def test_truncated_tail(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_varints(self.short + b"\x80\x80")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_count_mismatch(self, delta):
        with pytest.raises(ValueError, match=f"expected {len(SHORT) + delta} varints"):
            decode_varints(self.short, len(SHORT) + delta)

    def test_eleven_byte_varint(self):
        with pytest.raises(ValueError, match="longer than 10 bytes"):
            decode_varints(self.short + b"\xff" * 10 + b"\x01" + self.short)

    def test_ten_byte_varint_ending_in_two(self):
        with pytest.raises(ValueError, match="64 bits"):
            decode_varints(self.short + b"\xff" * 9 + b"\x02" + self.short)


class TestBufferBounds:
    """A window read at the last value's start spans 3 bytes past the
    stream. Windows built over the caller's buffer itself would need
    those bytes to exist; numpy refuses such a view of an exactly sized
    buffer, so these decodes pass only if the padded copy is read."""

    values = [5, -3, 2**20, 1]  # the last value is a single byte

    def test_exactly_sized_bytes(self):
        buf = bytes(reference_encode(self.values))
        assert decode_varints(buf, len(self.values)).tolist() == self.values

    def test_memoryview_of_a_longer_buffer(self):
        stream = reference_encode(self.values)
        # continuation-flagged bytes right after the stream would join
        # the last value if they were read
        backing = bytearray(stream + b"\xff\xff\xff")
        view = memoryview(backing)[: len(stream)]
        assert decode_varints(view, len(self.values)).tolist() == self.values
        assert decode_varints(memoryview(stream)).tolist() == self.values
        assert backing == stream + b"\xff\xff\xff"
