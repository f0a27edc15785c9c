"""The container's varint codec and the stream scan's sort-free helpers,
each against its scalar (or sorting) definition.

The REPROTRC codec is LEB128 over uint64, vectorized: the decoder gathers
byte ``i`` of every varint at once and the encoder writes an
``(n, longest)`` byte grid.  Both are pinned here against a per-value
reference, on ragged columns of every encoded length from 1 to 10 bytes
and on the all-one-byte columns the decoder passes through as they are.
The streaming replay's resource order (16-bit radix digits) must be
``np.argsort(kind="stable")``'s exactly, and ``_per_unique``'s two tables
(by value, by ``np.unique``) must apply the same scalar rule per value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import ONOC_AWGR, OnocConfig
from repro.core.generational import _stable_order
from repro.core.tracebin import (
    TraceBinError,
    _decode_varints,
    _encode_varints,
)
from repro.onoc.timing import _per_unique, timing_for

U64_MAX = (1 << 64) - 1


def _leb128(values) -> bytes:
    """The scalar LEB128 encoding of each value, concatenated."""
    out = bytearray()
    for v in values:
        while True:
            byte, v = v & 0x7F, v >> 7
            out.append(byte | (0x80 if v else 0))
            if not v:
                break
    return bytes(out)


def _unleb128(data: bytes) -> list[int]:
    """The scalar decoding of well-formed LEB128 bytes."""
    values, v, shift = [], 0, 0
    for byte in data:
        v |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            values.append(v)
            v, shift = 0, 0
    return values


def _ragged(seed: int, n: int) -> list[int]:
    """``n`` values whose encodings take every length from 1 to 10 bytes,
    shuffled, with 0 and 2**64 - 1 among them."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 11, size=n)
    values = []
    for length in lengths.tolist():
        lo = 0 if length == 1 else 1 << (7 * (length - 1))
        hi = min(1 << (7 * length), 1 << 64) - 1
        values.append(lo + int(rng.integers(0, 1 << 62)) % (hi - lo + 1))
    return [0, U64_MAX, *values, U64_MAX, 0]


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 9), (2, 1000), (3, 65536)])
def test_ragged_columns_decode_as_the_scalar_reference(seed, n):
    values = _ragged(seed, n)
    if n >= 1000:
        assert {len(_leb128([v])) for v in values} == set(range(1, 11))
    data = _leb128(values)
    assert _unleb128(data) == values
    got = _decode_varints(data, len(values), "col")
    assert got.dtype == np.uint64
    assert got.tolist() == values


@pytest.mark.parametrize("length", range(1, 11))
def test_every_encoded_length_alone(length):
    """A column whose varints all share one length, at both ends of it."""
    lo = 0 if length == 1 else 1 << (7 * (length - 1))
    hi = min(1 << (7 * length), 1 << 64) - 1
    values = [lo, hi, lo, hi]
    data = _leb128(values)
    assert len(data) == 4 * length
    assert _decode_varints(data, 4, "col").tolist() == values
    assert _encode_varints(np.array(values, dtype=np.uint64)) == data


@pytest.mark.parametrize("values", [[0], [127], [0, 1, 2, 127] * 1000,
                                   list(range(128)) * 512])
def test_one_byte_columns_are_their_own_bytes(values):
    data = bytes(values)
    assert _leb128(values) == data
    assert _decode_varints(data, len(values), "col").tolist() == values
    assert _encode_varints(np.array(values, dtype=np.uint64)) == data


@pytest.mark.parametrize("seed,n", [(4, 0), (5, 1), (6, 777), (7, 65536)])
def test_encode_is_the_scalar_reference(seed, n):
    values = _ragged(seed, n)[2:-2] if n else []
    encoded = _encode_varints(np.array(values, dtype=np.uint64))
    assert encoded == _leb128(values)
    zeros = np.zeros(n, dtype=np.uint64)
    assert _encode_varints(zeros) == bytes(n)


@pytest.mark.parametrize("last", [0x02, 0x7F])
def test_a_varint_beyond_64_bits_is_oversized(last):
    """Ten bytes hold 70 payload bits; the tenth may carry bit 63 only."""
    with pytest.raises(TraceBinError,
                       match="^corrupt trace: oversized varint in col$"):
        _decode_varints(bytes([0x80] * 9 + [last]), 1, "col")
    # The same beside well-formed varints, in the middle of a column.
    data = _leb128([5, U64_MAX]) + bytes([0xFF] * 9 + [last]) + _leb128([7])
    with pytest.raises(TraceBinError, match="oversized varint"):
        _decode_varints(data, 4, "col")
    assert _decode_varints(bytes([0x80] * 9 + [0x01]), 1, "col").tolist() == [
        1 << 63]


@pytest.mark.parametrize("data,count,text", [
    (bytes([0x81]), 1, "truncated varint stream in col"),
    (bytes([0x81, 0x01, 0x05]), 1, "corrupt trace: trailing bytes in col"),
    (bytes([0x05, 0x06]), 1, "corrupt trace: trailing bytes in col"),
    (bytes([0x05]), 2, "truncated varint stream in col"),
    (bytes([0x80] * 10 + [0x01]), 1, "corrupt trace: oversized varint in col"),
    # Every refusal applies, first in the decoder's order: truncated, then
    # oversized, then trailing, then beyond 64 bits.
    (bytes([0x80] * 11 + [0x01, 0x80]), 2, "truncated varint stream in col"),
    (bytes([0x80] * 11 + [0x01, 0x02]), 1,
     "corrupt trace: oversized varint in col"),
    (bytes([0x80] * 9 + [0x02, 0x05]), 1,
     "corrupt trace: trailing bytes in col"),
    (b"\x00", 0, "corrupt trace: trailing bytes in col"),
])
def test_refusals_keep_their_text_and_order(data, count, text):
    with pytest.raises(TraceBinError, match=f"^{text}$"):
        _decode_varints(data, count, "col")


@pytest.mark.parametrize("bound", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                                   1 << 32, (1 << 40) + 3])
def test_resource_order_is_the_stable_argsort(bound):
    rng = np.random.default_rng(bound % 1000)
    keys = rng.integers(0, bound, size=50_000)
    keys[:7] = [0, bound - 1, 0, bound - 1, bound // 2, bound // 2, 1]
    # Few distinct keys as well: long runs of ties, whose order is pinned.
    keys[-20_000:] = rng.choice(keys[:50], size=20_000)
    assert np.array_equal(_stable_order(keys, bound),
                          np.argsort(keys, kind="stable"))


def test_awgr_resource_order_is_the_stable_argsort():
    """n = 300 pairs: resource keys up to 89,999, two 16-bit digits."""
    n = 300
    timing = timing_for(OnocConfig(num_nodes=n, topology=ONOC_AWGR,
                                   num_wavelengths=512))
    assert timing.num_resources == n * n > 1 << 16
    rng = np.random.default_rng(300)
    src = rng.integers(0, n, size=65536)
    dst = (src + rng.integers(1, n, size=65536)) % n
    keys = timing.resource(src, dst)
    assert int(keys.max()) >= 1 << 16
    assert np.array_equal(_stable_order(keys, timing.num_resources),
                          np.argsort(keys, kind="stable"))


def _rule(size: int) -> int:
    return max(1, math.ceil(size * 8 / 320 * 2.5))


@pytest.mark.parametrize("values", [
    [5],                                   # by unique: 5 >= len
    [0, 0, 0],                             # by value: the zero table row
    [3, 1, 2, 1],                          # by value, max = len - 1
    [4, 1, 2, 1],                          # by unique: max = len
    [64] * 100 + [8] * 28,                 # by value
    [64] * 50 + [1 << 20],                 # by unique: one size above len
    [7, -1, 3],                            # by unique: a negative value
    [1 << 62, 1, 1 << 62],                 # by unique: a huge size
])
def test_per_unique_applies_the_rule_per_value(values):
    a = np.array(values, dtype=np.int64)
    out = _per_unique(_rule, a)
    assert out.dtype == np.int64
    assert out.tolist() == [_rule(v) for v in values]


def test_per_unique_of_nothing():
    out = _per_unique(_rule, np.zeros(0, dtype=np.int64))
    assert out.dtype == np.int64 and len(out) == 0
