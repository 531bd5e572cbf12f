"""``floatfmt.repr_fields`` against ``repr``: every float64 it handles is
laid out as the bytes ``repr`` prints, and it hands exactly the subnormals,
infinities and nans back to the caller. Its interval ends, derived from one
product, against Giulietti's three ``rop`` calls in ``oracle``."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from dlms.floatfmt import SLOTS, _ends, repr_fields

SMALLEST_NORMAL = sys.float_info.min


def _fields(x):
    x = np.asarray(x, dtype=np.float64)
    field = np.zeros(x.shape + (SLOTS,), dtype=np.uint8)
    mask = np.zeros(field.shape, dtype=bool)
    unhandled = repr_fields(x, field, mask)
    return x, field, mask, unhandled


def _formatted(x):
    """One bytes object per value: the kernel's, or ``repr``'s where the
    kernel hands the value back."""
    x, field, mask, unhandled = _fields(x)
    assert unhandled.tolist() == [not math.isfinite(v) or 0 < abs(v) < SMALLEST_NORMAL
                                  for v in x.tolist()]
    assert all(f[m][:1].tobytes() == b"," for u, f, m in zip(unhandled, field, mask) if not u)
    return [repr(v).encode() if u else f[m][1:].tobytes()
            for v, u, f, m in zip(x.tolist(), unhandled, field, mask)]


def _expected(x):
    return [repr(v).encode() for v in np.asarray(x, dtype=np.float64).tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_floats_read_as_repr(values):
    assert _formatted(values) == _expected(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_bit_patterns_read_as_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _formatted(values) == _expected(values)


BOUNDARIES = [
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e22, 1e23,
    2.0**53 + 2, sys.float_info.max, SMALLEST_NORMAL, 0.0, -0.0,
    math.inf, -math.inf, math.nan, 5e-324, 123.0, 0.1, 1e100, 1e-100,
]


def _bulk():
    """2^18 seeded random bit patterns, every power of two of either sign
    and the layout boundaries."""
    patterns = np.random.default_rng(20200101).integers(0, 2**64, 1 << 18, dtype=np.uint64)
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    return np.concatenate([patterns.view(np.float64), powers, np.negative(powers),
                           BOUNDARIES, np.negative(BOUNDARIES)])


def test_bulk_values_read_as_repr():
    """The bulk values compared as one byte string, each value after its
    comma."""
    x, field, mask, unhandled = _fields(_bulk())
    assert np.array_equal(unhandled, ~np.isfinite(x) | ((x != 0) & (abs(x) < SMALLEST_NORMAL)))
    field[unhandled, 0], mask[unhandled] = ord(","), np.arange(SLOTS) == 0
    ours = field[mask].tobytes()
    expected = list(map(repr, x.tolist()))
    for i in np.flatnonzero(unhandled):
        expected[i] = ""
    if ours != ("," + ",".join(expected)).encode():
        mismatches = [(e, o) for e, o in zip(expected, ours.decode().split(",")[1:])
                      if e != o]
        raise AssertionError(f"{len(mismatches)} values differ from repr: {mismatches[:5]}")


def _ends_match_three_rops(x):
    """``floatfmt._ends`` equals ``oracle.schubfach_ends`` on every normal
    double of ``x``: k, vb and both interval ends."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    bq = (bits >> 52) & 0x7FF
    bits = bits[(bq > 0) & (bq < 0x7FF)]
    ours = list(zip(*(part.tolist() for part in _ends(bits))))
    expected = [oracle.schubfach_ends(b) for b in bits.tolist()]
    if ours != expected:
        wrong = [(b, e, o) for b, e, o in zip(bits.tolist(), expected, ours) if e != o]
        raise AssertionError(f"{len(wrong)} of {len(bits)} differ (bits, rops, ours): {wrong[:3]}")
    return len(bits)


def test_interval_ends_from_one_product_on_bulk_values():
    """The bulk values; the powers of two include every exponent where the
    interval below c = 2^52 is the narrower (c = 2^52, q > -1074) and
    2^-1022, where it is not."""
    assert _ends_match_three_rops(_bulk()) > (1 << 18) * 0.99


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_interval_ends_from_one_product_on_bit_patterns(patterns):
    _ends_match_three_rops(np.array(patterns, dtype=np.uint64).view(np.float64))
