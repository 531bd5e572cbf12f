"""``floatfmt.repr_fields`` against ``repr``: every float64 it handles is
laid out as the bytes ``repr`` prints, and it hands exactly the subnormals,
infinities and nans back to the caller."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dlms.floatfmt import SLOTS, repr_fields

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
    return [repr(v).encode() if u else f[m].tobytes()
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


def test_bulk_values_read_as_repr():
    """2^18 seeded random bit patterns, every power of two of either sign
    and the layout boundaries, compared as one byte string per value, with
    slot 0 holding a separator."""
    patterns = np.random.default_rng(20200101).integers(0, 2**64, 1 << 18, dtype=np.uint64)
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    x = np.concatenate([patterns.view(np.float64), powers, np.negative(powers),
                        BOUNDARIES, np.negative(BOUNDARIES)])
    x, field, mask, unhandled = _fields(x)
    assert np.array_equal(unhandled, ~np.isfinite(x) | ((x != 0) & (abs(x) < SMALLEST_NORMAL)))
    field[..., 0], mask[..., 0] = ord("\n"), True
    mask[unhandled, 1:] = False
    ours = np.compress(mask.ravel(), field.ravel()).tobytes()
    expected = list(map(repr, x.tolist()))
    for i in np.flatnonzero(unhandled):
        expected[i] = ""
    if ours != ("\n" + "\n".join(expected)).encode():
        mismatches = [(e, o) for e, o in zip(expected, ours.decode().split("\n")[1:])
                      if e != o]
        raise AssertionError(f"{len(mismatches)} values differ from repr: {mismatches[:5]}")
