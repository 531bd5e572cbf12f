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


# The lower end's borrow. _ends forms the bits 64-126 of g cbl << h as
# mid = fl - lh - (low < ll): those of g cp, less those of the end's offset
# g << (h + 1), less a borrow from the low words. The borrow moves vbl only
# where the low words borrow and mid then lands on 0 or on -1 (mod 2^63).
# With a = g << (h + 2), g cbl << h is a c - (g << (h + 1)), so these are
# the c in [2^52, 2^53) with (a c - (g << (h + 1))) mod 2^127 in one of two
# windows of width ll, the low word of g << (h + 1): the low word and mid
# wrap (below 2^64), or only the low word does (below 2^127).

def _least(a, m, lo, hi):
    """The least x >= 0 with lo <= a x mod m <= hi, for 0 <= lo <= hi < m,
    or None: Euclid's algorithm on (m, a), as a continued fraction of a / m
    would give its best approximations."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:  # a multiple of a lies in [lo, hi]
        return x
    # [lo, hi] holds no multiple of a, so a x - m y is in it for the least
    # y with m y mod a in [-hi mod a, -lo mod a], a window that does not wrap
    y = _least(m % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(m * y + lo) // a)


def _first_hit(a, b, m, lo, hi):
    """The least x >= 0 with (a x + b) mod m in [lo, hi], or None."""
    lo, hi = (lo - b) % m, (hi - b) % m
    return 0 if lo > hi else _least(a, m, lo, hi)  # a window that wraps holds b


def _floor_sum(n, m, a, b):
    """The sum of floor((a x + b) / m) over 0 <= x < n, for a, b >= 0, by
    the same Euclidean reduction (as AtCoder Library's ``floor_sum``)."""
    total = 0
    while True:
        total += (n - 1) * n // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


def _hits(a, b, m, lo, hi, n):
    """How many x in [0, n) have (a x + b) mod m in [lo, hi]: [u in [lo, hi]]
    is floor((u - lo) / m) - floor((u - hi - 1) / m) for u = a x + b."""
    b %= m
    return _floor_sum(n, m, a % m, b - lo + m) - _floor_sum(n, m, a % m, b - hi - 1 + m)


def test_window_search_against_brute_force():
    rng = np.random.default_rng(127)
    for _ in range(3000):
        m = int(rng.integers(1, 200))
        a, b = (int(v) for v in rng.integers(0, 3 * m, 2))
        lo = int(rng.integers(0, m))
        hi = int(rng.integers(lo, m))
        n = int(rng.integers(0, 3 * m))
        inside = [lo <= (a * x + b) % m <= hi for x in range(n)]
        assert _hits(a, b, m, lo, hi, n) == sum(inside)
        first = _first_hit(a, b, m, lo, hi)
        assert inside.index(True) == first if any(inside) else first is None or first >= n


_N127 = 1 << 127


def _borrow_windows(bq):
    """For the regular table index of biased exponent bq: a and b with
    g cbl << h = a x + b for c = c0 + x, c0 and the two windows. (c = 2^52
    with bq > 1 takes the narrower entry; those are the powers of two, which
    ``_bulk`` holds.)"""
    q = bq - 1075
    k = q * 661_971_961_083 >> 41
    h = q + (-k * 913_124_641_741 >> 38) + 2
    g = oracle._schubfach_g(k)
    a, offset = g << (h + 2), g << (h + 1)
    ll = offset % 2**64
    c0 = 2**52 + (bq > 1)
    return a, a * c0 - offset, c0, [(2**64 - ll, 2**64 - 1), (_N127 - ll, _N127 - 1)]


def test_lower_end_borrow_doubles():
    """Every double on which the lower end's borrow can matter, found by the
    window search over every regular table index: 147,574 doubles in
    [2^105, 2^106), those whose lower end (c - 1/2) 2^53 is a multiple of
    10^15, c = 5^15 j + (5^15 + 1) / 2. Each is checked against
    ``oracle.schubfach_ends`` and ``repr``; without the borrow, 14,758 of
    them would print a 17th digit (4.056579431202816e+31 as
    4.0565794312028165e+31)."""
    counts = {}
    for bq in range(1, 2047):
        a, b, c0, windows = _borrow_windows(bq)
        count = sum(_hits(a, b, _N127, lo, hi, 2**53 - c0) for lo, hi in windows)
        if count:
            counts[bq] = count
    assert counts == {1128: 147_574}
    a, b, c0, windows = _borrow_windows(1128)

    def first_hit(start):
        hits = [_first_hit(a, b + a * start, _N127, lo, hi) for lo, hi in windows]
        return start + min(x for x in hits if x is not None)
    x = first_hit(0)
    step = first_hit(x + 1) - x
    assert step == 5**15 and (c0 + x) % step == (step + 1) // 2
    xs = range(x, x + counts[1128] * step, step)
    assert c0 + xs[-1] < 2**53 <= c0 + xs[-1] + step
    assert all(any(lo <= (a * y + b) % _N127 <= hi for lo, hi in windows) for y in xs)
    bits = (1128 << 52) | (np.array(xs, dtype=np.int64) + (c0 - 2**52))
    _ends_match_three_rops(bits.view(np.float64))
    values = np.concatenate([bits.view(np.float64), -bits.view(np.float64)])
    assert _formatted(values) == _expected(values)
    assert 4.056579431202816e+31 in values
