"""``libm.square`` and the trajectory CSV's M = 1 ``dist_opt`` against
libm's ``pow``, one call per value, bit for bit.

Both skip ``pow`` only where glibc's stated 0.54-ULP accuracy forces its
result (see the ``libm`` docstring). These tests compare them with
``oracle.pow2`` and ``pow(·, 0.5)`` on every kind of value the argument
distinguishes: millions of seeded doubles over many binades, squares whose
rounding error lies near the 0.4-ulp cut, significands next to 1, √2 and 2,
every power of two, zeros, subnormals, infinities, nans, squares past
overflow and both ends of each range. The argument rests on the C library's
``pow``, so a failure names the C library.
"""

import math

import numpy as np
import pytest

from dlms import libm
from dlms.libm import root_square_is_abs, square
from oracle import _libc, pow2


def _bits(values):
    return np.asarray(values, np.float64).view(np.uint64)


def _assert_same_bits(got, want, x, what):
    differ = np.flatnonzero(_bits(got) != _bits(want))
    if differ.size:
        i = differ[0]
        pytest.fail(f"{what} differs from per-value pow on {differ.size} of {x.size} "
                    f"values, first at x = {x[i]!r}: {got[i]!r} != {want[i]!r}; {_libc()}")


def _lo_ulps(x):
    """|x² - fl(x²)| in ulps of fl(x²), for normal x, from the exact integer
    square of x's significand: independent of the package's Veltkamp split."""
    bits = np.asarray(x, np.float64).view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    low = m * m  # m² mod 2^64: the bits below fl(x²)'s last one
    top = m > np.uint64(math.isqrt((1 << 105) - 1))  # m² >= 2^105 drops 53 bits
    dropped = np.where(top, 53, 52)
    mask = (np.uint64(1) << dropped.astype(np.uint64)) - np.uint64(1)
    frac = (low & mask) / np.ldexp(1.0, dropped)  # exact: at most 53 bits
    return np.minimum(frac, 1.0 - frac)


def _check(x, monkeypatch):
    """square(x) is pow2 of each value, and calls pow on exactly the values
    off its stated set; |x| is pow(pow2(x), 0.5) wherever
    root_square_is_abs says so, which is exactly its stated set."""
    x = np.asarray(x, np.float64)
    squares = np.array([pow2(v) for v in x.tolist()])
    called, per_value = [], libm._per_value

    def recorded(values, y=None):
        assert y == 2.0
        called.extend(values)
        return per_value(values, y)
    monkeypatch.setattr(libm, "_per_value", recorded)
    _assert_same_bits(square(x), squares, x, "square")
    d = np.abs(x)
    with np.errstate(over="ignore"):
        power_of_two = np.frexp(x * x)[0] == 0.5
    fast = (d >= 2.0**-450) & (d <= 2.0**500) & (_lo_ulps(x) <= 0.4) & ~power_of_two
    assert _bits(called).tolist() == _bits(x[~(fast | (d == 0.0))]).tolist()
    safe = root_square_is_abs(d)
    roots = np.array([pow(s, 0.5) for s in squares.tolist()])
    _assert_same_bits(np.where(safe, d, roots), roots, x, "dist_opt")
    in_range = (d >= 2.0**-511) & (d < 2.0**511) & (np.frexp(d)[0] != 0.5)
    assert (safe == (in_range | (d == 0.0))).all()
    return safe


def _scaled(significands, exponents):
    """Each significand in [1, 2) times 2^e for each e in ``exponents``, of either sign."""
    with np.errstate(over="ignore"):
        grid = np.ldexp(np.asarray(significands)[None, :], np.asarray(exponents)[:, None])
    return np.concatenate([grid.ravel(), -grid.ravel()])


_EDGES = [-1074, -1022, -540, -512, -511, -510, -451, -450, -449, -200, -1, 0,
          1, 52, 200, 499, 500, 501, 510, 511, 512, 513, 1000, 1023]


def test_seeded_doubles_over_many_binades(monkeypatch):
    """2^21 doubles: random significands and signs, exponents uniform over
    [-560, 560], beyond both ranges."""
    rng = np.random.default_rng(20250125)
    n = 1 << 21
    x = np.ldexp(1.0 + rng.random(n), rng.integers(-560, 561, n))
    x[rng.random(n) < 0.5] *= -1.0
    assert _check(x, monkeypatch).mean() > 0.9


def test_squares_near_the_cut(monkeypatch):
    """Significands whose square's rounding error |lo| lies within [0.35, 0.5]
    ulp, from an exact integer square independent of the Veltkamp split,
    scaled into every kind of binade."""
    rng = np.random.default_rng(7)
    m = rng.integers(1 << 52, 1 << 53, 1 << 19, dtype=np.uint64)
    significands = np.ldexp(m.astype(np.float64), -52)  # exact: 53 bits
    ratio = _lo_ulps(significands)
    near = (ratio >= 0.35) & (ratio <= 0.5)
    assert ((ratio[near] <= 0.4).any() and (ratio[near] > 0.4).any()
            and (ratio[near] > 0.49).any())
    _check(_scaled(significands[near][:4096], _EDGES), monkeypatch)
    _check(_scaled(significands[near], [0]), monkeypatch)


def test_significands_next_to_one_root_two_and_two(monkeypatch):
    """1 + k 2^-52, √2 ± k 2^-52 and 2 - k 2^-52 for k < 2^12, across
    exponents from underflow to overflow: the squares that start, cross
    and end a binade."""
    k = np.arange(1 << 12) * 2.0**-52
    root2 = math.sqrt(2.0)
    significands = np.concatenate([1.0 + k, root2 + k, root2 - k, 2.0 - k[1:]])
    _check(_scaled(significands, list(range(-600, 601, 40)) + _EDGES), monkeypatch)


def test_special_values(monkeypatch):
    """Every power of two of either sign, zeros, subnormals, infinities,
    nans and squares past overflow."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    rng = np.random.default_rng(3)
    subnormals = (rng.integers(1, 1 << 52, 4096, dtype=np.uint64)).view(np.float64)
    huge = np.ldexp(1.0 + rng.random(4096), rng.integers(512, 1024, 4096))
    x = np.concatenate([powers, subnormals, huge, [0.0, math.inf, math.nan,
                                                   5e-324, 2.2250738585072014e-308,
                                                   1.7976931348623157e308]])
    _check(np.concatenate([x, -x]), monkeypatch)


def test_range_edges(monkeypatch):
    """Each end of each range, 2^-511, 2^-450, 2^500, 2^511 and √DBL_MAX,
    with its 64 neighbours on each side."""
    ends = [2.0**-511, 2.0**-450, 2.0**500, 2.0**511, math.sqrt(1.7976931348623157e308)]
    x = []
    for end in ends:
        below = above = end
        for _ in range(64):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            x += [below, above]
        x.append(end)
    x = np.array(x)
    _check(np.concatenate([x, -x]), monkeypatch)
