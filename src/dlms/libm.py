"""Whole arrays with the bits of the C library's ``log`` and ``pow``, called
one value at a time only where their stated accuracy leaves the result open.

numpy's ``log`` (its own SIMD code) and ``x**2`` (``x*x``) differ from libm
in the last bit on some values. glibc's ``log`` and ``pow`` (since 2.28,
Arm's optimized-routines code) state worst-case errors of 0.519 and 0.54 ULP
(glibc manual, "Errors in Math Functions"), so a double whose neighbours both
lie farther than that from the exact value is the result. Three rules:

- ``logs``: ``log(u)`` for u in (0, 1]. With an x87 long double (64-bit
  significand), ``L = logl(u)`` rounds to the double ``d``, and 2 units in
  L's last place are 2^-10 ulp(d); the argument allows logl that error (the
  largest measured on 208k of the stream's uniforms was 0.81 of a unit).
  Where ``|L - d| <= 0.47 ulp(d)`` and d is neither zero nor a power of two,
  L and the exact logarithm lie in d's binade, the exact logarithm is within
  0.47 + 2^-10 < 0.481 ulp of d, and each neighbour of d is more than 0.519
  ulp from it, so ``log`` returns d (glibc 2.36's ``log`` measured 0.517 ulp
  at most against ``logl`` on 8M uniforms). About one in sixteen calls ``log``.
- ``square``: ``pow(x, 2.0)``. Dekker's exact product (T. J. Dekker, Numer.
  Math. 18, 1971) gives ``lo = x² - d`` with ``d = x*x``, exactly for
  2^-450 <= |x| <= 2^500. Where ``|lo| <= 0.4 ulp(d)`` and d is not a power
  of two, x² lies in d's binade and each neighbour of d is at least 0.6 ulp
  from x², so ``pow`` returns d. About one value in five calls ``pow``.
- ``root_square_is_abs``: ``pow(pow(x, 2.0), 0.5)``. For 2^-511 <= |x| <
  2^511, |x| not a power of two, ``s = pow(x, 2.0)`` is normal and within
  0.54 ulp(x²) of x²: a relative error of at most 0.54 * 2^-52 / m² (m² < 2)
  or 1.08 * 2^-52 / m² (m² >= 2), m the significand of |x|. So √s lies
  within 0.27/m or 0.54/m ulp(x), at most 0.382 ulp(x), of |x|, in |x|'s
  binade, and ``pow(s, 0.5)``, within 0.54 ulp of √s, is within 0.93 ulp of
  |x|: it is |x|. ``roots`` calls ``pow`` on the other values.

The premises, glibc 2.28 or later for all three and a 64-bit long-double
significand for ``logs``, are checked once per process (``_premises``);
without them every value calls libm. ``tests/test_log_bits.py`` and
``tests/test_pow_bits.py`` compare the rules bit for bit with per-value
libm on millions of values, binade and range edges included.
"""

import math
import os
from functools import cache
from itertools import repeat

import numpy as np

_EXPONENT, _SIGNIFICAND = 0x7FF0000000000000, (1 << 52) - 1
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into 26-bit halves
# values a block of ``logs``: 128 KB of buffers, and 64 KB for numpy's cast
_LOG_BLOCK = 1 << 12
# values squared at a time, in temporaries of 64 KB, and the most that metrics
# passes to ``square`` at once: one block covers a run of table1 at full speed,
# while a 16,000-value steady-state window squared at once raises
# long_horizon's peak RSS by 0.1-0.2 MB
SQUARE_BLOCK = 1 << 13


@cache
def _premises():
    """(pow, log): whether the C library is glibc 2.28 or later, and whether
    in addition the long double has a 64-bit significand."""
    try:
        name, version = os.confstr("CS_GNU_LIBC_VERSION").split()
        glibc = name == "glibc" and tuple(map(int, version.split(".")[:2])) >= (2, 28)
    except (AttributeError, ValueError, OSError):  # no confstr, not glibc, no version
        glibc = False
    return glibc, glibc and np.finfo(np.longdouble).nmant == 63


def power(x, y):
    """libm's ``pow(x, y)`` of one float: Python's float power, ``inf`` where it overflows."""
    try:
        return pow(x, y)
    except OverflowError:
        return math.inf


def _per_value(values, y=None):
    """libm's ``log`` (no ``y``) or ``power(·, y)`` of each float in the list
    ``values``, one call at a time, as an array."""
    try:
        calls = map(math.log, values) if y is None else map(pow, values, repeat(y))
        return np.fromiter(calls, np.float64, len(values))
    except OverflowError:
        return np.fromiter(map(power, values, repeat(y)), np.float64, len(values))


def _kept(d, lo, cut, scratch):
    """Where ``|lo| <= cut 2^e``, 2^e d's binade, and d is neither zero nor a
    power of two. Overwrites ``lo`` and the uint64 array ``scratch``."""
    bits = d.view(np.uint64)
    ulp = np.bitwise_and(bits, _EXPONENT, out=scratch).view(np.float64)
    ulp *= cut
    kept = np.abs(lo, out=lo) <= ulp
    kept &= np.bitwise_and(bits, _SIGNIFICAND, out=scratch) != 0
    return kept


def _blocked(x, block, rounded, y=None):
    """``_per_value(x, y)`` in x's shape, ``block`` values at a time:
    ``rounded(v, d)`` writes a rounding of the block ``v`` into ``d`` and
    returns where it is libm's; the rest (all if it is None) call libm."""
    out = np.empty(x.shape)
    xs, ds = x.reshape(-1), out.reshape(-1)
    for i in range(0, xs.size, block):
        v, d = xs[i:i + block], ds[i:i + block]
        slow = ~rounded(v, d) if rounded else np.ones(v.size, bool)
        if slow.any():
            d[slow] = _per_value(v[slow].tolist(), y)
    return out


def logs(u):
    """``math.log`` of each value of the float64 array ``u`` (in (0, 1]), in u's shape."""
    buffers = [np.empty(min(u.size, _LOG_BLOCK), t) for t in (np.longdouble, float, np.uint64)]

    def rounded(v, d):
        logl, lo, scratch = (b[:v.size] for b in buffers)
        logl[...] = v
        d[...] = np.log(logl, out=logl)
        logl -= d
        lo[...] = logl  # exact: logl's bits below d's last place
        return _kept(d, lo, 0.47 * 2.0**-52, scratch)
    return _blocked(u, _LOG_BLOCK, rounded if _premises()[1] else None)


def _square_is_xx(x, d):
    """Writes ``x*x`` into ``d`` and returns where it is ``pow(x, 2.0)``: x =
    0, or 2^-450 <= |x| <= 2^500 with x² within 0.4 ulp of d, d not a power
    of two. Three temporaries of x's size."""
    np.multiply(x, x, out=d)
    xh = x * _SPLIT  # x = xh + xl, exactly
    xl = np.subtract(xh, x)
    np.subtract(xh, xl, out=xh)
    np.subtract(x, xh, out=xl)
    lo = xh * xh  # lo = ((xh*xh - d) + 2 xh*xl) + xl*xl, each step exact
    lo -= d
    np.multiply(xh, xl, out=xh)
    xh += xh
    lo += xh
    np.multiply(xl, xl, out=xl)
    lo += xl
    kept = _kept(d, lo, 0.4 * 2.0**-52, xh.view(np.uint64))
    np.abs(x, out=xl)
    kept &= (xl >= 2.0**-450) & (xl <= 2.0**500)
    kept |= x == 0.0
    return kept


def square(a):
    """Element-wise ``x ** 2`` with the bits of Python's float power (libm's
    ``pow``), as a float64 array; ``inf`` past overflow."""
    with np.errstate(all="ignore"):  # nan, inf and overflow take pow
        return _blocked(np.asarray(a, np.float64), SQUARE_BLOCK,
                        _square_is_xx if _premises()[0] else None, 2.0)


def root_square_is_abs(d):
    """Where ``pow(pow(x, 2.0), 0.5)`` is ``d = |x|``, element-wise: d = 0,
    and 2^-511 <= d < 2^511 not a power of two; nowhere without the premise."""
    ok = (d >= 2.0**-511) & (d < 2.0**511)
    ok &= (d.view(np.uint64) & _SIGNIFICAND) != 0
    ok |= d == 0.0
    return ok & _premises()[0]


def roots(squares, d=None):
    """libm's ``pow(s, 0.5)`` of each s in the array ``squares()``. Given the
    |x| whose ``square`` is s as the array ``d``, that is d on its
    ``root_square_is_abs`` set; only the others call ``squares``."""
    if d is None:
        return _blocked(squares(), SQUARE_BLOCK, None, 0.5)
    slow = ~root_square_is_abs(d)
    if slow.any():
        d[slow] = _per_value(squares()[slow].tolist(), 0.5)
    return d
