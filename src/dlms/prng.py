"""Portable seeded random source: SplitMix64 with Box-Muller Gaussians.

Everything downstream (signal synthesis, ensemble seeding) draws from
these streams, so a fixed seed gives a bit-identical simulation on any
platform with IEEE-754 doubles and the same libm.

The Box-Muller radii need libm's ``log`` of each uniform, which ``numpy.log``
does not give (its SIMD code differs in the last bit on some CPUs).
``_logs`` calls ``log`` only where its stated accuracy leaves the result
open. glibc's ``log`` (since 2.28, Arm's optimized-routines code) states a
worst-case error of 0.519 ULP, so a double whose neighbours both lie more
than 0.519 ulp from the exact logarithm is the result. With an x87 long
double (64-bit significand), ``L = logl(u)`` rounds to the double ``d``,
and 2 units in L's last place are 2^-10 ulp(d); the argument allows logl
that error (the largest measured on 208k of the stream's uniforms was 0.81
of a unit). Where ``|L - d| <= 0.47 ulp(d)`` and d is neither zero nor a
power of two, L and the exact logarithm lie in d's binade, the exact
logarithm is within 0.47 + 2^-10 < 0.481 ulp of d, and each neighbour of d
is more than 0.519 ulp from it, so ``log`` returns d. The largest error of
glibc 2.36's ``log`` measured against ``logl`` on 8M of the stream's
uniforms was 0.517 ulp. The other values, about one in sixteen, call
``log`` one at a time. The premises are checked once per process
(``_logl_fixes_log``); without them every value calls ``log``.
``tests/oracle.py`` keeps per-value ``math.log`` as the reference, and
``tests/test_log_bits.py`` compares ``_logs`` bit for bit with it.
"""

import math
import os
from functools import cache

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 1.0 / (1 << 53)

_EXPONENT, _SIGNIFICAND = 0x7FF0000000000000, (1 << 52) - 1
_LOG_CUT = 0.47 * 2.0**-52  # times 2^e, d's binade: 0.47 ulp(d)
# values a block of ``_logs``: 128 KB of buffers, and 64 KB for numpy's cast
_LOG_BLOCK = 1 << 12


def _mix(z):
    """SplitMix64 finalizer of a Python int, or in place of a uint64 array."""
    z ^= z >> 30
    z *= _MIX1
    z &= _MASK64
    z ^= z >> 27
    z *= _MIX2
    z &= _MASK64
    z ^= z >> 31
    return z


def derive_seed(base, index):
    """Derive a child seed from (base, index) by SplitMix64 mixing.

    The child seed is the (index+1)-th SplitMix64 output of a stream seeded
    with ``base``, mix(base + (index+1)*gamma). Used for per-run, per-agent
    ensemble streams.
    """
    if index < 0:
        raise ConfigError(f"negative stream index: {index}")
    return _mix((base + (index + 1) * _GAMMA) & _MASK64)


@cache
def _logl_fixes_log():
    """Whether ``_logs`` may round ``logl``: glibc 2.28 or later, whose
    ``log`` states 0.519 ULP, and a long double of 64-bit significand."""
    try:
        name, version = os.confstr("CS_GNU_LIBC_VERSION").split()
        glibc = name == "glibc" and tuple(map(int, version.split(".")[:2])) >= (2, 28)
    except (AttributeError, ValueError, OSError):  # no confstr, not glibc, no version
        return False
    return glibc and np.finfo(np.longdouble).nmant == 63


def _libm_logs(values):
    """``math.log`` of each float in the list ``values``, as an array."""
    return np.fromiter(map(math.log, values), np.float64, len(values))


def _logs(u):
    """``math.log`` of each value of the float64 array ``u`` (in (0, 1]), as
    a flat array: ``logl`` rounded to double where it fixes libm's bits (see
    the module docstring), ``_libm_logs`` elsewhere."""
    u = u.ravel()
    if not _logl_fixes_log():
        return _libm_logs(u.tolist())
    out = np.empty(u.size)
    size = min(u.size, _LOG_BLOCK)
    buffers = np.empty(size, np.longdouble), np.empty(size), np.empty(size, np.uint64)
    for i in range(0, u.size, _LOG_BLOCK):
        v, d = u[i:i + _LOG_BLOCK], out[i:i + _LOG_BLOCK]
        logl, lo, mask = (b[:v.size] for b in buffers)
        logl[...] = v
        d[...] = np.log(logl, out=logl)
        logl -= d
        lo[...] = logl  # exact: logl's bits below d's last place
        bits = d.view(np.uint64)
        cut = np.bitwise_and(bits, _EXPONENT, out=mask).view(np.float64)
        cut *= _LOG_CUT
        slow = np.abs(lo, out=lo) > cut
        slow |= np.bitwise_and(bits, _SIGNIFICAND, out=mask) == 0  # zero or a power of two
        if slow.any():
            d[slow] = _libm_logs(v[slow].tolist())
    return out


def gaussian_block(seeds, count, start=0):
    """The ``count`` standard Gaussians after the first ``start`` of each seed's stream.

    Returns a float64 array of shape [len(seeds), count]. ``start`` must be
    even, so that the block starts on a Box-Muller pair; ValueError if not.
    Output k of a stream is mix(seed + k*gamma), uniform k is
    ((output_k >> 11) + 1) / 2^53 (in (0, 1], so the logarithm is finite),
    and uniforms 2j-1 and 2j give Gaussians 2j-1 and 2j as r*cos(2*pi*u_2j)
    and r*sin(2*pi*u_2j), with r = sqrt(-2 log u_2j-1). Its temporaries are
    a few times the output, so callers bound ``len(seeds) * count``. The
    logarithm has the bits of libm's ``log`` (``_logs``), because
    ``numpy.log`` is not always correctly rounded and then differs from libm
    in the last bit; numpy's cos, sin and sqrt agree with libm.
    """
    if start % 2:
        raise ValueError(f"gaussian_block start must be even, got start={start}")
    pairs = (count + 1) // 2
    out = np.empty((len(seeds), 2 * pairs))
    steps = np.arange(start + 1, start + 2 * pairs + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = _mix(np.asarray(seeds, dtype=np.uint64)[:, None] + steps)
    z >>= np.uint64(11)
    z += np.uint64(1)
    u = z.astype(np.float64) * _INV_2_53
    u1, u2 = u[:, 0::2], u[:, 1::2]
    r = np.sqrt(-2.0 * _logs(u1).reshape(u1.shape))
    theta = _TWO_PI * u2
    np.multiply(r, np.cos(theta), out=out[:, 0::2])
    np.multiply(r, np.sin(theta), out=out[:, 1::2])
    return out[:, :count]
