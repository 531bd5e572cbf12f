"""Portable seeded random source: SplitMix64 with Box-Muller Gaussians.

Everything downstream (signal synthesis, ensemble seeding) draws from
these streams, so a fixed seed gives a bit-identical simulation on any
platform with IEEE-754 doubles and the same libm.
"""

import math

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 1.0 / (1 << 53)

# Most draws gaussian_block computes at once.
_BLOCK_DRAWS = 1 << 16


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


def gaussian_block(seeds, count, start=0):
    """The ``count`` standard Gaussians after the first ``start`` of each seed's stream.

    Returns a float64 array of shape [len(seeds), count]. ``start`` must be
    even, so that the block starts on a Box-Muller pair. Output k of a stream
    is mix(seed + k*gamma), uniform k is ((output_k >> 11) + 1) / 2^53 (in
    (0, 1], so the logarithm is finite), and uniforms 2j-1 and 2j give
    Gaussians 2j-1 and 2j as r*cos(2*pi*u_2j) and r*sin(2*pi*u_2j), with
    r = sqrt(-2 log u_2j-1). The streams are drawn into a preallocated output
    a block of seeds at a time: each block holds at most _BLOCK_DRAWS draws
    (one seed's, if it needs more), which bounds the temporaries. The
    logarithm goes through ``math.log`` one element at a time because
    ``numpy.log`` is not always correctly rounded and then differs from libm
    in the last bit; cos, sin and sqrt agree.
    """
    import numpy as np

    pairs = (count + 1) // 2
    out = np.empty((len(seeds), 2 * pairs))
    seeds = np.asarray(seeds, dtype=np.uint64)[:, None]
    steps = np.arange(start + 1, start + 2 * pairs + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    rows = max(1, _BLOCK_DRAWS // max(1, 2 * pairs))
    for first in range(0, len(seeds), rows):
        z = _mix(seeds[first:first + rows] + steps)
        z >>= np.uint64(11)
        z += np.uint64(1)
        u = z.astype(np.float64) * _INV_2_53
        u1, u2 = u[:, 0::2], u[:, 1::2]
        log_u1 = np.fromiter(map(math.log, u1.ravel().tolist()), np.float64, u1.size)
        r = np.sqrt(-2.0 * log_u1.reshape(u1.shape))
        theta = _TWO_PI * u2
        block = out[first:first + rows]
        np.multiply(r, np.cos(theta), out=block[:, 0::2])
        np.multiply(r, np.sin(theta), out=block[:, 1::2])
    return out[:, :count]
