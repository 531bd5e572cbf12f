"""Portable seeded random source: SplitMix64 with Box-Muller Gaussians.

Everything downstream (signal synthesis, ensemble seeding) draws from
these streams, so a fixed seed gives a bit-identical simulation on any
platform with IEEE-754 doubles and the same libm.

The Box-Muller radii take libm's ``log`` of each uniform from ``libm.logs``;
``tests/oracle.py`` draws the same stream one value at a time.
"""

import math

import numpy as np

from .errors import ConfigError
from .libm import logs

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 1.0 / (1 << 53)


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
    even, so that the block starts on a Box-Muller pair; ValueError if not.
    Output k of a stream is mix(seed + k*gamma), uniform k is
    ((output_k >> 11) + 1) / 2^53 (in (0, 1], so the logarithm is finite),
    and uniforms 2j-1 and 2j give Gaussians 2j-1 and 2j as r*cos(2*pi*u_2j)
    and r*sin(2*pi*u_2j), with r = sqrt(-2 log u_2j-1). Its temporaries are
    a few times the output, so callers bound ``len(seeds) * count``. The
    logarithm has the bits of libm's ``log`` (``libm.logs``), because
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
    r = np.sqrt(-2.0 * logs(u1))
    theta = _TWO_PI * u2
    np.multiply(r, np.cos(theta), out=out[:, 0::2])
    np.multiply(r, np.sin(theta), out=out[:, 1::2])
    return out[:, :count]
