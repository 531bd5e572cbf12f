"""``prng._logs``, the Box-Muller logarithms, against libm's ``log``, one
call per value, bit for bit.

``_logs`` rounds x87 ``logl`` to double and calls ``log`` only where glibc's
stated 0.519-ULP accuracy leaves the result open (see the ``prng``
docstring). These tests compare it with per-value ``math.log`` on seeded
uniforms of the stream's form ``k 2^-53``, the uniforms next to 0 and 1,
every power of two down to 2^-53, and uniforms whose long-double residual
lies near the 0.47-ulp cut, and check which values it hands to ``log``.
The argument rests on the C library's ``log`` and ``logl``, so a failure
names the C library.
"""

import math
import os
import platform
from types import SimpleNamespace

import numpy as np
import pytest

from dlms import prng
from dlms.prng import _logs, gaussian_block
from oracle import RandomStream
from test_golden import REDUCED, _digests
from test_pinned_outputs import LONG_HORIZON, LONG_HORIZON_DIGESTS


def _libc():
    try:
        confstr = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        confstr = None
    return (f"C library {platform.libc_ver()}, CS_GNU_LIBC_VERSION {confstr!r}, "
            f"long double of {np.finfo(np.longdouble).nmant + 1}-bit significand")


def _bits(values):
    return np.asarray(values, np.float64).view(np.uint64)


def _uniforms(k):
    """``k 2^-53``, exactly, for integers 1 <= k <= 2^53: the stream's uniforms."""
    return np.asarray(k, np.uint64).astype(np.float64) * 2.0**-53


def _residual_ulps(u):
    """|logl(u) - d| in ulps of d, with d logl(u) rounded to double; ulp(d)
    from ``np.spacing``, independent of ``_logs``'s exponent mask."""
    logl = np.log(u.astype(np.longdouble))
    d = logl.astype(np.float64)
    return d, np.abs((logl - d).astype(np.float64)) / np.abs(np.spacing(d))


def _recording(monkeypatch):
    """The values ``_logs`` hands to ``_libm_logs``, as they come."""
    called, libm_logs = [], prng._libm_logs

    def recorded(values):
        called.extend(values)
        return libm_logs(values)
    monkeypatch.setattr(prng, "_libm_logs", recorded)
    return called


def _check(u, monkeypatch):
    """_logs(u) is per-value ``math.log``, and calls it on exactly the
    values off the stated set: d zero, a power of two, or more than 0.47
    ulp from logl. Returns the number of values it called ``log`` on."""
    u = np.asarray(u, np.float64)
    want = np.fromiter(map(math.log, u.tolist()), np.float64, u.size)
    called = _recording(monkeypatch)
    got = _logs(u)
    differ = np.flatnonzero(_bits(got) != _bits(want))
    if differ.size:
        i = differ[0]
        pytest.fail(f"_logs differs from per-value log on {differ.size} of {u.size} "
                    f"values, first at u = {u[i]!r}: {got[i]!r} != {want[i]!r}; {_libc()}")
    d, ratio = _residual_ulps(u)
    stated = (ratio <= 0.47) & (np.abs(np.frexp(d)[0]) != 0.5) & (d != 0.0)
    off = u[~stated] if prng._logl_fixes_log() else u
    assert _bits(called).tolist() == _bits(off).tolist()
    return len(called)


def test_seeded_uniforms(monkeypatch):
    """2^21 seeded uniforms of the stream's form. The number handed to
    ``log`` is pinned: a looser cut or a missing power-of-two test calls it
    on fewer."""
    rng = np.random.default_rng(20250127)
    u = _uniforms(rng.integers(1, (1 << 53) + 1, 1 << 21, dtype=np.uint64))
    called = _check(u, monkeypatch)
    assert called == (126_088 if prng._logl_fixes_log() else u.size), _libc()


def test_uniforms_next_to_zero_and_one(monkeypatch):
    """``k 2^-53`` and ``1 - k 2^-53`` for 1 <= k < 2^16: the smallest
    uniforms, and the logarithms nearest 0, many of them near a power of two."""
    k = np.arange(1, 1 << 16)
    _check(np.concatenate([_uniforms(k), 1.0 - _uniforms(k)]), monkeypatch)


def test_powers_of_two(monkeypatch):
    """u = 1 (log 0) and every power of two down to 2^-53, the stream's smallest."""
    assert _check(np.ldexp(1.0, -np.arange(54)), monkeypatch) >= 1


def test_residuals_near_the_cut(monkeypatch):
    """Uniforms whose residual |logl - d| lies within 2^-8 ulp of the
    0.47-ulp cut, on either side, found among 2^20 seeded uniforms."""
    rng = np.random.default_rng(47)
    u = _uniforms(rng.integers(1, (1 << 53) + 1, 1 << 20, dtype=np.uint64))
    ratio = _residual_ulps(u)[1]
    near = np.abs(ratio - 0.47) <= 2.0**-8
    assert (ratio[near] <= 0.47).sum() > 1000 and (ratio[near] > 0.47).sum() > 1000
    _check(u[near], monkeypatch)


@pytest.mark.parametrize("confstr, fast", [
    ("glibc 2.36", True), ("glibc 2.28", True), ("glibc 2.27", False),
    ("glibc 1.99", False), ("glibc", False), ("musl 1.2", False), (None, False)])
def test_detection_needs_glibc_2_28(monkeypatch, confstr, fast):
    monkeypatch.setattr(os, "confstr", lambda name: confstr)
    monkeypatch.setattr(prng.np, "finfo", lambda dtype: SimpleNamespace(nmant=63))
    assert prng._logl_fixes_log.__wrapped__() is fast


def test_detection_needs_a_64_bit_significand(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(prng.np, "finfo", lambda dtype: SimpleNamespace(nmant=52))
    assert prng._logl_fixes_log.__wrapped__() is False


@pytest.fixture
def another_platform(monkeypatch):
    """The detection reports a C library without ``CS_GNU_LIBC_VERSION``, as
    musl and macOS do; each value ``_logs`` takes is counted, and each value
    it hands to ``math.log``."""
    def no_glibc(name):
        raise ValueError("unrecognized configuration name")
    monkeypatch.setattr(os, "confstr", no_glibc)
    prng._logl_fixes_log.cache_clear()
    taken, logs = [], prng._logs

    def counted(u):
        taken.append(u.size)
        return logs(u)
    monkeypatch.setattr(prng, "_logs", counted)
    called = _recording(monkeypatch)
    yield lambda: (sum(taken), len(called))
    prng._logl_fixes_log.cache_clear()


def test_another_platform_calls_log_on_every_value(another_platform):
    """Without the premises the stream, table1's golden and long_horizon's
    pinned CSV digests keep their bits, each logarithm from ``math.log``."""
    seeds = [0, 42, (1 << 64) - 1]
    streams = [RandomStream(seed) for seed in seeds]
    draws = [[s.next_gaussian() for _ in range(8191)] for s in streams]
    assert repr(gaussian_block(seeds, 8191).tolist()) == repr(draws)
    assert another_platform() == (3 * 4096, 3 * 4096)


def test_another_platform_keeps_the_goldens(another_platform, tmp_path):
    assert _digests(tmp_path, "table1", "--ensemble", "4", "--iterations", "250") \
        == REDUCED["table1"]
    assert _digests(tmp_path, str(LONG_HORIZON), "--ensemble", "3", "--iterations", "300") \
        == LONG_HORIZON_DIGESTS
    taken, called = another_platform()
    assert taken == called > 0
    assert not prng._logl_fixes_log()
