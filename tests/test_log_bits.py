"""``libm.logs``, the Box-Muller logarithms, against libm's ``log``, one
call per value, bit for bit, and the premises that all of ``libm``'s rules
check.

``logs`` rounds x87 ``logl`` to double and calls ``log`` only where glibc's
stated 0.519-ULP accuracy leaves the result open (see the ``libm``
docstring). These tests compare it with per-value ``math.log`` on seeded
uniforms of the stream's form ``k 2^-53``, the uniforms next to 0 and 1,
every power of two down to 2^-53, and uniforms whose long-double residual
lies near the 0.47-ulp cut, and check which values it hands to ``log``.
The argument rests on the C library's ``log`` and ``logl``, so a failure
names the C library.
"""

import math
import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from dlms import libm, prng
from dlms.libm import logs
from dlms.metrics import EnsembleRecord
from dlms.prng import gaussian_block
from oracle import RandomStream, _libc
from test_golden import REDUCED, _digests
from test_pinned_outputs import LONG_HORIZON, LONG_HORIZON_DIGESTS
from test_pow_bits import _bits


def _uniforms(k):
    """``k 2^-53``, exactly, for integers 1 <= k <= 2^53: the stream's uniforms."""
    return np.asarray(k, np.uint64).astype(np.float64) * 2.0**-53


def _residual_ulps(u):
    """|logl(u) - d| in ulps of d, with d logl(u) rounded to double; ulp(d)
    from ``np.spacing``, independent of ``libm``'s exponent mask."""
    logl = np.log(u.astype(np.longdouble))
    d = logl.astype(np.float64)
    return d, np.abs((logl - d).astype(np.float64)) / np.abs(np.spacing(d))


def _recording(monkeypatch):
    """The values ``libm`` hands to libm one at a time, as they come, by
    function: ``"log"``, or the exponent of ``pow``."""
    called, per_value = {}, libm._per_value

    def recorded(values, y=None):
        called.setdefault("log" if y is None else y, []).extend(values)
        return per_value(values, y)
    monkeypatch.setattr(libm, "_per_value", recorded)
    return called


def _check(u, monkeypatch):
    """logs(u) is per-value ``math.log``, and calls it on exactly the
    values off the stated set: d zero, a power of two, or more than 0.47
    ulp from logl. Returns the number of values it called ``log`` on."""
    u = np.asarray(u, np.float64)
    want = np.fromiter(map(math.log, u.tolist()), np.float64, u.size)
    calls = _recording(monkeypatch)
    got = logs(u)
    called = calls.get("log", [])
    differ = np.flatnonzero(_bits(got) != _bits(want))
    if differ.size:
        i = differ[0]
        pytest.fail(f"logs differs from per-value log on {differ.size} of {u.size} "
                    f"values, first at u = {u[i]!r}: {got[i]!r} != {want[i]!r}; {_libc()}")
    d, ratio = _residual_ulps(u)
    stated = (ratio <= 0.47) & (np.abs(np.frexp(d)[0]) != 0.5) & (d != 0.0)
    off = u[~stated] if libm._premises()[1] else u
    assert _bits(called).tolist() == _bits(off).tolist()
    return len(called)


def test_seeded_uniforms(monkeypatch):
    """2^21 seeded uniforms of the stream's form. The number handed to
    ``log`` is pinned: a looser cut or a missing power-of-two test calls it
    on fewer."""
    rng = np.random.default_rng(20250127)
    u = _uniforms(rng.integers(1, (1 << 53) + 1, 1 << 21, dtype=np.uint64))
    called = _check(u, monkeypatch)
    assert called == (126_088 if libm._premises()[1] else u.size), _libc()


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
    monkeypatch.setattr(libm.np, "finfo", lambda dtype: SimpleNamespace(nmant=63))
    assert libm._premises.__wrapped__() == (fast, fast)


def test_detection_needs_a_64_bit_significand(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(libm.np, "finfo", lambda dtype: SimpleNamespace(nmant=52))
    assert libm._premises.__wrapped__() == (True, False)


def test_a_52_bit_long_double_turns_off_only_the_logarithms(monkeypatch):
    """With glibc but a ``long double`` that is a plain double (52-bit
    stored significand), ``logs`` calls ``log`` on every value, while
    ``square`` and ``root_square_is_abs`` keep the rounding that glibc's
    ``pow`` bound fixes."""
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(libm.np, "finfo", lambda dtype: SimpleNamespace(nmant=52))
    libm._premises.cache_clear()
    try:
        called = _recording(monkeypatch)
        u = np.array([0.25, 0.5, 0.75, 1.0])
        assert _bits(logs(u)).tolist() == _bits([math.log(v) for v in u.tolist()]).tolist()
        x = np.array([1.5, -3.0, 0.0, 7.25])  # each x*x exact, none a power of two
        assert _bits(libm.square(x)).tolist() == _bits(x * x).tolist()
        assert libm.root_square_is_abs(np.abs(x)).all()
        assert {f: len(v) for f, v in called.items()} == {"log": 4}
    finally:
        libm._premises.cache_clear()


@pytest.fixture
def another_platform(monkeypatch):
    """The detection reports a C library without ``CS_GNU_LIBC_VERSION``, as
    musl and macOS do. Yields a function that returns two Counters: the
    values that ``logs`` and ``square`` take, and the values that ``libm``
    hands to libm one at a time, by function (``"log"``, or ``pow``'s
    exponent). ``prng`` binds ``logs`` at import; ``metrics`` looks up
    ``square`` in ``libm`` at each call."""
    def no_glibc(name):
        raise ValueError("unrecognized configuration name")
    monkeypatch.setattr(os, "confstr", no_glibc)
    libm._premises.cache_clear()
    taken = Counter()

    def counted(name, rule):
        def taking(x):
            taken[name] += np.size(x)
            return rule(x)
        return taking
    monkeypatch.setattr(prng, "logs", counted("log", libm.logs))
    monkeypatch.setattr(libm, "square", counted(2.0, libm.square))
    called = _recording(monkeypatch)
    yield lambda: (taken, Counter({f: len(v) for f, v in called.items()}))
    libm._premises.cache_clear()


def test_another_platform_calls_log_on_every_value(another_platform):
    """Without the premises the stream, table1's golden and long_horizon's
    pinned CSV digests keep their bits, each logarithm from ``math.log``."""
    seeds = [0, 42, (1 << 64) - 1]
    streams = [RandomStream(seed) for seed in seeds]
    draws = [[s.next_gaussian() for _ in range(8191)] for s in streams]
    assert repr(gaussian_block(seeds, 8191).tolist()) == repr(draws)
    assert another_platform() == ({"log": 3 * 4096}, {"log": 3 * 4096})


def test_another_platform_calls_pow_on_every_value(another_platform):
    """Without the premises every square and every distance of the
    trajectory CSV, at M = 1 and M > 1, calls ``pow``; the values, 1.5 and
    3 apart from the target, are ones the rounding would fix."""
    for m in (1, 3):
        ws = np.full((2, 5, 4, m), 1.5)
        ws[1] = 3.0
        record = EnsembleRecord((0.0,) * m, ["a", "b", "c", "d"], ws, np.zeros((2, 5, 4)))
        dist = np.array([record.dist_opt(r) for r in range(2)])
        want = [pow(s, 0.5) for s in record.sq_dist.ravel().tolist()]
        assert _bits(dist.ravel()).tolist() == _bits(want).tolist()
    assert libm.square(np.array([1.5, 3.0])).tolist() == [2.25, 9.0]
    # M = 1: sq_dist squares 40 values; M = 3: 120
    assert another_platform() == ({2.0: 40 + 120 + 2}, {2.0: 40 + 120 + 2, 0.5: 80})


def test_another_platform_keeps_the_goldens(another_platform, tmp_path):
    assert _digests(tmp_path, "table1", "--ensemble", "4", "--iterations", "250") \
        == REDUCED["table1"]
    assert _digests(tmp_path, str(LONG_HORIZON), "--ensemble", "3", "--iterations", "300") \
        == LONG_HORIZON_DIGESTS
    taken, called = another_platform()
    assert taken == {f: called[f] for f in ("log", 2.0)} and min(called.values()) > 0
    assert called[0.5] > 0
    assert libm._premises() == (False, False)
