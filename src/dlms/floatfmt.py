"""The bytes of ``repr(float(v))`` for a whole float64 array at once.

``repr`` prints the shortest decimal that reads back as the same double,
the closest one among equally short candidates. Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020) finds it with integer
arithmetic: this is Giulietti's ``DoubleToDecimal.toDecimal`` on numpy
``uint64`` arrays, 128-bit products done on 32-bit limbs, with the three
``rop`` calls of the interval ends derived from one product. The digits
(trailing zeros dropped) are laid out as ``repr`` does, with the point after
digit decpt: positionally when -4 < decpt <= 16, with ``.0`` after a whole
number (``0.0001``, ``123.0``, ``-0.0``), else as ``d.ddde+XX`` with at least
two exponent digits (``1e-05``, ``1.5e+300``). Each value gets SLOTS bytes
holding all a layout may need: slots 0-7 a prefix that ends at slot 7 (the
comma that precedes a CSV field, ``-``, and ``0.`` to ``0.000``), 8-25 the
17 digits with the point after digit decpt, or after the first digit in
the exponent form (none when decpt <= 0), and 26-31 ``e`` and the exponent,
ending at slot 31. A mask of the slots its layout keeps, at most two runs
of them, is gathered from a table by sign, digit count and layout.
Subnormals, infinities and nans are left to the caller, to format with
``repr``.
"""

import numpy as np

SLOTS = 32

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_K_MIN, _DECPT_MIN = -324, -323
_LAYOUTS = 22  # decpt -3..16, then the exponent forms with 2 and 3 digits


def _words(b):
    """Bytes, a multiple of 8 to a row, as the row's little-endian words."""
    return np.ascontiguousarray(b, dtype=np.uint8).view(np.uint64)


def _tables():
    # k and h by i = 2 * biased exponent, + 1 where the interval below
    # c = 2^52 is the narrower; floors of logarithms as in Giulietti's MathUtils
    bq = np.arange(2048)[:, None]
    q = np.maximum(bq, 1) - 1075  # subnormals, infinities, nans: any entry
    narrow = (bq > 1) & (np.arange(2) == 1)
    k = ((q * 661_971_961_083 - narrow * 274_743_187_321) >> 41).ravel()
    h = (q + (-k.reshape(-1, 2) * 913_124_641_741 >> 38) + 2).astype(np.uint64).ravel()
    g = []  # floor(10^-k 2^-r) + 1 in [2^125, 2^126), as 63-bit halves, by k - _K_MIN
    for e in range(-_K_MIN, -293, -1):  # e = -k, k up to 292
        r = (e * 913_124_641_741 >> 38) - 125
        if e < 0:
            v = (1 << -r) // 10**-e + 1
        else:  # a shift, not a division
            v = (10**e >> r if r >= 0 else 10**e << -r) + 1
        g.append([v >> 63, v & (2**63 - 1)])
    g = np.array(g, dtype=np.uint64)
    g1, g0 = g[k - _K_MIN].T  # by i

    # g << s as its bits from 127 on, its bits 64-126 and its low 64 bits:
    # 2 (g << h) for the upper end, (1 + regular) (g << h) for the lower one
    def shifted(s):
        return [g1 >> (_U(64) - s), ((g1 << (s - _U(1))) + (g0 >> (_U(64) - s))) & _M63,
                g0 << s]
    ends = shifted(h + _U(1)) + shifted(h + _U(1) - narrow.ravel().astype(np.uint64))
    g1, g0 = g.T  # by k - _K_MIN, as the kernel gathers them
    g = [g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32, g1, g0]

    # a four-digit group as its four ASCII digits, in the low and in the
    # high half of a word; and the digits up to its last nonzero one counted
    # from the first digit of a value, for groups 1-4
    digits = np.zeros((10000, 8), dtype=np.uint8)
    digits[:, :4] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    ascii4 = _words(digits | np.uint8(0x30) * (np.arange(8) < 4)).ravel()
    last = np.where(digits[:, 3::-1] != 0, np.arange(4, 0, -1, dtype=np.int8), 0).max(axis=1)
    span = np.where(last > 0, 4 * np.arange(4, dtype=np.int8)[:, None] + last, 0)

    # by decpt - _DECPT_MIN: the layout; then for slots 8-31 the point, the
    # exponent, the digit slots that move up a slot for the point, and how
    # far digit 17 moves (the point is at slot 8 + decpt, or 9, or none)
    decpt = np.arange(_DECPT_MIN, 311)
    e = abs(decpt - 1)
    positional = (decpt > -4) & (decpt <= 16)
    layout = np.where(positional, decpt + 3, 20 + (e >= 100))
    point = 8 + np.where(positional, np.where(decpt > 0, decpt, 99), 1)
    slot = np.arange(SLOTS)
    exponent = np.stack([0x65 + 0 * e, np.where(decpt < 1, 0x2D, 0x2B), 0x30 + e // 100,
                         0x30 + e // 10 % 10, 0x30 + e % 10], axis=1)
    two = e < 100  # e+XX from slot 28, e+XXX from slot 27
    exponent[two, 1:3] = exponent[two, :2]
    exponent[two, 0] = 0
    marks = np.where(slot == point[:, None], 0x2E, 0)
    marks[~positional, -5:] = exponent[~positional]
    moved = np.where((slot >= point[:, None]) & (slot < 24), 0xFF, 0)
    moves = np.concatenate([_words(moved)[:, 1:3], _words(marks)[:, 1:],
                            np.where(point < 25, 8, 0).astype(np.uint64)[:, None]], axis=1)

    # by sign and layout: the prefix, a comma, the sign and then "0." and
    # -decpt zeros from slot z to 7 when decpt <= 0; then the masks by digit
    # count, sign and layout
    sign, lay = np.arange(2)[:, None, None], np.arange(_LAYOUTS)[None, :, None]
    z = np.where(lay < 4, lay + 3, 8)
    start = z - 1 - sign
    head = slot[:8]
    prefix = np.select([head == start, head == z - 1, head == z, head == z + 1, head > z + 1],
                       [0x2C, 0x2D, 0x30, 0x2E, 0x30], 0)
    n = np.arange(18)[:, None, None, None]  # n = 0 is not used
    end = np.where(lay < 4, 8 + n, np.where(lay < 20, 9 + np.maximum(n, lay - 2),
                                            8 + n + (n > 1)))
    masks = ((slot >= start) & (slot < end)) | ((lay >= 20) & (slot >= 27 + (lay == 20)))
    return (k - _K_MIN, h, g, ends, np.stack([ascii4, ascii4 << _U(32)]), span, layout,
            moves.T.copy(), _words(prefix).ravel(), _words(masks * 0xFF).reshape(-1, SLOTS // 8))


_KI, _H, _G, _ENDS, _ASCII4, _SPAN, _LAYOUT, _MOVES, _PREFIX, _MASKS = _tables()
# by four-digit group: its ASCII digits as a uint32 word, and their mask from the first nonzero
DIGITS4 = _ASCII4[0].view(np.uint32)[::2]
LEADING4 = (np.arange(10**4)[:, None] >= 10 ** np.arange(3, -1, -1)).view(np.uint32)[:, 0]


def _mul_high(ah, al, bh, bl):
    """High 64 bits of a * b from 32-bit limbs; a < 2^63, b < 2^59."""
    cross = ah * bl + al * bh  # < 2^63 + 2^59: no carry out
    return ah * bh + (cross >> _U(32)) + (((cross & _M32) + (al * bl >> _U(32))) >> _U(32))


def _ends(bits):
    """Giulietti's k, vb, vbl and vbr of the normal doubles of ``bits``
    (int64): ``rop`` of g and cb << h, cbl << h and cbr << h.

    cb << h is even, so rop(g, cp) is F >> 63 with the sticky bit of
    F & (2^63 - 1), for F = floor(g cp / 2^64). The ends' products differ
    from g (cb << h) by (1 + regular) (g << h) and 2 (g << h), so their F
    follow from this product's F and low 64 bits."""
    bq, t = (bits >> 52) & 0x7FF, bits & (2**52 - 1)
    i = (bq << 1) | (t == 0)  # entries 2 bq and 2 bq + 1 agree where bq <= 1
    cp = ((t | 2**52) << 2).view(np.uint64) << _H.take(i)  # 4c << h, for c 2^q
    cph, cpl = cp >> _U(32), cp & _M32
    g1h, g1l, g0h, g0l, g1, g0 = _G
    kk = _KI.take(i)  # k - _K_MIN
    z = ((g1.take(kk) * cp) >> _U(1)) + _mul_high(g0h.take(kk), g0l.take(kk), cph, cpl)
    vb = _mul_high(g1h.take(kk), g1l.take(kk), cph, cpl) + (z >> _U(63))
    low, fl = g0.take(kk) * cp, z & _M63  # F is vb 2^63 + fl, g cp is F 2^64 + low
    uq, uh, ul, lq, lh, ll = _ENDS
    mid = fl + uh.take(i) + ((low + ul.take(i)) < low)
    vbr = (vb + uq.take(i) + (mid >> _U(63))) | (((mid & _M63) + _M63) >> _U(63))
    mid = fl - lh.take(i) - (low < ll.take(i))  # below 0 it wraps, setting bit 63
    vbl = (vb - lq.take(i) - (mid >> _U(63))) | (((mid & _M63) + _M63) >> _U(63))
    return kk + _K_MIN, vb | ((fl + _M63) >> _U(63)), vbl, vbr


def _shortest(bits):
    """The shortest decimal f 10^k of each normal double or zero of
    ``bits``, as f padded to 17 digits (0 for a zero) and decpt - _DECPT_MIN."""
    k, vb, vbl, vbr = _ends(bits)
    out = (bits & 1).view(np.uint64)  # c is odd: the interval is open
    vbl += out
    vbr -= out
    # f 10^k is the multiple of 10 in the interval if there is one, else the
    # closer of s = vb >> 2 and s + 1 that are in it, ties to even: s + 1
    # where vb & 7 is 3, 6 or 7
    s4 = vb & ~_U(3)
    p40 = s4 // _U(40) * _U(40)
    upin, wpin = vbl <= p40, p40 + _U(40) <= vbr
    uin, win = vbl <= s4, s4 + _U(4) <= vbr
    f = (s4 >> _U(2)) + np.where(uin, win & (_U(0xC8) >> (vb & _U(7))), 1)
    f = np.where(upin != wpin, (p40 >> _U(2)) + _U(10) * wpin, f)
    short = f < _U(10**16)
    np.putmask(f, short, f * _U(10))  # 17 digits
    d = k + (17 - _DECPT_MIN) - short
    zero = (bits << 1) == 0
    np.putmask(f, zero, 0)
    np.putmask(d, zero, 1 - _DECPT_MIN)
    return f, d


def repr_fields(x, field, mask):
    """Fill ``field`` (uint8) and ``mask`` (bool), both of shape
    ``x.shape + (SLOTS,)`` with a contiguous last axis, so that
    ``field[i][mask[i]]`` is ``b"," + repr(float(x[i])).encode()``. Returns
    the mask of the values left to the caller: subnormals, infinities and
    nans."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    f, d = _shortest(bits)
    # digits 1-8 and 9-16 as four groups of four, then as ASCII words moved
    # up a slot from the point on; digit 17 after them
    head = f // _U(10**9)
    last = f - head * _U(10**9)
    tail = last // _U(10)
    last -= tail * _U(10)
    groups = []
    for digits in (head, tail):
        upper = digits // _U(10000)
        groups += [upper, digits - upper * _U(10000)]
    n = _SPAN[0].take(groups[0])  # digits up to the last nonzero one
    for span, group in zip(_SPAN[1:], groups[1:]):
        np.maximum(n, span.take(group), out=n)
    np.putmask(n, last != 0, 17)
    words = field.view(np.uint64)
    moved1, moved2, mark1, mark2, mark3, shift3 = _MOVES
    w = _ASCII4[0].take(groups[0]) | _ASCII4[1].take(groups[1])
    up = w & moved1.take(d)
    words[..., 1] = w + up * _U(255) + mark1.take(d)  # up << 8 in place of up
    w = _ASCII4[0].take(groups[2]) | _ASCII4[1].take(groups[3])
    carry, up = up >> _U(56), w & moved2.take(d)
    words[..., 2] = w + up * _U(255) + (mark2.take(d) | carry)
    words[..., 3] = mark3.take(d) | (last + _U(0x30)) << shift3.take(d) | up >> _U(56)
    at = (bits < 0) * _LAYOUTS + _LAYOUT.take(d)
    words[..., 0] = _PREFIX.take(at)
    mask.view(np.uint64)[...] = _MASKS.take(n * np.intp(2 * _LAYOUTS) + at, axis=0)
    bq = (bits >> 52) & 0x7FF
    return (bq == 0x7FF) | ((bq == 0) & (bits << 1 != 0))
