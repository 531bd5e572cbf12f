"""The bytes of ``repr(float(v))`` for a whole float64 array at once.

``repr`` prints the shortest decimal that reads back as the same double,
the closest one among equally short candidates. Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020) finds it with integer
arithmetic: this is Giulietti's ``DoubleToDecimal.toDecimal`` and ``rop`` on
numpy ``uint64`` arrays, 128-bit products done on 32-bit limbs. The digits
(trailing zeros dropped) are laid out as ``repr`` does, with the point after
digit decpt: positionally when -4 < decpt <= 16, with ``.0`` after a whole
number (``0.0001``, ``123.0``, ``-0.0``), else as ``d.ddde+XX`` with at least
two exponent digits (``1e-05``, ``1.5e+300``). Each value gets SLOTS bytes
holding all a layout may need, in order (0 is left to the caller, 1 ``-``,
2-6 ``0.000``, 7 the first digit, 8-39 ``.`` and a digit in turn, 40-41
``.0``, 43-47 ``e`` and the exponent), and a mask of the slots its layout
keeps, gathered from a table by sign, digit count and layout. Subnormals,
infinities and nans are left to the caller, to format with ``repr``.
"""

import numpy as np

SLOTS = 48

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_K_MIN, _DECPT_MIN = -324, -323
_LAYOUTS = 22  # decpt -3..16, then the exponent forms with 2 and 3 digits


def _tables():
    # k and h by 2 * biased exponent, + 1 where the interval below c = 2^52 is
    # the narrower; floors of logarithms as in Giulietti's MathUtils
    bq = np.arange(2048)[:, None]
    q = np.maximum(bq, 1) - 1075  # subnormals, infinities, nans: any entry
    k = (q * 661_971_961_083 - ((bq > 1) & (np.arange(2) == 1)) * 274_743_187_321) >> 41
    h = (q + (-k * 913_124_641_741 >> 38) + 2).astype(np.uint64)
    g = []  # floor(10^-k 2^-r) + 1 in [2^125, 2^126) as four limbs, by k - _K_MIN
    for e in range(-_K_MIN, -293, -1):  # e = -k, k up to 292
        r = (e * 913_124_641_741 >> 38) - 125
        v = (10 ** max(e, 0) << max(-r, 0)) // (10 ** max(-e, 0) << max(r, 0)) + 1
        g.append([v >> 95, v >> 63 & 0xFFFFFFFF, v >> 32 & 0x7FFFFFFF, v & 0xFFFFFFFF])

    # a four-digit group as four ".d" slot pairs in one word, and the digits
    # up to its last nonzero one counted from the first digit of a value,
    # for groups 1-4 at offsets 0, 10000, 20000 and 30000
    words, last = np.zeros(10000, dtype=np.uint64), np.zeros(10000, dtype=np.int8)
    for j, place in enumerate((1000, 100, 10, 1)):
        digit = np.arange(10000) // place % 10
        words |= ((0x2E | (0x30 + digit) << 8) << 16 * j).astype(np.uint64)
        last[digit != 0] = j + 1
    span = np.concatenate([np.where(last > 0, 1 + 4 * j + last, 0) for j in range(4)])

    # slots 40-47 and the layout, by decpt - _DECPT_MIN
    decpt = np.arange(_DECPT_MIN, 311)
    e = abs(decpt - 1)
    tail = (0x6500302E | np.where(decpt < 1, 0x2D, 0x2B) << 32 | (0x30 + e // 100) << 40
            | (0x30 + e // 10 % 10) << 48 | (0x30 + e % 10) << 56)
    layout = np.where((decpt > -4) & (decpt <= 16), decpt + 3, 20 + (e >= 100))

    masks = np.zeros((2, 17, _LAYOUTS, SLOTS), dtype=bool)
    digits = np.arange(7, 40, 2)
    for sign, n, lay in np.ndindex(masks.shape[:3]):
        kept, n, decpt = masks[sign, n, lay], n + 1, lay - 3
        kept[1] = sign
        if decpt <= 0:  # 0.00ddd
            kept[[2, 3, *range(4, 4 - decpt), *digits[:n]]] = True
        elif lay < 20:  # dd.ddd or ddd00.0
            kept[[*digits[:max(n, decpt)], *([6 + 2 * decpt], [40, 41])[decpt >= n]]] = True
        else:  # d.ddde+XX
            kept[[*digits[:n], *[8] * (n > 1), 43, 44, *[45] * (lay - 20), 46, 47]] = True
    return (k.ravel(), h.ravel(), np.array(g, dtype=np.uint64).T.copy(), words,
            span.astype(np.int8), tail.astype(np.uint64), layout,
            masks.reshape(-1, SLOTS).view(np.uint64))


_K, _H, _G, _GROUP, _SPAN, _TAIL, _LAYOUT, _MASKS = _tables()
_HEAD = np.frombuffer(b"\0-0.000\0", dtype=np.uint64)[0]  # slots 0-7


def _mul_high(ah, al, bh, bl):
    """High 64 bits of a * b from 32-bit limbs; a < 2^63, b < 2^59."""
    cross = ah * bl + al * bh  # < 2^63 + 2^59: no carry out
    return ah * bh + (cross >> _U(32)) + (((cross & _M32) + (al * bl >> _U(32))) >> _U(32))


def _rop(g, cp):
    """Giulietti's rop: the top bits of g cp / 2^127, with a sticky low bit."""
    g1h, g1l, g0h, g0l = g
    cph, cpl = cp >> _U(32), cp & _M32
    z = ((((g1h << _U(32)) | g1l) * cp) >> _U(1)) + _mul_high(g0h, g0l, cph, cpl)
    return (_mul_high(g1h, g1l, cph, cpl) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def repr_fields(x, field, mask):
    """Fill ``field`` (uint8) and ``mask`` (bool), both of shape
    ``x.shape + (SLOTS,)`` with a contiguous last axis, so that
    ``field[i][mask[i]]`` is ``repr(float(x[i])).encode()``. Returns the
    mask of the values left to the caller: subnormals, infinities and nans."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    bq, t = (bits >> 52) & 0x7FF, bits & (2**52 - 1)
    regular = (t != 0) | (bq <= 1)
    i = (bq << 1) | ~regular
    h, k = _H.take(i), _K.take(i)
    g = [limbs.take(k - _K_MIN) for limbs in _G]
    cb = ((t | 2**52) << 2).view(np.uint64)  # 4c for the normal double c 2^q
    out = (cb & _U(4)) != 0  # c is odd: the interval is open
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(1) - regular) << h) + out
    vbr = _rop(g, (cb + _U(2)) << h) - out
    # f 10^k is the multiple of 10 in the interval if there is one, else the
    # closer of s and s + 1 that are in it (ties to even)
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin, wpin = vbl <= sp10 << _U(2), (sp10 + _U(10)) << _U(2) <= vbr
    uin, win = vbl <= s << _U(2), (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    f = np.where(upin != wpin, sp10 + _U(10) * wpin, s + ~pick_s)
    short = f < _U(10**16)
    f[short] *= _U(10)  # 17 digits
    zero = (bits << 1) == 0
    f[zero] = 0
    d = np.where(zero, 1, k + 17 - short) - _DECPT_MIN  # decpt, as a table index
    words = field.view(np.uint64)
    n = np.ones(x.shape, dtype=np.int8)
    for j in (4, 3, 2, 1):
        rest = f // _U(10000)
        group = f - rest * _U(10000)
        words[..., j] = _GROUP.take(group)
        np.maximum(n, _SPAN.take(group + _U(10000 * (j - 1))), out=n)
        f = rest
    words[..., 0] = _HEAD | (f + _U(0x30)) << _U(56)
    words[..., 5] = _TAIL.take(d)
    key = ((bits < 0) * 17 + n - 1) * _LAYOUTS + _LAYOUT.take(d)
    mask.view(np.uint64)[...] = _MASKS.take(key, axis=0)
    return (bq == 0x7FF) | ((bq == 0) & ~zero)
