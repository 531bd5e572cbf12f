"""Ensemble records and their reductions: the ensemble sums behind the MSD and
the ensemble mean, steady-state variance, convergence and crossing detection.

Every reduction adds in run order and left to right along iterations and weight
components, and squares distances to the target with the bits of Python's
float power (the C library's ``pow``). numpy's own sums add pairwise and
Python 3.12's ``sum`` compensates; numpy's ``x**2`` and ``pow`` are ``x*x``,
which rounds differently from libm's ``pow`` (on about 1,600 of 2M random
doubles with glibc 2.36). Any of them would change the last bit of the
reported metrics.
``cumsum`` (numpy's ``add.accumulate``) does add in order, and
0.0 + (v0 + v1 + ...) is the fold 0.0 + v0 + v1 + ... bit for bit, signed
zeros included, so the steady-state window, thousands of iterations long, is
summed as 0.0 + its ``cumsum``'s last entry in one call per run.

``square`` and ``EnsembleRecord.dist_opt`` call ``pow`` only where its
stated accuracy leaves the result open. glibc's ``pow`` (since 2.28, Arm's
optimized-routines code) states a worst-case error of 0.54 ULP, so a double
whose neighbours both lie more than 0.54 ulp from the exact value is the
result. Two arguments use this:

- ``pow(x, 2.0)``. Dekker's exact product (T. J. Dekker, Numer. Math. 18,
  1971) gives ``lo = x² - hi`` with ``hi = x*x``, exactly for 2^-450 <= |x|
  <= 2^500. Where ``|lo| <= 0.4 ulp(hi)`` and ``hi`` is not a power of two,
  x² lies in ``hi``'s binade and each neighbour of ``hi`` is at least 0.6
  ulp from x², so ``pow`` returns ``hi``.
- ``pow(pow(x, 2.0), 0.5)``. For 2^-511 <= |x| < 2^511, |x| not a power of
  two, ``s = pow(x, 2.0)`` is normal and within 0.54 ulp(x²) of x²: a
  relative error of at most 0.54 * 2^-52 / m² (m² < 2) or 1.08 * 2^-52 / m²
  (m² >= 2), m the significand of |x|. So √s lies within 0.27/m or 0.54/m
  ulp(x), at most 0.382 ulp(x), of |x|, in |x|'s binade, and ``pow(s, 0.5)``,
  within 0.54 ulp of √s, is within 0.93 ulp of |x|: it is |x|.

Other values, about a fifth of the squares (their ``lo`` near half an ulp),
take ``pow`` one value at a time, a block of values at once.
``tests/oracle.py`` keeps per-value ``pow`` as the reference, and
``tests/test_pow_bits.py`` compares both bit for bit with it on millions of
values, binade and range edges included.
numpy is imported inside the functions, so loading a scenario stays
numpy-free.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import repeat
from operator import add

from .errors import ConfigError

STEADY_STATE_WINDOW = 0.2
CONVERGENCE_BAND_FRACTION = 0.1


def sum_in_order(values, axis=0, start=0.0):
    """start + v[0] + v[1] + ... along ``axis``, one addition at a time.

    Takes any iterable of floats, or an array summed along ``axis``. A fold
    over consecutive pieces passes each piece's sum as the next ``start``:
    the additions and their order are those of one fold over the whole.
    """
    if axis:
        import numpy as np

        values = np.moveaxis(values, axis, 0)
    return reduce(add, values, start)


# glibc's pow is within 0.54 ULP; squares within 0.4 ulp of x*x return it
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into 26-bit halves
_EXPONENT, _SIGNIFICAND = 0x7FF0000000000000, (1 << 52) - 1
_LO_BOUND = 0.4 * 2.0**-52  # times 2^e, hi's binade: 0.4 ulp(hi)
# values squared at a time, in temporaries of 64 KB: one block covers a run
# of table1 at full speed, while a 16,000-value steady-state window squared
# at once raises long_horizon's peak RSS by 0.1-0.2 MB
_SQUARE_BLOCK = 1 << 13


def _pow2(x):
    try:
        return x ** 2
    except OverflowError:  # where libm's pow returns inf
        return math.inf


def _squares(values):
    """``pow(v, 2.0)`` of each float in the list ``values``, as an array;
    ``inf`` past overflow."""
    import numpy as np

    try:
        return np.fromiter(map(pow, values, repeat(2.0)), np.float64, len(values))
    except OverflowError:
        return np.fromiter(map(_pow2, values), np.float64, len(values))


def _pow_is_hi(x, hi):
    """Where libm's ``pow(x, 2.0)`` is ``hi = x*x``: x = 0, and 2^-450 <= |x|
    <= 2^500 with the exact square within 0.4 ulp of ``hi``, not a power of
    two (see the module docstring). Three temporaries of x's size."""
    import numpy as np

    xh = x * _SPLIT  # x = xh + xl, exactly
    xl = np.subtract(xh, x)
    np.subtract(xh, xl, out=xh)
    np.subtract(x, xh, out=xl)
    lo = xh * xh  # lo = ((xh*xh - hi) + 2 xh*xl) + xl*xl, each step exact
    lo -= hi
    np.multiply(xh, xl, out=xh)
    xh += xh
    lo += xh
    np.multiply(xl, xl, out=xl)
    lo += xl
    bits = hi.view(np.uint64)
    ulp = np.bitwise_and(bits, _EXPONENT, out=xh.view(np.uint64)).view(np.float64)
    ulp *= _LO_BOUND
    fast = np.abs(lo, out=lo) <= ulp
    fast &= np.bitwise_and(bits, _SIGNIFICAND, out=ulp.view(np.uint64)) != 0
    np.abs(x, out=xl)
    fast &= (xl >= 2.0**-450) & (xl <= 2.0**500)
    fast |= x == 0.0
    return fast


def square(a):
    """Element-wise ``x ** 2`` with the bits of Python's float power (libm's
    ``pow``); ``inf`` past overflow.

    That is ``x*x`` wherever ``_pow_is_hi`` shows it, about four values in
    five, ``+0.0`` for ``±0`` among them. The others (nan, inf, |x| outside
    [2^-450, 2^500], squares near a rounding midpoint or a power of two) are
    squared with ``pow`` one at a time. ``_SQUARE_BLOCK`` values at a time,
    so the temporaries stay small whatever the size of ``a``.
    """
    import numpy as np

    x = np.asarray(a, np.float64)
    out = np.empty(x.shape)
    xs, his = x.reshape(-1), out.reshape(-1)
    with np.errstate(all="ignore"):  # nan, inf and overflow take pow
        for i in range(0, x.size, _SQUARE_BLOCK):
            v, hi = xs[i:i + _SQUARE_BLOCK], his[i:i + _SQUARE_BLOCK]
            np.multiply(v, v, out=hi)
            slow = ~_pow_is_hi(v, hi)
            if slow.any():
                hi[slow] = _squares(v[slow].tolist())
    return out


def root_square_is_abs(d):
    """Where ``pow(pow(x, 2.0), 0.5)`` is ``d = |x|``, element-wise: d = 0,
    and 2^-511 <= d < 2^511 not a power of two (see the module docstring)."""
    import numpy as np

    ok = (d >= 2.0**-511) & (d < 2.0**511)
    ok &= (d.view(np.uint64) & _SIGNIFICAND) != 0
    ok |= d == 0.0
    return ok


@dataclass(eq=False)
class EnsembleRecord:
    """Trajectories of a set of runs of one scenario, as numpy arrays.

    ``ws[r, i, a]`` is the estimate (M components) of agent ``agents[a]``
    after iteration i+1 of run r; ``es[r, i, a]`` is its prediction
    error. Adaptive agents come first, in scenario order, then the averaging
    agents, whose error is 0.0.
    """

    w_opt: tuple
    agents: list
    ws: object  # float64 [R, L, A, M]
    es: object  # float64 [R, L, A]; None in the ensemble mean

    def __len__(self):
        return len(self.ws)

    @property
    def iterations(self):
        return self.ws.shape[1]

    def w(self, agent):
        """Estimates [R, L, M] of one agent."""
        return self.ws[:, :, self.agents.index(agent)]

    def head(self, k):
        """Record of the first k runs."""
        return replace(self, ws=self.ws[:k], es=self.es[:k])

    @cached_property
    def sq_dist(self):
        """Squared distance |w - w_opt|^2 per run, iteration and agent [R, L, A].

        Filled one run at a time, so the temporaries and the Python floats
        that ``square`` passes through are one run's size, not the records'.
        Finite squares that sum past the largest double give ``inf``, silently
        as an overflowing square does.
        """
        import numpy as np

        w_opt = np.array(self.w_opt)
        out = np.empty(self.ws.shape[:-1])
        with np.errstate(over="ignore"):
            for r, w in enumerate(self.ws):
                out[r] = sum_in_order(square(w - w_opt), axis=-1)
        return out

    def dist(self, agent):
        """Distance |w - w_opt| of one agent [R, L]: ``sqrt``, not ``dist_opt``'s ``pow``."""
        import numpy as np

        return np.sqrt(self.sq_dist[:, :, self.agents.index(agent)])

    def dist_opt(self, r):
        """Distances [L, A] of run r in the CSV: ``pow(sq_dist, 0.5)``, not ``dist``'s
        ``sqrt`` (they differ on ~1 in 1,100 doubles); |w - w_opt| at M = 1 where
        ``root_square_is_abs`` says so. Only the others take ``pow`` and read ``sq_dist``."""
        if len(self.w_opt) > 1:
            d = self.sq_dist[r].copy()
            d.flat = list(map(pow, d.ravel().tolist(), repeat(0.5)))
            return d
        d = abs(self.ws[r, :, :, 0] - self.w_opt[0])
        slow = ~root_square_is_abs(d)
        if slow.any():
            d[slow] = list(map(pow, self.sq_dist[r][slow].tolist(), repeat(0.5)))
        return d


def steady_state_start(length):
    """The index of the first iteration of the steady-state window, the final
    STEADY_STATE_WINDOW of a horizon of ``length`` iterations."""
    return length - math.ceil(STEADY_STATE_WINDOW * length)


def steady_state_variance(record, agent, horizon=None):
    """Sample variance of the estimate over the final STEADY_STATE_WINDOW of
    the horizon, one value per run.

    The record holds the horizon's last iterations, all of them unless
    ``horizon`` says how many there are. For vector weights the
    per-component sample variances are summed. The window is reduced one run
    at a time, so its temporaries are one run's.
    """
    import numpy as np

    length = record.iterations if horizon is None else horizon
    n = length - steady_state_start(length)
    if n < 2:
        # ceil(STEADY_STATE_WINDOW * length) >= 2 from this length on
        minimum = math.floor(1 / STEADY_STATE_WINDOW) + 1
        raise ConfigError(f"steady-state variance needs iterations >= {minimum}, "
                          f"got {length}")
    windows = record.w(agent)[:, record.iterations - n:]
    var = np.empty((len(record), windows.shape[-1]))
    for r, window in enumerate(windows):
        mean = (0.0 + window.cumsum(axis=0)[-1]) / n
        var[r] = (0.0 + square(window - mean).cumsum(axis=0)[-1]) / (n - 1)
    return sum_in_order(var, axis=-1).tolist()


class EnsembleSums:
    """Sums over the runs of an ensemble, added a record of consecutive runs
    at a time in run order: of the squared distances, of the estimates, and
    per agent of the runs' steady-state variances (None once a record's
    horizon is too short for the window).

    Each sum continues start + v0 + v1 + ... from one record to the next, so
    however the runs are grouped into records, the sums are bit for bit
    those over one record of every run.
    """

    def __init__(self):
        self.runs = 0
        self.sq_dist = self.ws = 0.0
        self.steady_state_var = {}

    def add(self, record):
        self.w_opt, self.agents = record.w_opt, record.agents
        self.runs += len(record)
        self.sq_dist = sum_in_order(record.sq_dist, start=self.sq_dist)
        self.ws = sum_in_order(record.ws, start=self.ws)
        if self.steady_state_var is not None:
            try:
                self.steady_state_var = {
                    aid: sum_in_order(steady_state_variance(record, aid),
                                      start=self.steady_state_var.get(aid, 0.0))
                    for aid in record.agents}
            except ConfigError:
                self.steady_state_var = None
        return self

    def _mean(self, total):
        if not self.runs:
            raise ConfigError("empty ensemble")
        return total / self.runs

    def msd(self, agent):
        """Ensemble-mean squared distance |w(i) - w_opt|^2, one value per iteration."""
        return self._mean(self.sq_dist)[:, self.agents.index(agent)].tolist()

    def mean(self):
        """Ensemble-mean estimates, as a one-run record for the detectors."""
        return EnsembleRecord(self.w_opt, self.agents, ws=self._mean(self.ws)[None], es=None)


def first_iteration(hits, never):
    """Per run, the first iteration whose ``hits`` [R, L] entry is True, or ``never``."""
    import numpy as np

    return np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, never)


def convergence_iteration(record, agent, band, start=0):
    """Per run, the smallest i such that |w(j) - w_opt| <= band for every j >= i.

    A run's entry is iterations + 1 when its trajectory is not inside the band
    at the horizon end (never converged, or left the band again). A record of
    the iterations from start + 1 on gives one past a run's last iteration
    outside the band, or 1 if none is, so the maximum over consecutive
    records is the whole horizon's.
    """
    if band <= 0:
        raise ConfigError(f"convergence band must be positive, got {band}")
    length = start + record.iterations
    # one past the last iteration outside the band, counted from the end
    return length + 2 - first_iteration(record.dist(agent)[:, ::-1] > band, length + 1)


def crossing_iteration(record, agent_p, agent_q):
    """Per run, the first iteration where the distance-to-optimum ordering of
    p and q flips.

    Defined for scalar weights only. A run's entry is iterations + 1 if the
    agents start tied or the initial ordering never reverses.
    """
    if len(record.w_opt) != 1:
        raise ConfigError("crossing detection requires scalar weights (M=1)")
    import numpy as np

    with np.errstate(invalid="ignore"):  # distances past overflow are inf
        diff = record.dist(agent_p) - record.dist(agent_q)
        # neither d0 * d0 at the start nor a tie there (0.0 * d) counts as a flip
        flipped = diff[:, :1] * diff < 0
    return first_iteration(flipped, record.iterations + 1)


def default_band(w0s, w_opt, fraction=CONVERGENCE_BAND_FRACTION):
    """Convergence band relative to the mean initial distance from w_opt."""
    m = len(w_opt)
    mean_w0 = [sum_in_order(w0[j] for w0 in w0s) / len(w0s) for j in range(m)]
    dist = math.sqrt(sum_in_order(_pow2(mj - oj) for mj, oj in zip(mean_w0, w_opt)))
    if dist == 0.0:
        raise ConfigError("mean initial weight equals w_opt; band undefined")
    return fraction * dist
