"""Ensemble records and their reductions: the ensemble sums behind the MSD and
the ensemble mean, steady-state variance, convergence and crossing detection.

Every reduction adds in run order and left to right along iterations and weight
components, and squares distances to the target with the bits of Python's
float power (the C library's ``pow``) through ``libm.square``. numpy's own
sums add pairwise, Python 3.12's ``sum`` compensates and numpy's ``x**2`` is
``x*x``; any of them would change the last bit of the reported metrics.
``cumsum`` (numpy's ``add.accumulate``) does add in order, and
0.0 + (v0 + v1 + ...) is the fold 0.0 + v0 + v1 + ... bit for bit, signed
zeros included, so the steady-state window, thousands of iterations long, is
summed as 0.0 + its ``cumsum``'s last entry, one call for a batch of runs.
The trajectory CSV's distances have the bits of ``pow(s, 0.5)`` through
``libm.roots``. numpy and ``libm`` are imported inside the functions, so
loading a scenario stays numpy-free.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import add, iadd

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

        Filled as many iterations of a run at a time as fit in libm.SQUARE_BLOCK
        values, at least one, so ``square``'s temporaries and Python floats are
        that size, not the records' or a long run's. Finite squares that sum
        past the largest double give ``inf``, as an overflowing square does.
        """
        import numpy as np

        from .libm import SQUARE_BLOCK, square

        w_opt, out = np.array(self.w_opt), np.empty(self.ws.shape[:-1])
        step = max(1, SQUARE_BLOCK // max(1, math.prod(self.ws.shape[2:])))  # iterations
        with np.errstate(over="ignore"):
            for r, w in enumerate(self.ws):
                for i in range(0, len(w), step):
                    out[r, i:i + step] = sum_in_order(square(w[i:i + step] - w_opt), axis=-1)
        return out

    def dist(self, agent):
        """Distance |w - w_opt| of one agent [R, L]: ``sqrt``, not ``dist_opt``'s ``pow``."""
        import numpy as np

        return np.sqrt(self.sq_dist[:, :, self.agents.index(agent)])

    def dist_opt(self, r):
        """Distances [L, A] of run r in the CSV: ``pow(sq_dist, 0.5)``, not ``dist``'s
        ``sqrt`` (they differ on ~1 in 1,100 doubles); |w - w_opt| at M = 1 where
        ``libm.root_square_is_abs`` says so. Only the others read ``sq_dist``."""
        from .libm import roots

        d = abs(self.ws[r, :, :, 0] - self.w_opt[0]) if len(self.w_opt) == 1 else None
        return roots(lambda: self.sq_dist[r], d)


def steady_state_start(length):
    """The index of the first iteration of the steady-state window, the final
    STEADY_STATE_WINDOW of a horizon of ``length`` iterations; a ConfigError
    if the window would hold fewer than the two a sample variance needs."""
    first = length - math.ceil(STEADY_STATE_WINDOW * length)
    if length - first < 2:  # ceil(STEADY_STATE_WINDOW * length) >= 2 from this length on
        raise ConfigError("steady-state variance needs iterations >= "
                          f"{math.floor(1 / STEADY_STATE_WINDOW) + 1}, got {length}")
    return first


def steady_state_variance(windows):
    """Sample variance of the estimates ``windows`` [R, n, M] over each run's
    window of n iterations (see steady_state_start), one value per run.

    For vector weights the per-component sample variances are summed. The
    window is reduced as many runs at a time as fit in libm.SQUARE_BLOCK, at
    least one, so its temporaries are that size and ``square`` is called once
    per batch; ``cumsum`` along the iterations still adds each run in order.
    """
    import numpy as np

    from .libm import SQUARE_BLOCK, square

    n = windows.shape[1]
    var = np.empty((len(windows), windows.shape[-1]))
    step = max(1, SQUARE_BLOCK // max(1, math.prod(windows.shape[1:])))  # runs
    for r in range(0, len(windows), step):
        window = windows[r:r + step]
        mean = (0.0 + window.cumsum(axis=1)[:, -1:]) / n
        var[r:r + step] = (0.0 + square(window - mean).cumsum(axis=1)[:, -1]) / (n - 1)
    return sum_in_order(var, axis=-1).tolist()


class EnsembleSums:
    """Sums over the runs of an ensemble, added a record of consecutive runs
    at a time in run order: of the squared distances, of the estimates, and
    per agent of the runs' steady-state variances (None once a record's
    horizon is too short for the window).

    Each sum continues start + v0 + v1 + ... from one record to the next, in
    place, so however the runs are grouped into records, the sums are bit for
    bit those over one record of every run, with no second copy of them.
    """

    def __init__(self):
        self.runs = 0
        self.sq_dist = self.ws = 0.0
        self.steady_state_var = {}

    def add(self, record):
        self.w_opt, self.agents = record.w_opt, record.agents
        self.runs += len(record)
        self.sq_dist = reduce(iadd, record.sq_dist, self.sq_dist)
        self.ws = reduce(iadd, record.ws, self.ws)
        if self.steady_state_var is not None:
            try:
                first = steady_state_start(record.iterations)
                self.steady_state_var = {
                    aid: sum_in_order(steady_state_variance(record.w(aid)[:, first:]),
                                      start=self.steady_state_var.get(aid, 0.0))
                    for aid in record.agents}
            except ConfigError:
                self.steady_state_var = None
        return self

    def _mean(self, total):
        if not self.runs:
            raise ConfigError("empty ensemble")
        return total / self.runs

    def msd(self, agents):
        """Ensemble-mean |w(i) - w_opt|^2 [L, len(agents)] of ``agents``, in that order."""
        return self._mean(self.sq_dist)[:, [self.agents.index(aid) for aid in agents]]

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
    from .libm import power

    m = len(w_opt)
    mean_w0 = [sum_in_order(w0[j] for w0 in w0s) / len(w0s) for j in range(m)]
    dist = math.sqrt(sum_in_order(power(mj - oj, 2.0) for mj, oj in zip(mean_w0, w_opt)))
    if dist == 0.0:
        raise ConfigError("mean initial weight equals w_opt; band undefined")
    return fraction * dist
