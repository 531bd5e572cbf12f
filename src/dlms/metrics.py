"""Ensemble records and their reductions: MSD, steady-state variance,
convergence and crossing detection.

Every reduction adds in run order and left to right along iterations and
weight components, and squares distances with Python's float power (the C
library's ``pow``). numpy's own sums add pairwise and Python 3.12's ``sum``
compensates; numpy's ``x**2`` and ``pow`` round differently from libm's
``pow``. Any of them would change the last bit of the reported metrics.
``cumsum`` (numpy's ``add.accumulate``) does add in order, and
0.0 + (v0 + v1 + ...) is the fold 0.0 + v0 + v1 + ... bit for bit, signed
zeros included, so the steady-state window, thousands of iterations long, is
summed as 0.0 + its ``cumsum``'s last entry in one call.
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


def sum_in_order(values, axis=0):
    """0.0 + v[0] + v[1] + ... along ``axis``, one addition at a time.

    Takes any iterable of floats, or an array summed along ``axis``.
    """
    if axis:
        import numpy as np

        values = np.moveaxis(values, axis, 0)
    return reduce(add, values, 0.0)


def square(a):
    """Element-wise ``x ** 2`` of an array, with Python's float power."""
    import numpy as np

    return np.fromiter(map(pow, a.ravel().tolist(), repeat(2)),
                       np.float64, a.size).reshape(a.shape)


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
    es: object  # float64 [R, L, A]

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
        """Squared distance |w - w_opt|^2 per run, iteration and agent [R, L, A]."""
        import numpy as np

        return sum_in_order(square(self.ws - np.array(self.w_opt)), axis=-1)

    def dist(self, agent):
        """Distance |w - w_opt| of one agent [R, L]."""
        import numpy as np

        return np.sqrt(self.sq_dist[:, :, self.agents.index(agent)])


@dataclass
class MetricsReport:
    """Summary metrics for an ensemble of runs of one scenario."""

    msd: dict
    steady_state_var: dict
    convergence_iter: dict
    crossing_iter: dict


def msd_series(record, agent):
    """Ensemble-mean squared distance |w(i) - w_opt|^2, one value per iteration."""
    if not len(record):
        raise ConfigError("empty ensemble")
    sq = record.sq_dist[:, :, record.agents.index(agent)]
    return (sum_in_order(sq) / len(record)).tolist()


def steady_state_variance(record, agent):
    """Sample variance of the estimate over the final STEADY_STATE_WINDOW of
    the horizon, one value per run.

    For vector weights the per-component sample variances are summed.
    """
    length = record.iterations
    window = record.w(agent)[:, length - math.ceil(STEADY_STATE_WINDOW * length):]
    n = window.shape[1]
    if n < 2:
        # ceil(STEADY_STATE_WINDOW * length) >= 2 from this length on
        minimum = math.floor(1 / STEADY_STATE_WINDOW) + 1
        raise ConfigError(f"steady-state variance needs iterations >= {minimum}, "
                          f"got {length}")
    mean = (0.0 + window.cumsum(axis=1)[:, -1]) / n
    var = (0.0 + square(window - mean[:, None]).cumsum(axis=1)[:, -1]) / (n - 1)
    return sum_in_order(var, axis=-1).tolist()


def convergence_iteration(record, agent, band):
    """Per run, the smallest i such that |w(j) - w_opt| <= band for every j >= i.

    A run's entry is None when its trajectory is not inside the band at the
    horizon end (never converged, or left the band again).
    """
    if band <= 0:
        raise ConfigError(f"convergence band must be positive, got {band}")
    outside = record.dist(agent) > band
    last = record.iterations - 1
    # index of the last iteration outside the band
    violations = last - outside[:, ::-1].argmax(axis=1)
    return [1 if not any_out else None if v == last else v + 2
            for any_out, v in zip(outside.any(axis=1).tolist(), violations.tolist())]


def crossing_iteration(record, agent_p, agent_q):
    """Per run, the first iteration where the distance-to-optimum ordering of
    p and q flips.

    Defined for scalar weights only. A run's entry is None if the agents
    start tied or the initial ordering never reverses.
    """
    if len(record.w_opt) != 1:
        raise ConfigError("crossing detection requires scalar weights (M=1)")
    if record.iterations < 2:
        return [None] * len(record)
    diff = record.dist(agent_p) - record.dist(agent_q)
    # a tie at the start (0.0 * d) never counts as a flip
    flipped = diff[:, :1] * diff[:, 1:] < 0
    return [k + 2 if hit else None for hit, k in
            zip(flipped.any(axis=1).tolist(), flipped.argmax(axis=1).tolist())]


def default_band(w0s, w_opt, fraction=CONVERGENCE_BAND_FRACTION):
    """Convergence band relative to the mean initial distance from w_opt."""
    m = len(w_opt)
    mean_w0 = [sum_in_order(w0[j] for w0 in w0s) / len(w0s) for j in range(m)]
    dist = math.sqrt(sum_in_order((mj - oj) ** 2 for mj, oj in zip(mean_w0, w_opt)))
    if dist == 0.0:
        raise ConfigError("mean initial weight equals w_opt; band undefined")
    return fraction * dist
