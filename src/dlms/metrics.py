"""Trajectory post-processing: MSD, steady-state variance, convergence and
crossing detection, and the analytic variance of a trusted weighted sum."""

import math
from dataclasses import dataclass, field

from .errors import ConfigError

STEADY_STATE_WINDOW = 0.2
CONVERGENCE_BAND_FRACTION = 0.1


@dataclass
class RunRecord:
    """Per-iteration, per-agent trajectory of one simulation run.

    Iteration i of the horizon [1, L] is stored at list index i-1.
    """

    seed: int
    w_opt: list
    agents: list
    run_index: int = 0
    ws: dict = field(default_factory=dict)
    es: dict = field(default_factory=dict)

    @property
    def iterations(self):
        return len(self.ws[self.agents[0]]) if self.agents else 0

    def dist_opt(self, agent):
        """Euclidean distance |w(i) - w_opt| per iteration."""
        wo = self.w_opt
        return [
            math.sqrt(sum((wj - oj) ** 2 for wj, oj in zip(w, wo)))
            for w in self.ws[agent]
        ]


@dataclass
class MetricsReport:
    """Summary metrics for an ensemble of runs of one scenario."""

    msd: dict
    steady_state_var: dict
    convergence_iter: dict
    crossing_iter: dict


def msd_series(records, agent):
    """Ensemble-mean squared distance |w(i) - w_opt|^2, one value per iteration."""
    if not records:
        raise ConfigError("empty record list")
    length = records[0].iterations
    out = [0.0] * length
    for rec in records:
        wo = rec.w_opt
        traj = rec.ws[agent]
        if len(traj) != length:
            raise ConfigError("records disagree on horizon length")
        for i, w in enumerate(traj):
            out[i] += sum((wj - oj) ** 2 for wj, oj in zip(w, wo))
    n = len(records)
    return [v / n for v in out]


def steady_state_variance(record, agent, window_fraction=STEADY_STATE_WINDOW):
    """Sample variance of the estimate over the final window of the horizon.

    For vector weights the per-component sample variances are summed.
    """
    if not 0 < window_fraction <= 1:
        raise ConfigError(f"window fraction {window_fraction} outside (0, 1]")
    traj = record.ws[agent]
    window = traj[len(traj) - math.ceil(window_fraction * len(traj)):]
    n = len(window)
    if n < 2:
        raise ConfigError(f"steady-state window of {n} samples is too short")
    m = len(record.w_opt)
    total = 0.0
    for j in range(m):
        comp = [w[j] for w in window]
        mean = sum(comp) / n
        total += sum((c - mean) ** 2 for c in comp) / (n - 1)
    return total


def convergence_iteration(record, agent, band):
    """Smallest i such that |w(j) - w_opt| <= band for every j >= i.

    Returns None when the trajectory is not inside the band at the horizon
    end (never converged, or left the band again).
    """
    if band <= 0:
        raise ConfigError(f"convergence band must be positive, got {band}")
    dists = record.dist_opt(agent)
    last_violation = None
    for i in range(len(dists) - 1, -1, -1):
        if dists[i] > band:
            last_violation = i
            break
    if last_violation is None:
        return 1
    if last_violation == len(dists) - 1:
        return None
    return last_violation + 2


def crossing_iteration(record, agent_p, agent_q):
    """First iteration where the distance-to-optimum ordering of p and q flips.

    Defined for scalar weights only. Returns None if the agents start tied
    or the initial ordering never reverses.
    """
    if len(record.w_opt) != 1:
        raise ConfigError("crossing detection requires scalar weights (M=1)")
    dp = record.dist_opt(agent_p)
    dq = record.dist_opt(agent_q)
    initial = dp[0] - dq[0]
    if initial == 0.0:
        return None
    for i in range(1, len(dp)):
        if initial * (dp[i] - dq[i]) < 0:
            return i + 1
    return None


def weighted_sum_variance(s_ab, s_ba, var_x, var_y, cov_xy=0.0):
    """Variance of z = s_ab*x + s_ba*y."""
    if var_x < 0 or var_y < 0:
        raise ConfigError("variances must be non-negative")
    return s_ab * s_ab * var_x + s_ba * s_ba * var_y + 2.0 * s_ab * s_ba * cov_xy


def default_band(w0s, w_opt, fraction=CONVERGENCE_BAND_FRACTION):
    """Convergence band relative to the mean initial distance from w_opt."""
    m = len(w_opt)
    mean_w0 = [sum(w0[j] for w0 in w0s) / len(w0s) for j in range(m)]
    dist = math.sqrt(sum((mj - oj) ** 2 for mj, oj in zip(mean_w0, w_opt)))
    if dist == 0.0:
        raise ConfigError("mean initial weight equals w_opt; band undefined")
    return fraction * dist
