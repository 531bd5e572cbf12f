"""Statistical verification predicates for the network-behaviour claims.

Each claim turns one qualitative observation about cooperating filters into
a pass/fail check over a paired ensemble: merged trajectories, convergence
speedup, selfish-trust delay, and noise stabilization.
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .metrics import (
    convergence_iteration,
    default_band,
    steady_state_variance,
    sum_in_order,
)
from .scenarios import (
    AVERAGING,
    COOPERATIVE,
    STANDALONE,
    run,
    scenario_band,
    with_trust,
)

CLAIMS = ("merge", "speedup", "delay", "stabilize")

MERGE_START_ITERATION = 10
MERGE_BAND_FRACTION = 0.05
DELAY_BAND_FRACTION = 0.01
PAIRED_PASS_FRACTION = 0.90
STABILIZE_PASS_FRACTION = 0.95


@dataclass
class ClaimResult:
    claim: str
    passed: bool
    details: dict = field(default_factory=dict)

    def summary(self):
        parts = [f"{k}={v}" for k, v in self.details.items()]
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.claim}: " + ", ".join(parts)


def _cooperative_ids(scenario, claim):
    ids = [cfg.id for cfg in scenario.agents if cfg.kind == COOPERATIVE]
    if len(ids) < 2:
        raise ConfigError(f"{claim} claim needs at least two cooperative agents")
    return ids


def _single_averaging_id(scenario):
    ids = [cfg.id for cfg in scenario.agents if cfg.kind == AVERAGING]
    if len(ids) != 1:
        raise ConfigError(
            f"claim needs exactly one averaging agent, found {len(ids)}")
    return ids[0]


def _gap(record, p, q):
    """Distance |w_p - w_q| between two agents' estimates per run and iteration."""
    import numpy as np

    d = record.w(p) - record.w(q)
    return np.sqrt(sum_in_order(d * d, axis=-1))


def verify_claim(scenario, claim):
    if claim == "merge":
        return verify_merge(scenario)
    if claim == "speedup":
        return verify_speedup(scenario)
    if claim == "delay":
        return verify_delay(scenario)
    if claim == "stabilize":
        return verify_stabilize(scenario)
    raise ConfigError(f"unknown claim {claim!r}; valid claims: {', '.join(CLAIMS)}")


def verify_merge(scenario, record=None):
    """Equal-trust cooperative agents merge and track the averaging agent.

    Checks (1) the cooperative agents' trust rows are identical, so their
    combined intermediates are equal at every iteration, and
    (2) the ensemble-mean gap between each cooperative agent and the
    averaging agent stays below 5% of the mean initial distance from
    iteration 10 onward.
    """
    coop = _cooperative_ids(scenario, "merge")
    adaptive = scenario.adaptive_agents()
    coop_rows = [scenario.trust.rows[i] for i, cfg in enumerate(adaptive)
                 if cfg.kind == COOPERATIVE]
    if any(row != coop_rows[0] for row in coop_rows[1:]):
        raise ConfigError("merge claim needs identical cooperative trust rows")
    avg_id = _single_averaging_id(scenario)
    threshold = default_band([cfg.w0 for cfg in adaptive], scenario.w_opt,
                             MERGE_BAND_FRACTION)
    if scenario.iterations < MERGE_START_ITERATION:
        raise ConfigError(f"merge claim needs iterations >= {MERGE_START_ITERATION}, "
                          f"got {scenario.iterations}")
    if record is None:
        record = run(scenario)

    worst_gap = 0.0
    for aid in coop:
        gaps = sum_in_order(_gap(record, aid, avg_id)) / len(record)
        worst_gap = max([worst_gap, *gaps[MERGE_START_ITERATION - 1:].tolist()])
    return ClaimResult("merge", worst_gap < threshold, {
        "worst_mean_gap": worst_gap,
        "threshold": threshold,
    })


def verify_speedup(scenario, record=None):
    """Cooperative agents converge before the averaging reference agent."""
    coop = _cooperative_ids(scenario, "speedup")
    mus = {cfg.mu for cfg in scenario.agents if cfg.kind == COOPERATIVE}
    if len(mus) < 2:
        raise ConfigError("speedup claim needs heterogeneous learning rates")
    avg_id = _single_averaging_id(scenario)
    band = scenario_band(scenario)
    if record is None:
        record = run(scenario)

    limits = convergence_iteration(record, avg_id, band)
    convs = zip(*(convergence_iteration(record, aid, band) for aid in coop))
    wins = sum(
        all(conv is not None and conv < (math.inf if limit is None else limit)
            for conv in run_convs)
        for limit, run_convs in zip(limits, convs))
    fraction = wins / len(record)
    return ClaimResult("speedup", fraction >= PAIRED_PASS_FRACTION, {
        "win_fraction": fraction,
        "required": PAIRED_PASS_FRACTION,
        "band": band,
    })


def merge_iteration(record, coop_ids):
    """Per run, the first iteration where all cooperative estimates agree
    within DELAY_BAND_FRACTION of |w_opt|, or None."""
    import numpy as np

    threshold = DELAY_BAND_FRACTION * math.sqrt(sum_in_order(x * x for x in record.w_opt))
    spread = np.maximum.reduce([_gap(record, p, q)
                                for k, p in enumerate(coop_ids)
                                for q in coop_ids[k + 1:]])
    merged = spread < threshold
    return [i + 1 if hit else None
            for hit, i in zip(merged.any(axis=1).tolist(), merged.argmax(axis=1).tolist())]


def balanced_variant(scenario):
    """Scenario with each cooperative trust row made uniform over its support."""
    adaptive = scenario.adaptive_agents()
    rows = []
    for i, cfg in enumerate(adaptive):
        row = scenario.trust.rows[i]
        if cfg.kind != COOPERATIVE:
            rows.append(row)
            continue
        support = [b for b, s in enumerate(row) if s > 0.0]
        uniform = [1.0 / len(support) if b in support else 0.0
                   for b in range(len(row))]
        rows.append(tuple(uniform))
    return with_trust(scenario, rows)


def verify_delay(scenario):
    """Selfish trust delays the iteration at which cooperative estimates merge.

    Compares the scenario against its balanced-trust variant on identical
    seeds; the selfish network must merge strictly later in at least 90% of
    paired runs. Both networks are simulated together on one draw of the
    signals, and each stays bit-identical to a separate run of it.
    """
    from .engine import run_ensemble  # numpy loads with the first run, not at import

    coop = _cooperative_ids(scenario, "delay")
    if not any(scenario.w_opt):
        raise ConfigError("delay claim needs a nonzero w_opt: its merge band is "
                          f"{DELAY_BAND_FRACTION:.0%} of |w_opt|")
    balanced = balanced_variant(scenario)
    if balanced.trust == scenario.trust:
        raise ConfigError(
            "delay claim needs selfish trust; the scenario's cooperative "
            "rows are already balanced")
    # a run that never merges counts as merging just after the horizon
    horizon = scenario.iterations + 1
    selfish_iters, balanced_iters = (
        [horizon if it is None else it for it in merge_iteration(record, coop)]
        for record in run_ensemble(scenario, [scenario.trust, balanced.trust]))
    wins = sum(s > b for s, b in zip(selfish_iters, balanced_iters))
    fraction = wins / len(selfish_iters)
    return ClaimResult("delay", fraction >= PAIRED_PASS_FRACTION, {
        "win_fraction": fraction,
        "required": PAIRED_PASS_FRACTION,
        "median_selfish_merge": sorted(selfish_iters)[len(selfish_iters) // 2],
        "median_balanced_merge": sorted(balanced_iters)[len(balanced_iters) // 2],
    })


def verify_stabilize(scenario, record=None):
    """Cooperation damps the steady-state jitter of the noisiest agent.

    Compares the cooperative agent with the largest noise deviation against
    its standalone twin over the final 20% of the horizon.
    """
    coop_cfgs = [cfg for cfg in scenario.agents if cfg.kind == COOPERATIVE]
    if not coop_cfgs:
        raise ConfigError("stabilize claim needs a cooperative agent")
    noisy = max(coop_cfgs, key=lambda cfg: cfg.noise.sd)
    twins = [cfg for cfg in scenario.agents
             if cfg.kind == STANDALONE and cfg.counterpart == noisy.id]
    if not twins:
        raise ConfigError(
            f"stabilize claim needs a standalone twin of agent {noisy.id!r}")
    twin = twins[0]
    if record is None:
        record = run(scenario)

    wins = sum(coop < solo for coop, solo in zip(
        steady_state_variance(record, noisy.id), steady_state_variance(record, twin.id)))
    fraction = wins / len(record)
    return ClaimResult("stabilize", fraction >= STABILIZE_PASS_FRACTION, {
        "win_fraction": fraction,
        "required": STABILIZE_PASS_FRACTION,
        "cooperative": noisy.id,
        "twin": twin.id,
    })
