"""Statistical verification predicates for the network-behaviour claims.

Each claim turns one qualitative observation about cooperating filters into
a pass/fail check over a paired ensemble: merged trajectories, convergence
speedup, selfish-trust delay, and noise stabilization.
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .metrics import convergence_iteration, steady_state_variance
from .network import combine
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


def _cooperative_ids(scenario):
    return [cfg.id for cfg in scenario.agents if cfg.kind == COOPERATIVE]


def _single_averaging_id(scenario):
    ids = [cfg.id for cfg in scenario.agents if cfg.kind == AVERAGING]
    if len(ids) != 1:
        raise ConfigError(
            f"claim needs exactly one averaging agent, found {len(ids)}")
    return ids[0]


def _norm(v):
    return math.sqrt(sum(x * x for x in v))


def _psis(record, adaptive, row):
    """Combined intermediates psi(i) = combine(row, w(i-1)), with w(0) = w0."""
    prev = [list(cfg.w0) for cfg in adaptive]
    out = []
    for i in range(record.iterations):
        out.append(combine(row, prev))
        prev = [record.ws[cfg.id][i] for cfg in adaptive]
    return out


def verify_claim(scenario, claim, records=None):
    if claim == "merge":
        return verify_merge(scenario, records)
    if claim == "speedup":
        return verify_speedup(scenario, records)
    if claim == "delay":
        return verify_delay(scenario)
    if claim == "stabilize":
        return verify_stabilize(scenario, records)
    raise ConfigError(f"unknown claim {claim!r}; valid claims: {', '.join(CLAIMS)}")


def verify_merge(scenario, records=None):
    """Equal-trust cooperative agents merge and track the averaging agent.

    Checks (1) the combined intermediates of the cooperative agents,
    recomputed from the recorded weights, are exactly equal at every
    iteration (their trust rows coincide), and
    (2) the ensemble-mean gap between each cooperative agent and the
    averaging agent stays below 5% of the mean initial distance from
    iteration 10 onward.
    """
    coop = _cooperative_ids(scenario)
    if len(coop) < 2:
        raise ConfigError("merge claim needs at least two cooperative agents")
    adaptive = scenario.adaptive_agents()
    coop_rows = [scenario.trust.rows[i] for i, cfg in enumerate(adaptive)
                 if cfg.kind == COOPERATIVE]
    if any(row != coop_rows[0] for row in coop_rows[1:]):
        raise ConfigError("merge claim needs identical cooperative trust rows")
    avg_id = _single_averaging_id(scenario)
    if records is None:
        records = run(scenario)

    rows = {cfg.id: row for cfg, row in zip(adaptive, scenario.trust.rows)}
    psi_equal = all(
        _psis(rec, adaptive, rows[coop[0]]) == _psis(rec, adaptive, rows[other])
        for rec in records
        for other in coop[1:]
    )

    w0s = [cfg.w0 for cfg in adaptive]
    mean_w0 = [sum(w0[j] for w0 in w0s) / len(w0s)
               for j in range(len(scenario.w_opt))]
    threshold = MERGE_BAND_FRACTION * _norm(
        [oj - mj for oj, mj in zip(scenario.w_opt, mean_w0)])

    n = len(records)
    length = records[0].iterations
    worst_gap = 0.0
    for aid in coop:
        for i in range(MERGE_START_ITERATION - 1, length):
            gap = sum(
                _norm([wj - ej for wj, ej in
                       zip(rec.ws[aid][i], rec.ws[avg_id][i])])
                for rec in records
            ) / n
            worst_gap = max(worst_gap, gap)
    passed = psi_equal and worst_gap < threshold
    return ClaimResult("merge", passed, {
        "psi_equal": psi_equal,
        "worst_mean_gap": worst_gap,
        "threshold": threshold,
    })


def verify_speedup(scenario, records=None):
    """Cooperative agents converge before the averaging reference agent."""
    coop = _cooperative_ids(scenario)
    if len(coop) < 2:
        raise ConfigError("speedup claim needs at least two cooperative agents")
    mus = {cfg.mu for cfg in scenario.agents if cfg.kind == COOPERATIVE}
    if len(mus) < 2:
        raise ConfigError("speedup claim needs heterogeneous learning rates")
    avg_id = _single_averaging_id(scenario)
    if records is None:
        records = run(scenario)
    band = scenario_band(scenario)

    wins = 0
    for rec in records:
        limit = convergence_iteration(rec, avg_id, band)
        limit = math.inf if limit is None else limit
        ok = True
        for aid in coop:
            conv = convergence_iteration(rec, aid, band)
            if conv is None or not conv < limit:
                ok = False
                break
        wins += ok
    fraction = wins / len(records)
    return ClaimResult("speedup", fraction >= PAIRED_PASS_FRACTION, {
        "win_fraction": fraction,
        "required": PAIRED_PASS_FRACTION,
        "band": band,
    })


def merge_iteration(record, coop_ids, w_opt, band_fraction=DELAY_BAND_FRACTION):
    """First iteration where all cooperative estimates agree within the band."""
    threshold = band_fraction * _norm(w_opt)
    length = record.iterations
    for i in range(length):
        spread = max(
            _norm([pj - qj for pj, qj in
                   zip(record.ws[p][i], record.ws[q][i])])
            for k, p in enumerate(coop_ids)
            for q in coop_ids[k + 1:]
        )
        if spread < threshold:
            return i + 1
    return None


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
    paired runs.
    """
    coop = _cooperative_ids(scenario)
    if len(coop) < 2:
        raise ConfigError("delay claim needs at least two cooperative agents")
    balanced = balanced_variant(scenario)
    if balanced.trust == scenario.trust:
        raise ConfigError(
            "delay claim needs selfish trust; the scenario's cooperative "
            "rows are already balanced")
    selfish_records = run(scenario)
    balanced_records = run(balanced)

    horizon = scenario.iterations + 1
    wins = 0
    selfish_iters = []
    balanced_iters = []
    for rec_s, rec_b in zip(selfish_records, balanced_records):
        it_s = merge_iteration(rec_s, coop, scenario.w_opt)
        it_b = merge_iteration(rec_b, coop, scenario.w_opt)
        selfish_iters.append(it_s)
        balanced_iters.append(it_b)
        wins += (it_s if it_s is not None else horizon) > \
                (it_b if it_b is not None else horizon)
    fraction = wins / len(selfish_records)
    med = sorted(x if x is not None else horizon for x in selfish_iters)
    med_b = sorted(x if x is not None else horizon for x in balanced_iters)
    return ClaimResult("delay", fraction >= PAIRED_PASS_FRACTION, {
        "win_fraction": fraction,
        "required": PAIRED_PASS_FRACTION,
        "median_selfish_merge": med[len(med) // 2],
        "median_balanced_merge": med_b[len(med_b) // 2],
    })


def verify_stabilize(scenario, records=None):
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
    if records is None:
        records = run(scenario)

    wins = sum(
        steady_state_variance(rec, noisy.id) < steady_state_variance(rec, twin.id)
        for rec in records
    )
    fraction = wins / len(records)
    return ClaimResult("stabilize", fraction >= STABILIZE_PASS_FRACTION, {
        "win_fraction": fraction,
        "required": STABILIZE_PASS_FRACTION,
        "cooperative": noisy.id,
        "twin": twin.id,
    })
