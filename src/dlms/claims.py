"""Statistical verification predicates for the network-behaviour claims.

Each claim turns one qualitative observation about cooperating filters into
a pass/fail check over a paired ensemble: merged trajectories, convergence
speedup, selfish-trust delay, and noise stabilization.
"""

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import combinations
from operator import and_

from .errors import ConfigError, DivergenceError
from .metrics import (
    convergence_iteration,
    first_iteration,
    steady_state_start,
    steady_state_variance,
    sum_in_order,
)
from .scenarios import AVERAGING, COOPERATIVE, STANDALONE, scenario_band, with_trust

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


def _paired(claim, wins, required, **details):
    """Result of a claim won by at least ``required`` of its runs' ``wins``."""
    fraction = int(sum(wins)) / len(wins)
    return ClaimResult(claim, fraction >= required,
                       {"win_fraction": fraction, "required": required, **details})


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


def _blocks(scenario):
    """The scenario's ensemble a block of iterations at a time (engine.blocks)."""
    from .engine import blocks  # numpy loads with the first run, not at import

    return blocks(scenario)


def _gaps(record, pairs):
    """The distances |w_p - w_q| [R, P, L] between the estimates of each pair
    (p, q) of agents."""
    import numpy as np

    p, q = (np.array([record.agents.index(aid) for aid in ids]) for ids in zip(*pairs))
    w = record.ws.transpose(3, 0, 2, 1)  # [M, R, A, L]
    d = w[:, :, p] - w[:, :, q]
    return np.sqrt(sum_in_order(d * d))


def verify_merge(scenario):
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
    threshold = scenario_band(scenario, MERGE_BAND_FRACTION)
    if scenario.iterations < MERGE_START_ITERATION:
        raise ConfigError(f"merge claim needs iterations >= {MERGE_START_ITERATION}, "
                          f"got {scenario.iterations}")
    pairs = [(aid, avg_id) for aid in coop]
    worst_gap = 0.0  # a nan gap never wins Python's max against a number
    for start, block in _blocks(scenario):
        gaps = sum_in_order(_gaps(block, pairs)) / len(block)  # [P, B], in run order
        late = gaps[:, max(0, MERGE_START_ITERATION - 1 - start):]
        worst_gap = max([worst_gap, *late.ravel().tolist()])
    return ClaimResult("merge", worst_gap < threshold, {
        "worst_mean_gap": worst_gap,
        "threshold": threshold,
    })


def verify_speedup(scenario):
    """Cooperative agents converge before the averaging reference agent."""
    coop = _cooperative_ids(scenario, "speedup")
    mus = {cfg.mu for cfg in scenario.agents if cfg.kind == COOPERATIVE}
    if len(mus) < 2:
        raise ConfigError("speedup claim needs heterogeneous learning rates")
    avg_id = _single_averaging_id(scenario)
    band = scenario_band(scenario)
    import numpy as np

    conv = dict.fromkeys([avg_id, *coop], 0)
    for start, block in _blocks(scenario):
        conv = {aid: np.maximum(last, convergence_iteration(block, aid, band, start))
                for aid, last in conv.items()}
    limits = conv.pop(avg_id)
    wins = reduce(and_, (iterations < limits for iterations in conv.values()))
    return _paired("speedup", wins, PAIRED_PASS_FRACTION, band=band)


def merge_iteration(record, coop_ids, start=0, never=None):
    """Per run, the first iteration where all cooperative estimates agree
    within DELAY_BAND_FRACTION of |w_opt|, or ``never``, by default one past
    the record's last iteration.

    The record holds the iterations from start + 1 on, so the minimum over
    consecutive records, each given the horizon's ``never``, is the whole
    horizon's.
    """
    threshold = DELAY_BAND_FRACTION * math.sqrt(sum_in_order(x * x for x in record.w_opt))
    merged = _gaps(record, combinations(coop_ids, 2)).max(axis=1) < threshold
    never = start + record.iterations + 1 if never is None else never
    return start + first_iteration(merged, never - start)


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


def pair(scenario, other):
    """``scenario`` and ``other`` (its agents and network, other trust) as one
    scenario, on one draw of the signals: twins of ``other``'s adaptive
    agents follow every original, with their stream owners as counterparts
    and ``other``'s trust rows padded with zeros, so they are bit for bit
    ``other``'s agents. Returns it and the twins' ids by agent id."""
    tick = "'" * max(len(cfg.id) for cfg in scenario.agents)  # no id is taken
    adaptive = other.adaptive_agents()
    twins = {cfg.id: cfg.id + tick for cfg in adaptive}
    agents = [replace(cfg, id=twins[cfg.id], counterpart=cfg.counterpart or cfg.id)
              for cfg in adaptive]
    pad = (0.0,) * len(adaptive)
    rows = [row + pad for row in scenario.trust.rows] + [pad + row for row in other.trust.rows]
    return replace(scenario, agents=(*scenario.agents, *agents),
                   trust=replace(scenario.trust, rows=rows)), twins


def run_paired(scenario, other, fold):
    """``fold(blocks, twins)`` over the blocks of ``scenario`` and ``other``
    run as one scenario (see ``pair``); on divergence, raises what separate
    runs raise, ``scenario``'s first."""
    joint, twins = pair(scenario, other)
    try:
        return fold(_blocks(joint), twins)
    except DivergenceError as exc:  # it may name a twin
        error = exc
    for separate in (scenario, other):  # in order, raise their first error, unchained
        for _ in _blocks(separate):
            pass
    raise error


def verify_delay(scenario):
    """Selfish trust delays the iteration at which cooperative estimates merge.

    Compares the scenario against its balanced-trust variant on identical
    seeds; the selfish network must merge strictly later in at least 90% of
    paired runs. Both networks are simulated together on one draw of the
    signals, and each stays bit-identical to a separate run of it.
    """
    coop = _cooperative_ids(scenario, "delay")
    if not any(scenario.w_opt):
        raise ConfigError("delay claim needs a nonzero w_opt: its merge band is "
                          f"{DELAY_BAND_FRACTION:.0%} of |w_opt|")
    balanced = balanced_variant(scenario)
    if balanced.trust == scenario.trust:
        raise ConfigError(
            "delay claim needs selfish trust; the scenario's cooperative "
            "rows are already balanced")
    import numpy as np

    # a run that never merges counts as merging just after the horizon
    never = scenario.iterations + 1

    def merges(blocks, twins):
        groups = (coop, [twins[aid] for aid in coop])
        first = [never] * len(groups)
        for start, block in blocks:
            first = [np.minimum(it, merge_iteration(block, ids, start, never))
                     for it, ids in zip(first, groups)]
        return first

    selfish_iters, balanced_iters = run_paired(scenario, balanced, merges)
    return _paired("delay", selfish_iters > balanced_iters, PAIRED_PASS_FRACTION,
                   median_selfish_merge=int(sorted(selfish_iters)[len(selfish_iters) // 2]),
                   median_balanced_merge=int(sorted(balanced_iters)[len(balanced_iters) // 2]))


def verify_stabilize(scenario):
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
    import numpy as np

    # the two agents' rows of the final window, copied block by block
    length, ids = scenario.iterations, [noisy.id, twin.id]
    first = steady_state_start(length)
    window = np.empty((scenario.ensemble, length - first, len(ids), len(scenario.w_opt)))
    for start, block in _blocks(scenario):
        skip = max(0, first - start)  # the block's iterations before the window
        if skip < block.iterations:
            cols = [block.agents.index(aid) for aid in ids]
            window[:, start + skip - first:start + block.iterations - first] = \
                block.ws[:, skip:, cols]

    wins = [coop < solo for coop, solo in zip(
        *(steady_state_variance(window[:, :, k]) for k in range(len(ids))))]
    return _paired("stabilize", wins, STABILIZE_PASS_FRACTION,
                   cooperative=noisy.id, twin=twin.id)


_VERIFIERS = {"merge": verify_merge, "speedup": verify_speedup,
              "delay": verify_delay, "stabilize": verify_stabilize}
CLAIMS = tuple(_VERIFIERS)


def verify_claim(scenario, claim):
    if claim not in _VERIFIERS:
        raise ConfigError(f"unknown claim {claim!r}; valid claims: {', '.join(CLAIMS)}")
    return _VERIFIERS[claim](scenario)
