"""Scalar reference simulator for the vectorized ensemble engine, and
reference operations that only tests use.

``run_single`` advances one run through ``network.cta_iteration`` with one
``generate_sample`` per stream owner and iteration, then sets each averaging
agent with ``averaging_update``; ``run`` chains the runs of an ensemble.
Tests require the engine to reproduce it bit for bit. Every sum adds left
to right from 0.0, as Python 3.11's builtin ``sum`` does (3.12 compensates
the rounding). ``RandomStream`` draws one value at a time the stream that
``prng.gaussian_block`` computes in blocks. ``write_trajectories`` is the
row-by-row ``csv.writer`` form of the trajectory CSV that ``dlms run``
writes, its squares and ``dist_opt`` with one ``pow`` call per value
(``pow2``), the reference for ``libm.square`` and the writer.
``write_metrics`` writes the metrics CSV of ``compute_report`` the same way,
a list per row.
``verify_claim`` evaluates each claim on ``dlms.run``'s whole record, one
run at a time where the claims fold the engine's blocks.
``schubfach_ends`` computes Schubfach's interval ends with Giulietti's three
``rop`` calls, for ``floatfmt``'s one-product form.
"""

import csv
import functools
import math
import os
import platform
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import and_

import numpy as np

from dlms import scenarios
from dlms.claims import (
    DELAY_BAND_FRACTION,
    MERGE_BAND_FRACTION,
    MERGE_START_ITERATION,
    PAIRED_PASS_FRACTION,
    STABILIZE_PASS_FRACTION,
    ClaimResult,
    _cooperative_ids,
    _paired,
    _single_averaging_id,
    balanced_variant,
    pair,
)
from dlms.errors import ConfigError, DivergenceError
from dlms.filters import predict
from dlms.metrics import (
    EnsembleRecord,
    convergence_iteration,
    default_band,
    first_iteration,
    steady_state_start,
    steady_state_variance,
    sum_in_order,
)
from dlms.network import AgentState, cta_iteration
from dlms.scenarios import COOPERATIVE, STANDALONE
from dlms.prng import _GAMMA, _INV_2_53, _MASK64, _TWO_PI, _mix, derive_seed
from dlms.signals import SignalSample

_SEED_MASK = (1 << 64) - 1


class RandomStream:
    """Single-owner deterministic random stream.

    Uniforms lie strictly in (0, 1] so the Box-Muller logarithm is always
    finite. The second Box-Muller deviate is cached and consumed on the next
    Gaussian draw; the cache is part of the reproducibility contract.
    """

    __slots__ = ("state", "cached_gaussian")

    def __init__(self, seed):
        self.state = seed & _MASK64
        self.cached_gaussian = None

    def next_u64(self):
        """Advance the SplitMix64 recurrence and return the finalized value."""
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix(self.state)

    def next_uniform(self):
        """Uniform double in (0, 1]: ((u64 >> 11) + 1) / 2^53."""
        return ((self.next_u64() >> 11) + 1) * _INV_2_53

    def next_gaussian(self, mean=0.0, sd=1.0):
        """Gaussian deviate via the Box-Muller transform."""
        if sd < 0:
            raise ConfigError(f"negative standard deviation: {sd}")
        z = self.cached_gaussian
        if z is not None:
            self.cached_gaussian = None
        else:
            u1 = self.next_uniform()
            u2 = self.next_uniform()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(_TWO_PI * u2)
            self.cached_gaussian = r * math.sin(_TWO_PI * u2)
        return mean + sd * z


def agent(scenario, agent_id):
    """The AgentConfig of ``scenario`` with id ``agent_id``."""
    for cfg in scenario.agents:
        if cfg.id == agent_id:
            return cfg
    raise ConfigError(f"unknown agent id {agent_id!r}")


def averaging_update(sources):
    """Component-wise arithmetic mean of the source estimates."""
    if not sources:
        raise ConfigError("averaging agent has no sources")
    n = len(sources)
    out = list(sources[0])
    for w in sources[1:]:
        for j, wj in enumerate(w):
            out[j] += wj
    return [wj / n for wj in out]


@dataclass
class OracleRecord:
    """One run as per-agent lists: ws[agent][i] is the estimate after
    iteration i+1, es[agent][i] its prediction error."""

    seed: int
    w_opt: list
    agents: list
    run_index: int = 0
    ws: dict = field(default_factory=dict)
    es: dict = field(default_factory=dict)


def as_ensemble_record(scenario, records):
    """The oracle's records as the engine's EnsembleRecord."""
    agents = ([cfg.id for cfg in scenario.adaptive_agents()]
              + [cfg.id for cfg in scenario.averaging_agents()])
    shape = (len(records), scenario.iterations, len(agents), len(scenario.w_opt))
    ws = [[[rec.ws[aid][i] for aid in agents] for i in range(scenario.iterations)]
          for rec in records]
    es = [[[rec.es[aid][i] for aid in agents] for i in range(scenario.iterations)]
          for rec in records]
    return EnsembleRecord(w_opt=tuple(scenario.w_opt), agents=agents,
                          ws=np.array(ws, dtype=np.float64).reshape(shape),
                          es=np.array(es, dtype=np.float64).reshape(shape[:3]))


def generate_sample(stream, w_opt, input_params, noise_params):
    """Draw one (x, y) pair from y = w_opt . x + q.

    Consumes exactly len(w_opt) + 1 Gaussian deviates from the stream,
    x components first, then q.
    """
    if len(w_opt) < 1:
        raise ConfigError("w_opt must have at least one component")
    x = tuple(
        stream.next_gaussian(input_params.mean, input_params.sd)
        for _ in w_opt
    )
    q = stream.next_gaussian(noise_params.mean, noise_params.sd)
    y = 0.0
    for wi, xi in zip(w_opt, x):
        y += wi * xi
    y += q
    return SignalSample(x=x, y=y, q=q)


def _stream_owners(scenario):
    """Stream-owner index (position in scenario.agents) per adaptive agent."""
    position = {cfg.id: i for i, cfg in enumerate(scenario.agents)}
    owners = []
    for cfg in scenario.adaptive_agents():
        owner = cfg.counterpart if cfg.counterpart is not None else cfg.id
        owners.append(position[owner])
    return owners


def run_single(scenario, run_index):
    """Execute one run of the scenario; returns its OracleRecord.

    Per-agent streams are seeded with derive_seed(seed XOR run_index, k)
    where k is the stream owner's position in the agent list; twins share
    their counterpart's stream owner and therefore its exact samples.
    """
    adaptive = scenario.adaptive_agents()
    averaging = scenario.averaging_agents()
    adaptive_index = {cfg.id: i for i, cfg in enumerate(adaptive)}
    averaging_sources = [
        tuple(adaptive_index[s] for s in cfg.sources) for cfg in averaging
    ]
    owners = _stream_owners(scenario)
    owner_params = {}
    for cfg, owner in zip(adaptive, owners):
        owner_params.setdefault(owner, (cfg.input, cfg.noise))
    base = (scenario.seed ^ run_index) & _SEED_MASK
    streams = {
        owner: RandomStream(derive_seed(base, owner)) for owner in owner_params
    }

    states = [AgentState(w=list(cfg.w0), psi=list(cfg.w0), e=0.0) for cfg in adaptive]

    ordered_ids = [cfg.id for cfg in adaptive] + [cfg.id for cfg in averaging]
    record = OracleRecord(
        seed=scenario.seed,
        w_opt=list(scenario.w_opt),
        agents=ordered_ids,
        run_index=run_index,
        ws={aid: [] for aid in ordered_ids},
        es={aid: [] for aid in ordered_ids},
    )

    mus = [cfg.mu for cfg in adaptive]
    w_opt = scenario.w_opt
    for i in range(1, scenario.iterations + 1):
        group_samples = {
            owner: generate_sample(streams[owner], w_opt, inp, noise)
            for owner, (inp, noise) in owner_params.items()
        }
        samples = [group_samples[owner] for owner in owners]
        try:
            states = cta_iteration(states, scenario.trust, samples, mus)
        except DivergenceError as exc:
            agent_id = adaptive[exc.agent].id if exc.agent is not None else None
            raise DivergenceError(
                f"divergence at run {run_index}, iteration {i}, "
                f"agent {agent_id}: {exc}",
                agent=agent_id, iteration=i, run=run_index) from exc
        for aid, st in zip(ordered_ids, states):
            record.ws[aid].append(list(st.w))
            record.es[aid].append(st.e)
        for cfg, sources in zip(averaging, averaging_sources):
            record.ws[cfg.id].append(averaging_update([states[b].w for b in sources]))
            record.es[cfg.id].append(0.0)
    return record


def run(scenario):
    """Execute the full ensemble serially; returns one record per run."""
    records = []
    for r in range(scenario.ensemble):
        try:
            records.append(run_single(scenario, r))
        except DivergenceError as exc:
            exc.completed = records
            raise
    return records


def cost(w, xs, ys):
    """Mean squared residual cost (1/2L) * sum((y_k - w.x_k)^2)."""
    if len(xs) == 0:
        raise ConfigError("empty dataset")
    if len(xs) != len(ys):
        raise ConfigError(f"length mismatch: {len(xs)} inputs, {len(ys)} targets")
    total = 0.0
    for x, y in zip(xs, ys):
        r = y - predict(w, x)
        total += r * r
    return total / (2 * len(xs))


def batch_gd_step(w, xs, ys, mu):
    """One batch gradient-descent step on the mean squared residual cost."""
    if mu <= 0:
        raise ConfigError(f"batch step size must be positive, got {mu}")
    if len(xs) == 0:
        raise ConfigError("empty dataset")
    grad = [0.0] * len(w)
    for x, y in zip(xs, ys):
        r = y - predict(w, x)
        for j, xj in enumerate(x):
            grad[j] += r * xj
    inv_l = 1.0 / len(xs)
    return [wj + mu * inv_l * gj for wj, gj in zip(w, grad)]


def pairwise_combine(w_a, w_b, s_ab):
    """Two-agent combine written as w_a + s_ab*(w_b - w_a)."""
    if not 0.0 <= s_ab <= 1.0:
        raise ConfigError(f"trust coefficient {s_ab} outside [0, 1]")
    if s_ab == 0.0:
        return list(w_a)
    if s_ab == 1.0:
        return list(w_b)
    return [aj + s_ab * (bj - aj) for aj, bj in zip(w_a, w_b)]


def weighted_sum_variance(s_ab, s_ba, var_x, var_y, cov_xy=0.0):
    """Variance of z = s_ab*x + s_ba*y."""
    if var_x < 0 or var_y < 0:
        raise ConfigError("variances must be non-negative")
    return s_ab * s_ab * var_x + s_ba * s_ba * var_y + 2.0 * s_ab * s_ba * cov_xy


def pow2(x):
    """libm's ``pow(x, 2.0)``, as Python's ``x ** 2``, and ``inf`` where it
    overflows: the per-value reference for ``metrics.square``."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _libc():
    """The C library, its glibc version and the long-double significand: the
    premises of ``dlms.libm``, named in the bit tests' failure messages."""
    try:
        confstr = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        confstr = None
    return (f"C library {platform.libc_ver()}, CS_GNU_LIBC_VERSION {confstr!r}, "
            f"long double of {np.finfo(np.longdouble).nmant + 1}-bit significand")


def write_trajectories(path, scenario, record):
    """The trajectory CSV row by row; ``dist_opt`` is ``pow(sq, 0.5)`` of the
    squared distance ``0.0 + pow2(w0 - o0) + pow2(w1 - o1) + ...``."""
    m = len(scenario.w_opt)
    header = (["run", "iteration", "agent"]
              + [f"w{j}" for j in range(m)] + ["e", "dist_opt"])
    order = sorted(range(len(record.agents)), key=record.agents.__getitem__)
    ids = [record.agents[a] for a in order]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(len(record)):
            rows = zip(record.ws[r][:, order].tolist(), record.es[r][:, order].tolist())
            for i, (ws, es) in enumerate(rows, start=1):
                for aid, w, e in zip(ids, ws, es):
                    sq = sum_in_order(pow2(wj - oj) for wj, oj in zip(w, record.w_opt))
                    writer.writerow([r, i, aid, *map(repr, w), repr(e), repr(sq ** 0.5)])


def write_metrics(path, scenario, sums):
    """The metrics CSV row by row: a row per MSD value, each agent's series
    taken from ``sums`` by its id, by agent id and iteration, then the
    report's other rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "agent", "iteration", "value"])
        writer.writerows(["msd", aid, i, v] for aid in sorted(sums.agents)
                         for i, v in enumerate(sums.msd([aid])[:, 0].tolist(), start=1))
        writer.writerows(scenarios.compute_report(scenario, sums)[1])


_M63, _M64 = 2**63 - 1, 2**64 - 1


def rop(g, cp):
    """Giulietti's rop on Python ints: the top bits of g cp / 2^127, with a
    sticky low bit, from the 63-bit halves of g as ``DoubleToDecimal`` does."""
    g1, g0 = g >> 63, g & _M63
    y = g1 * cp
    z = ((y & _M64) >> 1) + (g0 * cp >> 64)
    return ((y >> 64) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


@functools.cache
def _schubfach_g(k):
    r = (-k * 913_124_641_741 >> 38) - 125  # flog2pow10(-k) - 125
    return (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1


def schubfach_ends(bits):
    """Giulietti's k, vb, vbl and vbr (``DoubleToDecimal.toDecimal``) of the
    normal double whose bits are the int ``bits``: three calls of ``rop``,
    the reference for ``floatfmt._ends``."""
    bq, t = (bits >> 52) & 0x7FF, bits & (2**52 - 1)
    q, cb = bq - 1075, (t | 2**52) << 2
    regular = t != 0 or bq == 1
    k = (q * 661_971_961_083 - (0 if regular else 274_743_187_321)) >> 41
    h = q + (-k * 913_124_641_741 >> 38) + 2
    g = _schubfach_g(k)
    cbl = cb - 2 if regular else cb - 1
    return k, rop(g, cb << h), rop(g, cbl << h), rop(g, (cb + 2) << h)


# ---------------------------------------------------------------------------
# Claims on whole records
# ---------------------------------------------------------------------------

def gaps(record, pairs):
    """Per run, one run at a time, the distances |w_p - w_q| [P, L] between
    the estimates of each pair (p, q) of agents."""
    p, q = (np.array([record.agents.index(aid) for aid in ids]) for ids in zip(*pairs))
    for w in record.ws.transpose(0, 3, 2, 1):  # [M, A, L]
        d = w[:, p] - w[:, q]
        yield np.sqrt(sum_in_order(d * d))


def merge_iteration(record, coop_ids):
    """Per run, the first iteration where all cooperative estimates agree
    within DELAY_BAND_FRACTION of |w_opt|, or iterations + 1."""
    threshold = DELAY_BAND_FRACTION * math.sqrt(sum_in_order(x * x for x in record.w_opt))
    pairs = combinations(coop_ids, 2)
    merged = np.array([g.max(axis=0) < threshold for g in gaps(record, pairs)])
    return first_iteration(merged, record.iterations + 1)


def run_paired(scenario, other):
    """``dlms.run`` of ``scenario`` and ``other`` as one scenario (see
    ``claims.pair``): the record and the twins' ids by agent id; on
    divergence, what separate runs raise, ``scenario``'s first."""
    joint, twins = pair(scenario, other)
    try:
        return scenarios.run(joint), twins
    except DivergenceError as exc:  # it may name a twin
        error = exc
    scenarios.run(scenario)  # separate runs, in order, raise their first error, unchained
    scenarios.run(other)
    raise error


def verify_merge(scenario):
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
    record = scenarios.run(scenario)

    mean = sum_in_order(gaps(record, [(aid, avg_id) for aid in coop])) / len(record)
    worst_gap = max([0.0, *mean[:, MERGE_START_ITERATION - 1:].ravel().tolist()])
    return ClaimResult("merge", worst_gap < threshold, {
        "worst_mean_gap": worst_gap,
        "threshold": threshold,
    })


def verify_speedup(scenario):
    coop = _cooperative_ids(scenario, "speedup")
    mus = {cfg.mu for cfg in scenario.agents if cfg.kind == COOPERATIVE}
    if len(mus) < 2:
        raise ConfigError("speedup claim needs heterogeneous learning rates")
    avg_id = _single_averaging_id(scenario)
    band = scenarios.scenario_band(scenario)
    record = scenarios.run(scenario)

    limits = convergence_iteration(record, avg_id, band)
    wins = reduce(and_, (convergence_iteration(record, aid, band) < limits for aid in coop))
    return _paired("speedup", wins, PAIRED_PASS_FRACTION, band=band)


def verify_delay(scenario):
    coop = _cooperative_ids(scenario, "delay")
    if not any(scenario.w_opt):
        raise ConfigError("delay claim needs a nonzero w_opt: its merge band is "
                          f"{DELAY_BAND_FRACTION:.0%} of |w_opt|")
    balanced = balanced_variant(scenario)
    if balanced.trust == scenario.trust:
        raise ConfigError(
            "delay claim needs selfish trust; the scenario's cooperative "
            "rows are already balanced")
    record, twins = run_paired(scenario, balanced)
    selfish_iters, balanced_iters = (merge_iteration(record, ids)
                                     for ids in (coop, [twins[aid] for aid in coop]))
    return _paired("delay", selfish_iters > balanced_iters, PAIRED_PASS_FRACTION,
                   median_selfish_merge=int(sorted(selfish_iters)[len(selfish_iters) // 2]),
                   median_balanced_merge=int(sorted(balanced_iters)[len(balanced_iters) // 2]))


def verify_stabilize(scenario):
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
    first = steady_state_start(scenario.iterations)
    record = scenarios.run(scenario)

    wins = [coop < solo for coop, solo in zip(
        *(steady_state_variance(record.w(aid)[:, first:]) for aid in (noisy.id, twin.id)))]
    return _paired("stabilize", wins, STABILIZE_PASS_FRACTION,
                   cooperative=noisy.id, twin=twin.id)


_VERIFIERS = {"merge": verify_merge, "speedup": verify_speedup,
              "delay": verify_delay, "stabilize": verify_stabilize}


def verify_claim(scenario, claim):
    """The claim's ClaimResult, from ``dlms.run``'s whole record."""
    return _VERIFIERS[claim](scenario)
