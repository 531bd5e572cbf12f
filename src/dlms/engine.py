"""Vectorized ensemble engine for combine-then-adapt networks.

The runs of a scenario advance side by side on numpy arrays indexed
[iteration, run, adaptive agent, weight component]; only the iterations are
a Python loop. Every floating-point operation is the one the scalar
reference (``network.cta_iteration`` over ``filters.lms_step``) performs, in
the same order, so trajectories are bit-identical to it:

- combine skips zero trust coefficients, starts from s*w (exactly w when s is
  1.0) and adds the later terms left to right;
- predictions and targets accumulate as 0.0 + t0 + t1 + ..., like sum();
- the LMS update is psi + (mu*e)*x;
- an averaging agent takes (w_s0 + w_s1 + ...) / n.

Each chunk of runs is copied into one EnsembleRecord laid out [run,
iteration, agent, weight component], where the averaging agents are added.

No matrix products are used, because BLAS may reorder the sums.
"""

import numpy as np

from .errors import DivergenceError
from .filters import DIVERGENCE_BOUND
from .metrics import EnsembleRecord
from .prng import derive_seed, gaussian_block

# Gaussian draws per chunk of runs; bounds the size of the engine's arrays.
_CHUNK_DRAWS = 1 << 20


def _stream_owners(scenario):
    """Stream-owner index (position in scenario.agents) per adaptive agent."""
    position = {cfg.id: i for i, cfg in enumerate(scenario.agents)}
    return [position[cfg.counterpart if cfg.counterpart is not None else cfg.id]
            for cfg in scenario.adaptive_agents()]


def run_ensemble(scenario):
    """Every run of the scenario, in run order, as one EnsembleRecord.

    Runs are simulated in chunks of a fixed number of Gaussian draws. On
    divergence it raises DivergenceError naming the first divergent run, its
    first divergent iteration and the lowest adaptive agent that diverged
    there; ``completed`` is the record of the runs before it.
    """
    adaptive = scenario.adaptive_agents()
    averaging = scenario.averaging_agents()
    n = len(adaptive)
    ids = [cfg.id for cfg in adaptive + averaging]
    index = {aid: a for a, aid in enumerate(ids)}
    m = len(scenario.w_opt)
    shape = (scenario.ensemble, scenario.iterations, len(ids))
    record = EnsembleRecord(w_opt=tuple(scenario.w_opt), agents=ids,
                            ws=np.empty(shape + (m,)), es=np.zeros(shape))
    streams = len(set(_stream_owners(scenario)))
    chunk = max(1, _CHUNK_DRAWS // (streams * scenario.iterations * (m + 1)))
    for start in range(0, scenario.ensemble, chunk):
        runs = range(start, min(start + chunk, scenario.ensemble))
        # divergent runs carry inf/nan through the rest of the loop
        with np.errstate(all="ignore"):
            ws, es = _simulate(scenario, runs)
            error = _first_divergence(scenario, runs, ws, es)
            stop = runs.stop if error is None else error.run
            block = record.ws[start:stop]
            block[:, :, :n] = ws[:, :stop - start].transpose(1, 0, 2, 3)
            record.es[start:stop, :, :n] = es[:, :stop - start].transpose(1, 0, 2)
            for a, cfg in enumerate(averaging, start=n):
                first, *rest = (index[s] for s in cfg.sources)
                total = block[:, :, first]
                for b in rest:
                    total = total + block[:, :, b]
                block[:, :, a] = total / len(cfg.sources)
        if error is not None:
            error.completed = record.head(stop)
            raise error
    return record


def _signals(scenario, runs):
    """Inputs x [L, R, N, M] and targets y [L, R, N] of every adaptive agent.

    Each stream owner draws M+1 Gaussians per iteration (x components, then
    the noise q); a twin reads its counterpart's draws.
    """
    adaptive = scenario.adaptive_agents()
    owners = _stream_owners(scenario)
    groups = list(dict.fromkeys(owners))
    group_of = [groups.index(owner) for owner in owners]
    # an owner's statistics are those of its first adaptive agent
    params = [adaptive[owners.index(g)] for g in groups]
    m = len(scenario.w_opt)
    seeds = [derive_seed(scenario.seed ^ r, g) for r in runs for g in groups]
    z = gaussian_block(seeds, scenario.iterations * (m + 1))
    z = z.reshape(len(runs), len(groups), scenario.iterations, m + 1)

    def column(values):
        return np.array(values, dtype=np.float64)[:, None]

    x = (column([cfg.input.mean for cfg in params])[..., None]
         + column([cfg.input.sd for cfg in params])[..., None] * z[..., :m])
    q = (column([cfg.noise.mean for cfg in params])
         + column([cfg.noise.sd for cfg in params]) * z[..., m])
    y = 0.0 + scenario.w_opt[0] * x[..., 0]
    for j in range(1, m):
        y += scenario.w_opt[j] * x[..., j]
    y += q
    x = np.ascontiguousarray(x[:, group_of].transpose(2, 0, 1, 3))
    y = np.ascontiguousarray(y[:, group_of].transpose(2, 0, 1))
    return x, y


def _combine_terms(trust):
    """Nonzero trust terms as (rows, cols, coefficients) per term position.

    Position k holds the k-th nonzero coefficient of every row that has one,
    so adding the positions in order reproduces the scalar combine.
    """
    terms = [[(b, s) for b, s in enumerate(row) if s != 0.0] for row in trust.rows]
    out = []
    for k in range(max(len(t) for t in terms)):
        rows = [a for a, t in enumerate(terms) if len(t) > k]
        out.append((np.array(rows),
                    np.array([terms[a][k][0] for a in rows]),
                    np.array([terms[a][k][1] for a in rows])[:, None]))
    return out


def _simulate(scenario, runs):
    """Adaptive-agent weights w [L, R, N, M] and errors e [L, R, N] of the runs."""
    adaptive = scenario.adaptive_agents()
    x, y = _signals(scenario, runs)
    (_, first_cols, first_coef), *later = _combine_terms(scenario.trust)
    mu = np.array([cfg.mu for cfg in adaptive], dtype=np.float64)
    m = len(scenario.w_opt)
    ws = np.empty(x.shape)
    es = np.empty(y.shape)
    w = np.broadcast_to(np.array([cfg.w0 for cfg in adaptive], dtype=np.float64),
                        x.shape[1:])
    for i in range(scenario.iterations):
        psi = first_coef * w[:, first_cols]
        for rows, cols, coef in later:
            psi[:, rows] += coef * w[:, cols]
        xi = x[i]
        pred = 0.0 + psi[..., 0] * xi[..., 0]
        for j in range(1, m):
            pred += psi[..., j] * xi[..., j]
        e = np.subtract(y[i], pred, out=es[i])
        w = np.add(psi, (mu * e)[..., None] * xi, out=ws[i])
    return ws, es


def _first_divergence(scenario, runs, ws, es):
    """DivergenceError for the first divergent run, or None.

    Within a run the scalar loop stops at the first iteration where, in
    agent order, an error is non-finite or a new weight is non-finite or
    beyond DIVERGENCE_BOUND; the message names that check's value.
    """
    bad_e = ~np.isfinite(es)
    bad = bad_e | ~(np.abs(ws) <= DIVERGENCE_BOUND).all(axis=-1)
    bad_runs = bad.any(axis=(0, 2))
    if not bad_runs.any():
        return None
    r = int(bad_runs.argmax())
    i = int(bad[:, r].any(axis=-1).argmax())
    a = int(bad[i, r].argmax())
    if bad_e[i, r, a]:
        detail = f"non-finite prediction error {float(es[i, r, a])}"
    else:
        detail = f"weight estimate diverged: {ws[i, r, a].tolist()}"
    agent_id = scenario.adaptive_agents()[a].id
    run_index = runs[r]
    return DivergenceError(
        f"divergence at run {run_index}, iteration {i + 1}, "
        f"agent {agent_id}: {detail}",
        agent=agent_id, iteration=i + 1, run=run_index)
