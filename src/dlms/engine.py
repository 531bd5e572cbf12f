"""Vectorized ensemble engine for combine-then-adapt networks.

Every run of a scenario advances side by side on numpy arrays in one pass
over the iterations; only the iterations are a Python loop. Variants of a
scenario whose trust matrices share one nonzero pattern (a single run is one
variant) share one draw of the signals and are stacked on a variant axis
with per-variant combine coefficients, so each iteration is one set of numpy
calls for all of them. Every floating-point operation is the one the scalar
reference (``tests/oracle.py``'s ``run_single`` over
``network.cta_iteration``) performs for that variant, in the same order, so
each variant's trajectories are bit-identical to a separate run of it:

- combine skips zero trust coefficients, starts from s*w (exactly w when s is
  1.0) and adds the later terms left to right;
- predictions and targets accumulate as 0.0 + t0 + t1 + ..., like sum();
- the LMS update is psi + (mu*e)*x;
- an averaging agent takes (w_s0 + w_s1 + ...) / n.

The signals are drawn a block of iterations at a time, which bounds their
memory. The loop keeps its state component-major with the runs last (see
``_simulate``) and copies each iteration once into the records, laid out
[variant, run, iteration, agent, weight component]. The averaging agents
are filled in and divergence is looked for once the pass is over.

No matrix products are used, because BLAS may reorder the sums.
"""

import numpy as np

from .errors import DIVERGENCE_BOUND, DivergenceError
from .metrics import EnsembleRecord
from .prng import derive_seed, gaussian_block

# Gaussian draws per block of iterations; bounds the size of the signal arrays.
_CHUNK_DRAWS = 1 << 20


def _streams(scenario):
    """Stream owners (positions in scenario.agents), in order of their first
    adaptive agent, and per adaptive agent the index of its owner in them."""
    position = {cfg.id: i for i, cfg in enumerate(scenario.agents)}
    owner_of = [position[cfg.counterpart if cfg.counterpart is not None else cfg.id]
                for cfg in scenario.adaptive_agents()]
    owners = list(dict.fromkeys(owner_of))
    return owners, [owners.index(owner) for owner in owner_of]


def run_ensemble(scenario, trusts):
    """Every run of the scenario under each trust matrix, one EnsembleRecord each.

    ``trusts`` stands in for ``scenario.trust`` (a single run passes
    ``[scenario.trust]``); its matrices must share one nonzero pattern, or
    ValueError is raised before anything runs. On divergence it raises what
    separate runs in variant order would: the DivergenceError of the first
    variant that diverges, naming its first divergent run, that run's first
    divergent iteration and the lowest adaptive agent that diverged there,
    with ``completed`` that variant's record of the runs before it.
    """
    terms = _combine_terms(trusts)
    adaptive = scenario.adaptive_agents()
    averaging = scenario.averaging_agents()
    n = len(adaptive)
    ids = [cfg.id for cfg in adaptive + averaging]
    index = {aid: a for a, aid in enumerate(ids)}
    shape = (len(trusts), scenario.ensemble, scenario.iterations, len(ids))
    ws, es = np.empty(shape + (len(scenario.w_opt),)), np.zeros(shape)
    # divergent runs carry inf/nan through the loop and the averages
    with np.errstate(all="ignore"):
        _simulate(scenario, terms, ws[..., :n, :], es[..., :n])
        for run in ws.reshape(-1, *ws.shape[2:]):  # [L, A, M], a run at a time
            for a, cfg in enumerate(averaging, start=n):
                first, *rest = (index[s] for s in cfg.sources)
                total = run[:, first]
                for b in rest:
                    total = total + run[:, b]
                run[:, a] = total / len(cfg.sources)
    records = [EnsembleRecord(w_opt=tuple(scenario.w_opt), agents=ids,
                              ws=ws[v], es=es[v]) for v in range(len(trusts))]
    for record in records:
        error = _first_divergence(scenario, record.ws[..., :n, :], record.es[..., :n])
        if error is not None:
            error.completed = record.head(error.run)
            raise error
    return records


def _signals(scenario, seeds, start, stop):
    """Inputs x [L, M, G, R] and targets y [L, G, R] of the G stream owners
    at iterations start..stop-1, from ``seeds``, the R runs' seeds per owner.

    Each owner draws M+1 Gaussians per iteration (x components, then the
    noise q) with the statistics of its first adaptive agent, from draw
    start*(M+1) on; a twin reads its counterpart's draws, scaled straight
    into this layout.
    """
    adaptive = scenario.adaptive_agents()
    stream = _streams(scenario)[1]
    m, length, runs = len(scenario.w_opt), stop - start, len(seeds[0])
    x = np.empty((length, m, len(seeds), runs))
    y = np.empty((length, len(seeds), runs))
    for g, owner_seeds in enumerate(seeds):
        cfg = adaptive[stream.index(g)]
        z = gaussian_block(owner_seeds, length * (m + 1), start * (m + 1))
        z = z.reshape(runs, length, m + 1).transpose(1, 2, 0)
        xo, yo = x[:, :, g], y[:, g]
        np.multiply(cfg.input.sd, z[:, :m], out=xo)
        xo += cfg.input.mean
        np.add(0.0, scenario.w_opt[0] * xo[:, 0], out=yo)
        for j in range(1, m):
            yo += scenario.w_opt[j] * xo[:, j]
        yo += cfg.noise.mean + cfg.noise.sd * z[:, m]
    return x, y


def _combine_terms(trusts):
    """Nonzero trust terms as (rows, cols, coefficients) per term position.

    Position k holds the k-th nonzero coefficient of every row that has one,
    so adding the positions in order reproduces the scalar combine. The
    coefficients are laid out [row, variant]. Consecutive rows are a slice,
    which adds in place on a view instead of through a gather and a scatter.
    ValueError if the matrices' nonzero patterns differ.
    """
    support = [[[b for b, s in enumerate(row) if s != 0.0] for row in trust.rows]
               for trust in trusts]
    if any(pattern != support[0] for pattern in support[1:]):
        raise ValueError("trust matrices of the variants differ in their nonzero pattern")
    terms = support[0]
    out = []
    for k in range(max(len(t) for t in terms)):
        rows = [a for a, t in enumerate(terms) if len(t) > k]
        cols = [terms[a][k] for a in rows]
        coef = np.array([[trust.rows[a][b] for trust in trusts]
                         for a, b in zip(rows, cols)], dtype=np.float64)
        if rows == list(range(rows[0], rows[-1] + 1)):
            rows = slice(rows[0], rows[-1] + 1)
        out.append((rows, np.array(cols), coef))
    return out


def _simulate(scenario, terms, ws, es):
    """Write the adaptive agents' weights ws [V, R, L, N, M] and errors
    es [V, R, L, N], one variant per column of the combine terms.

    The weights are one contiguous [M, N, V, R] array and the combine
    coefficients [M, rows, V, R] and mu [N, V, R] are broadcast once, so each
    iteration's ufuncs run on contiguous operands whose last axis is the runs.
    The signals come a block at a time: the most iterations whose draws fit
    in _CHUNK_DRAWS, at least 2 and even, so each starts on a Box-Muller pair.
    """
    adaptive = scenario.adaptive_agents()
    owners, stream = _streams(scenario)
    stream = np.array(stream)
    m, (v, r) = len(scenario.w_opt), ws.shape[:2]
    seeds = [[derive_seed(scenario.seed ^ k, owner) for k in range(r)]
             for owner in owners]
    block = max(2, _CHUNK_DRAWS // (len(owners) * r * (m + 1)) // 2 * 2)
    (_, first_cols, first_coef), *later = [
        (rows, cols, np.broadcast_to(coef[:, :, None], (m, len(cols), v, r)).copy())
        for rows, cols, coef in terms]
    mu = np.array([[[cfg.mu] * r] * v for cfg in adaptive], dtype=np.float64)
    w = np.array([cfg.w0 for cfg in adaptive], dtype=np.float64).T[:, :, None, None]
    # views that each iteration indexes on axis 0 only
    ws, es = ws.transpose(2, 4, 3, 0, 1), es.transpose(2, 3, 0, 1)
    for start in range(0, scenario.iterations, block):
        stop = min(start + block, scenario.iterations)
        x = y = None  # drop the last block's signals before drawing the next
        x, y = _signals(scenario, seeds, start, stop)
        x, y = x[:, :, :, None], y[:, :, None]  # gain a V axis
        # take() gathers the same values as fancy indexing, with less overhead
        for i in range(start, stop):
            psi = first_coef * w.take(first_cols, axis=1)
            for rows, cols, coef in later:
                psi[:, rows] += coef * w.take(cols, axis=1)
            xi = x[i - start].take(stream, axis=1)
            products = psi * xi
            pred = 0.0 + products[0]
            for j in range(1, m):
                pred += products[j]
            es[i] = e = np.subtract(y[i - start].take(stream, axis=0), pred, out=pred)
            ws[i] = w = np.add(psi, (mu * e) * xi, out=psi)


def _first_divergence(scenario, ws, es):
    """DivergenceError for the first divergent run, or None.

    Takes one variant's adaptive weights ws [R, L, N, M] and errors
    es [R, L, N] and checks them a run at a time, so no temporary is larger
    than one run. Within a run the scalar loop stops at the first iteration
    where, in agent order, an error is non-finite or a new weight is
    non-finite or beyond DIVERGENCE_BOUND; the message names that check's
    value.
    """
    for run, (w, e) in enumerate(zip(ws, es)):
        bad_e = ~np.isfinite(e)
        bad = bad_e | ~(np.abs(w) <= DIVERGENCE_BOUND).all(axis=-1)
        if bad.any():
            i = int(bad.any(axis=-1).argmax())
            a = int(bad[i].argmax())
            if bad_e[i, a]:
                detail = f"non-finite prediction error {float(e[i, a])}"
            else:
                detail = f"weight estimate diverged: {w[i, a].tolist()}"
            agent_id = scenario.adaptive_agents()[a].id
            return DivergenceError(
                f"divergence at run {run}, iteration {i + 1}, agent {agent_id}: {detail}",
                agent=agent_id, iteration=i + 1, run=run)
    return None
