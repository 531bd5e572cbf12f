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
  1.0) and adds the later terms left to right. Rows with fewer terms than
  the longest are padded with terms 1.0 * -0.0, which add nothing, bit for
  bit: x + -0.0 is x for every double, signed zeros, inf and nan included;
- predictions and targets accumulate as 0.0 + t0 + t1 + ..., like sum();
- the LMS update is psi + (mu*e)*x;
- an averaging agent takes (w_s0 + w_s1 + ...) / n.

The signals are drawn a block of iterations at a time, which bounds their
memory. The loop keeps its state component-major with the runs last (see
``_simulate``) and copies each iteration once into the records, laid out
[variant, run, iteration, agent, weight component]. The averaging agents
are filled in and divergence is looked for once the pass is over.

No matrix products are used, because BLAS may reorder the sums. The combine
and the prediction are each one ``np.add.reduce`` over their leading axis,
from an initial -0.0 (-0.0 + t0 is t0 bit for bit) and 0.0 respectively.
numpy adds such an axis in order unless every other extent is 1; then it adds
pairwise, so a lone adaptive agent in one run folds its prediction instead.
"""

from functools import reduce

import numpy as np

from .errors import DIVERGENCE_BOUND, DivergenceError
from .metrics import EnsembleRecord, sum_in_order
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
                total = reduce(np.add, (run[:, index[s]] for s in cfg.sources))
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
    """Nonzero trust terms, K per row (the most of any row): columns [K, N]
    and coefficients [K, N, V], laid out [position, row, variant].

    Position k holds each row's k-th nonzero coefficient, so adding the
    positions in order reproduces the scalar combine. A row's missing
    positions point at column N, the pad, which holds -0.0, with coefficient
    1.0: 1.0 * -0.0 is -0.0, and x + -0.0 is x bit for bit for every double x,
    so they change nothing. ValueError if the nonzero patterns differ.
    """
    terms, *others = ([[b for b, s in enumerate(row) if s != 0.0] for row in trust.rows]
                      for trust in trusts)
    if any(pattern != terms for pattern in others):
        raise ValueError("trust matrices of the variants differ in their nonzero pattern")
    n, depth = len(terms), max(len(t) for t in terms)
    cols = np.full((depth, n), n)
    coef = np.ones((depth, n, len(trusts)))
    for a, row in enumerate(terms):
        cols[:len(row), a] = row
        coef[:len(row), a] = [[trust.rows[a][b] for trust in trusts] for b in row]
    return cols, coef


def _simulate(scenario, terms, ws, es):
    """Write the adaptive agents' weights ws [V, R, L, N, M] and errors
    es [V, R, L, N], one variant per column of the combine terms.

    The weights w [M, N, V, R] are a contiguous view of a buffer of M*N + 1
    rows of [V, R] whose last row is the pad, all -0.0 (see _combine_terms).
    A row index [K, M, N] into it and the coefficients [K, M, N, V, R] are
    built once, so each iteration's combine is one gather of whole rows, one
    multiply and one reduce over K into arrays allocated once; every ufunc's
    last axis is the runs. The prediction reduces the products [M, N, V, R]
    over M, or folds them one component at a time when N = V = R = 1. The
    signals come a block at a time: the most iterations whose draws fit in
    _CHUNK_DRAWS, at least 2 and even, so each starts on a Box-Muller pair.
    """
    adaptive = scenario.adaptive_agents()
    owners, stream = _streams(scenario)
    stream = np.array(stream)
    (v, r, _, n, m), (cols, coef) = ws.shape, terms
    seeds = [[derive_seed(scenario.seed ^ k, owner) for k in range(r)]
             for owner in owners]
    block = max(2, _CHUNK_DRAWS // (len(owners) * r * (m + 1)) // 2 * 2)
    buf = np.full((m * n + 1, v, r), -0.0)
    w = buf[:-1].reshape(m, n, v, r)
    w[...] = np.array([cfg.w0 for cfg in adaptive], dtype=np.float64).T[:, :, None, None]
    slots = np.full((m, n + 1), m * n)  # the buffer row of each w, and the pad
    slots[:, :n] = np.arange(m * n).reshape(m, n)
    index = np.ascontiguousarray(slots[:, cols].swapaxes(0, 1))
    coef = np.broadcast_to(coef[:, None, :, :, None], (*index.shape, v, r)).copy()
    mu = np.array([[[cfg.mu] * r] * v for cfg in adaptive], dtype=np.float64)
    terms, psi, products = np.empty(coef.shape), np.empty(w.shape), np.empty(w.shape)
    collapsed = n * v * r == 1  # numpy would add products [M, 1, 1, 1] pairwise
    # views that each iteration indexes on axis 0 only
    ws, es = ws.transpose(2, 4, 3, 0, 1), es.transpose(2, 3, 0, 1)
    for start in range(0, scenario.iterations, block):
        stop = min(start + block, scenario.iterations)
        x = y = xi = yi = None  # drop the last block's signals before drawing the next
        x, y = _signals(scenario, seeds, start, stop)
        x, y = x[:, :, :, None], y[:, :, None]  # gain a V axis
        # take() gathers the same values as fancy indexing, with less overhead
        for xi, yi, wi, ei in zip(x, y, ws[start:stop], es[start:stop]):
            np.multiply(coef, buf.take(index, axis=0), out=terms)
            np.add.reduce(terms, axis=0, initial=-0.0, out=psi)
            xi = xi.take(stream, axis=1)
            np.multiply(psi, xi, out=products)
            pred = (sum_in_order(products) if collapsed
                    else np.add.reduce(products, axis=0, initial=0.0))
            ei[...] = e = np.subtract(yi.take(stream, axis=0), pred, out=pred)
            wi[...] = np.add(psi, (mu * e) * xi, out=w)


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
