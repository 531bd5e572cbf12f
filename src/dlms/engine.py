"""Vectorized ensemble engine for combine-then-adapt networks.

The runs of a scenario that one call simulates (all of them, or a group of
them) advance side by side on numpy arrays in one pass over the iterations;
only the iterations are a Python loop, each one set of numpy calls for every
run. Every floating-point operation is the one the scalar reference
(``tests/oracle.py``'s ``run_single`` over ``network.cta_iteration``)
performs, in the same order, so each run's trajectories are bit-identical to
the reference's:

- combine skips zero trust coefficients, starts from s*w (exactly w when s is
  1.0) and adds the later terms left to right. Rows with fewer terms than
  the longest are padded with terms 1.0 * -0.0, which add nothing, bit for
  bit: x + -0.0 is x for every double, signed zeros, inf and nan included;
- predictions and targets accumulate as 0.0 + t0 + t1 + ..., like sum();
- the LMS update is psi + (mu*e)*x;
- an averaging agent takes (w_s0 + w_s1 + ...) / n.

The signals are drawn a block of iterations at a time, one column per
adaptive agent (a twin's a copy of its stream owner's), so their memory is
bounded and the loop reads them without a gather. The loop keeps its state
component-major with the runs last (see ``_simulate``) and copies each
iteration once into the records, laid out [run, iteration, agent, weight
component]. The pass is the only walk over the records: after each block of
iterations it fills that block's rows of the averaging agents and marks where
each run first diverges, and it stops drawing blocks once the first run has
diverged.

No matrix products are used, because BLAS may reorder the sums. The combine
and the prediction are each one ``np.add.reduce`` over their leading axis,
from an initial -0.0 (-0.0 + t0 is t0 bit for bit) and 0.0 respectively.
numpy adds such an axis in order unless every other extent is 1; then it adds
pairwise, so a lone adaptive agent in one run folds its prediction instead.
"""

import numpy as np

from .errors import DIVERGENCE_BOUND, DivergenceError
from .metrics import EnsembleRecord, sum_in_order
from .prng import derive_seed, gaussian_block

# Values per block of iterations: bounds the signal arrays, N*R*(M+1) values
# an iteration, and the divergence masks, R*N*M an iteration.
_CHUNK_DRAWS = 1 << 16


def _streams(scenario):
    """Stream owners (positions in scenario.agents), in order of their first
    adaptive agent, and per adaptive agent the index of its owner in them."""
    position = {cfg.id: i for i, cfg in enumerate(scenario.agents)}
    owner_of = [position[cfg.counterpart if cfg.counterpart is not None else cfg.id]
                for cfg in scenario.adaptive_agents()]
    owners = list(dict.fromkeys(owner_of))
    return owners, [owners.index(owner) for owner in owner_of]


def run_ensemble(scenario, runs=None):
    """The EnsembleRecord of the scenario's runs.

    ``runs`` are the indices of the runs to simulate, every run of the
    scenario by default; run k is seeded from ``scenario.seed ^ k`` whatever
    runs come with it, so a record of some runs holds the trajectories that
    the same runs have in a record of all of them. On divergence it raises,
    from the marks of _simulate's one pass, the DivergenceError of the first
    divergent run (its index k), naming that run's first divergent iteration
    and the lowest adaptive agent that diverged there, with ``completed`` the
    record of the given runs before it.
    """
    runs = range(scenario.ensemble) if runs is None else runs
    adaptive = scenario.adaptive_agents()
    n = len(adaptive)
    ids = [cfg.id for cfg in adaptive + scenario.averaging_agents()]
    shape = (len(runs), scenario.iterations, len(ids))
    ws, es = np.empty(shape + (len(scenario.w_opt),)), np.zeros(shape)
    # divergent runs carry inf/nan through the loop and the averages
    with np.errstate(all="ignore"):
        marks = _simulate(scenario, runs, ws, es)
    record = EnsembleRecord(w_opt=tuple(scenario.w_opt), agents=ids, ws=ws, es=es)
    if marks.any():
        r = int(marks.nonzero()[0][0])
        i = int(marks[r])
        w, e = ws[r, i - 1, :n], es[r, i - 1, :n]
        a = int(_diverged(w, e).argmax())
        detail = (f"weight estimate diverged: {w[a].tolist()}" if np.isfinite(e[a])
                  else f"non-finite prediction error {float(e[a])}")
        raise DivergenceError(
            f"divergence at run {runs[r]}, iteration {i}, agent {adaptive[a].id}: {detail}",
            agent=adaptive[a].id, iteration=i, run=runs[r], completed=record.head(r))
    return record


def _diverged(w, e):
    """Where an error e [..., N] is non-finite or a weight w [..., N, M] is
    non-finite or beyond DIVERGENCE_BOUND, per agent [..., N]."""
    return ~np.isfinite(e) | ~(np.abs(w) <= DIVERGENCE_BOUND).all(axis=-1)


def _signals(scenario, seeds, start, stop, x, y):
    """Inputs x [L, M, N, R] and targets y [L, N, R] of the N adaptive agents
    at iterations start..stop-1, written into the first L = stop - start rows
    of the buffers ``x`` and ``y`` and returned as views of them, from
    ``seeds``, the R runs' seeds per stream owner (see _streams).

    Each owner draws M+1 Gaussians per iteration (x components, then the
    noise q) with the statistics of its first adaptive agent, from draw
    start*(M+1) on, scaled straight into that agent's column; each twin's
    column is a copy of it.
    """
    adaptive = scenario.adaptive_agents()
    stream = _streams(scenario)[1]
    m, length, runs = len(scenario.w_opt), stop - start, len(seeds[0])
    x, y = x[:length], y[:length]
    for g, owner_seeds in enumerate(seeds):
        first, *twins = [a for a, owner in enumerate(stream) if owner == g]
        cfg = adaptive[first]
        z = gaussian_block(owner_seeds, length * (m + 1), start * (m + 1))
        z = z.reshape(runs, length, m + 1).transpose(1, 2, 0)
        xo, yo = x[:, :, first], y[:, first]
        np.multiply(cfg.input.sd, z[:, :m], out=xo)
        xo += cfg.input.mean
        np.add(0.0, scenario.w_opt[0] * xo[:, 0], out=yo)
        for j in range(1, m):
            yo += scenario.w_opt[j] * xo[:, j]
        yo += cfg.noise.mean + cfg.noise.sd * z[:, m]
        for a in twins:
            x[:, :, a], y[:, a] = xo, yo
    return x, y


def _combine_terms(trust):
    """Nonzero trust terms, K per row (the most of any row): columns and
    coefficients [K, N], laid out [position, row].

    Position k holds each row's k-th nonzero coefficient, so adding the
    positions in order reproduces the scalar combine. A row's missing
    positions point at column N, the pad, which holds -0.0, with coefficient
    1.0: 1.0 * -0.0 is -0.0, and x + -0.0 is x bit for bit for every double x,
    so they change nothing.
    """
    n = trust.size
    terms = [[b for b, s in enumerate(row) if s != 0.0] for row in trust.rows]
    depth = max(map(len, terms))
    cols = np.array([row + [n] * (depth - len(row)) for row in terms]).T
    return cols, np.c_[np.array(trust.rows), np.ones(n)][np.arange(n), cols]


def _simulate(scenario, runs, ws, es):
    """Write the weights ws [R, L, A, M] and errors es [R, L, A] of the R
    ``runs`` and return the marks [R]: per run, the first iteration (from 1)
    where _diverged holds for an adaptive agent, or 0.

    The weights w [M, N, R] of the N adaptive agents are a contiguous view of
    a buffer of M*N + 1 rows of [R] whose last row is the pad, all -0.0 (see
    _combine_terms). A row index [K, M, N] into it and the coefficients
    [K, M, N, R] are built once, so each iteration's combine is one gather of
    whole rows, one multiply and one reduce over K into arrays allocated
    once; every ufunc's last axis is the runs. The prediction reduces the
    products [M, N, R] over M, or folds them one component at a time when
    N = R = 1, and mu*e and the step (mu*e)*x go into arrays allocated once
    too. The signals come a block at a time into one pair of buffers,
    already one column per adaptive agent: the most iterations whose
    N*R*(M+1) values each fit in _CHUNK_DRAWS, at least 2 and even, so each
    block starts on a Box-Muller pair.

    After each block of iterations the loop fills the block's rows of the
    averaging agents and marks it; a block whose weights' min and max lie
    within the bound and whose errors' sum is finite needs no mask. Once run
    0 has a mark, no later block can change the error, so none is drawn.
    """
    adaptive = scenario.adaptive_agents()
    position = {cfg.id: a for a, cfg in enumerate(adaptive)}
    sources = [[position[s] for s in cfg.sources] for cfg in scenario.averaging_agents()]
    owners = _streams(scenario)[0]
    (r, _, _, m), n = ws.shape, len(adaptive)
    cols, coef = _combine_terms(scenario.trust)
    seeds = [[derive_seed(scenario.seed ^ k, owner) for k in runs]
             for owner in owners]
    block = max(2, _CHUNK_DRAWS // (n * r * (m + 1)) // 2 * 2)
    buf = np.full((m * n + 1, r), -0.0)
    w = buf[:-1].reshape(m, n, r)
    w[...] = np.array([cfg.w0 for cfg in adaptive], dtype=np.float64).T[:, :, None]
    slots = np.full((m, n + 1), m * n)  # the buffer row of each w, and the pad
    slots[:, :n] = np.arange(m * n).reshape(m, n)
    index = np.ascontiguousarray(slots[:, cols].swapaxes(0, 1))
    coef = np.broadcast_to(coef[:, None, :, None], (*index.shape, r)).copy()
    mu = np.array([[cfg.mu] * r for cfg in adaptive], dtype=np.float64)
    terms = np.empty(coef.shape)
    psi, products, step = np.empty(w.shape), np.empty(w.shape), np.empty(w.shape)
    pred, mu_e = np.empty(mu.shape), np.empty(mu.shape)
    collapsed = n * r == 1  # numpy would add products [M, 1, 1] pairwise
    marks = np.zeros(r, dtype=int)
    # views of the adaptive agents that each iteration indexes on axis 0 only
    wl, el = ws[..., :n, :].transpose(1, 3, 2, 0), es[..., :n].transpose(1, 2, 0)
    # one pair of signal buffers serves every block; a fresh pair per block
    # would have the C allocator return and fault in their pages each block
    size = min(block, scenario.iterations)
    xs, ys = np.empty((size, m, n, r)), np.empty((size, n, r))
    for start in range(0, scenario.iterations, block):
        stop = min(start + block, scenario.iterations)
        x, y = _signals(scenario, seeds, start, stop, xs, ys)
        # take() gathers the same values as fancy indexing, with less overhead
        for xi, yi, wi, ei in zip(x, y, wl[start:stop], el[start:stop]):
            np.multiply(coef, buf.take(index, axis=0), out=terms)
            np.add.reduce(terms, axis=0, initial=-0.0, out=psi)
            np.multiply(psi, xi, out=products)
            if collapsed:
                pred[...] = sum_in_order(products)
            else:
                np.add.reduce(products, axis=0, initial=0.0, out=pred)
            ei[...] = np.subtract(yi, pred, out=pred)
            np.multiply(mu, pred, out=mu_e)
            np.multiply(mu_e, xi, out=step)
            wi[...] = np.add(psi, step, out=w)
        rows = ws[:, start:stop]
        for a, (first, *rest) in enumerate(sources, start=n):
            total = rows[:, :, a]  # summed in place, (w_s0 + w_s1 + ...) / n
            total[...] = rows[:, :, first]
            for b in rest:
                total += rows[:, :, b]
            total /= len(rest) + 1
        wb, eb = rows[:, :, :n], es[:, start:stop, :n]
        if not (-DIVERGENCE_BOUND <= wb.min() and wb.max() <= DIVERGENCE_BOUND
                and np.isfinite(eb.sum())):
            hit = _diverged(wb, eb).any(axis=-1)  # [R, iteration]
            new = (marks == 0) & hit.any(axis=-1)
            marks[new] = start + 1 + hit.argmax(axis=-1)[new]
            if marks[0]:
                break
    return marks
