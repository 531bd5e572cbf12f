"""Vectorized ensemble engine for combine-then-adapt networks.

The runs of a scenario that one call simulates (all of them, or a group of
them) advance side by side on numpy arrays in one pass over the iterations;
only the iterations are a Python loop, each one set of numpy calls for every
run. Every floating-point operation is the one the scalar reference
(``tests/oracle.py``'s ``run_single`` over ``network.cta_iteration``)
performs, in the same order, but for the prediction's first add, so each
run's trajectories are bit-identical to the reference's:

- combine skips zero trust coefficients, starts from s*w (exactly w when s is
  1.0) and adds the later terms left to right, each with one ``add`` into
  the first term, in place. Rows with fewer terms than the longest are
  padded with terms 1.0 * -0.0, which add nothing, bit for bit: x + -0.0 is
  x for every double, signed zeros, inf and nan included;
- targets accumulate as 0.0 + t0 + t1 + ..., like sum(); the prediction
  folds its M products the same way into the first, p0 + p1 + ... (no add
  at M = 1). It differs from the reference's 0.0 + p0 + p1 + ... only in the
  sign of a zero, and no error shows it: a fold from +0.0 is never -0.0, so
  neither is a target y, and y - 0.0 is y - -0.0 for every y but -0.0;
- the LMS update is psi + (mu*e)*x;
- an averaging agent takes (w_s0 + w_s1 + ...) / n.

The signals are drawn a block of iterations at a time, one column per
adaptive agent (a twin's a copy of its stream owner's), so their memory is
bounded and the loop reads them without a gather. Each owner's draws are
scaled, and its targets folded, in the draws' own layout [run, iteration,
draw], not with the runs last, where a narrow ensemble would make every
inner loop a few values long; the result is copied once into each of the
owner's columns. The loop keeps its state component-major with the runs last
(see ``_simulate``) and copies each iteration once into a block of records,
laid out [run, iteration, agent, weight component]. The pass is the only
walk over the records: after each block of iterations it fills that block's
rows of the averaging agents, scans them for divergence and hands the block
on, and it stops drawing blocks once the first run has diverged.
``run_ensemble`` has the blocks written straight into the record of every
iteration; ``blocks`` hands a claim one block of every run at a time, so its
memory grows with the ensemble, not the horizon; ``groups`` hands ``dlms
run`` whole horizons a group of runs at a time.

No matrix products are used, because BLAS may reorder the sums, and no
``reduce``: every sum above is a chain of two-operand adds. The loop binds
its ufuncs and makes every view of its buffers once, and passes ``out``
positionally: on a narrow ensemble numpy's fixed cost per call, keyword
parsing included, outweighs the arithmetic on a few dozen values.
"""

from dataclasses import replace

import numpy as np

from .errors import DIVERGENCE_BOUND, DivergenceError
from .metrics import EnsembleRecord
from .prng import derive_seed, gaussian_block

# Values per block of iterations (the signals' N*R*(M+1) an iteration, the
# divergence masks' R*N*M); a group of runs holds at most twice as many estimates.
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
    the same runs have in a record of all of them. _simulate writes each
    block of iterations straight into the record. On divergence it raises
    _simulate's DivergenceError, with ``completed`` the record of the given
    runs before the divergent one.
    """
    runs = range(scenario.ensemble) if runs is None else runs
    record = _record(scenario, len(runs), scenario.iterations)
    for _ in _simulate(scenario, runs, record):
        pass
    return record


def blocks(scenario):
    """The scenario's ensemble, every run a block of iterations at a time.

    Yields per block its first iteration's index ``start`` and an
    EnsembleRecord of every run's iterations start + 1 on, whose arrays the
    next block overwrites. On divergence it raises, after the block that
    decides it, what ``run_ensemble`` raises, with ``completed`` None. The
    consumer's loop runs under ``np.errstate(all="ignore")`` as the engine
    does: a divergent run's blocks may hold inf and nan until then.
    """
    return _simulate(scenario, range(scenario.ensemble))


def groups(scenario):
    """Whole-horizon records of consecutive runs, each of as many runs as hold
    at most 2 * _CHUNK_DRAWS estimates, one at least. On divergence the
    divergent group's completed runs, if any, come before run_ensemble's error."""
    values = scenario.iterations * len(scenario.agents) * len(scenario.w_opt)
    size = max(1, 2 * _CHUNK_DRAWS // values)
    for first in range(0, scenario.ensemble, size):
        try:
            record = run_ensemble(scenario, range(first, min(first + size, scenario.ensemble)))
        except DivergenceError as exc:
            if len(exc.completed):
                yield exc.completed
            raise
        yield record
        del record  # not held while the next group is simulated


def _record(scenario, runs, iterations):
    """An EnsembleRecord to fill, its agents in column order: adaptive, then averaging."""
    ids = [cfg.id for cfg in scenario.adaptive_agents() + scenario.averaging_agents()]
    shape = (runs, iterations, len(ids))
    return EnsembleRecord(w_opt=tuple(scenario.w_opt), agents=ids,
                          ws=np.empty(shape + (len(scenario.w_opt),)), es=np.zeros(shape))


def _divergence(adaptive, run, iteration, w, e):
    """The DivergenceError of ``run`` at ``iteration``, naming the lowest
    adaptive agent that diverged there, from the weights w [N, M] and errors
    e [N] of that iteration."""
    a = int(_diverged(w, e).argmax())
    detail = (f"weight estimate diverged: {w[a].tolist()}" if np.isfinite(e[a])
              else f"non-finite prediction error {float(e[a])}")
    return DivergenceError(
        f"divergence at run {run}, iteration {iteration}, agent {adaptive[a].id}: {detail}",
        agent=adaptive[a].id, iteration=iteration, run=run)


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
    noise q) from draw start*(M+1) on, [R, L, M+1] with the runs first, and
    scales them in that layout with the statistics of its first adaptive
    agent; the result is copied once into the column of each adaptive agent
    it feeds, its own and its twins'.
    """
    adaptive = scenario.adaptive_agents()
    stream = _streams(scenario)[1]
    w_opt, m, length = scenario.w_opt, len(scenario.w_opt), stop - start
    x, y = x[:length], y[:length]
    for g, owner_seeds in enumerate(seeds):
        columns = [a for a, owner in enumerate(stream) if owner == g]
        cfg = adaptive[columns[0]]
        z = gaussian_block(owner_seeds, length * (m + 1), start * (m + 1))
        z = z.reshape(len(owner_seeds), length, m + 1)
        xo = z[:, :, :m]
        xo *= cfg.input.sd
        xo += cfg.input.mean
        yo = 0.0 + w_opt[0] * xo[:, :, 0]
        for j in range(1, m):
            yo += w_opt[j] * xo[:, :, j]
        yo += cfg.noise.mean + cfg.noise.sd * z[:, :, m]
        for a in columns:
            x[:, :, a], y[:, a] = xo.transpose(1, 2, 0), yo.T
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


def _simulate(scenario, runs, record=None):
    """Simulate the R ``runs`` a block of iterations at a time and yield per
    block its first iteration's index ``start`` and an EnsembleRecord of its
    weights ws [R, B, A, M] and errors es [R, B, A]: views of ``record``'s
    arrays when it is the record of every iteration, else of one block's
    buffers that every block reuses. On divergence it raises, once no later
    block can change it, the DivergenceError of the first divergent run,
    with ``completed`` the given ``record``'s runs before it (None without one).

    The weights w [M, N, R] of the N adaptive agents are a contiguous view of
    a buffer of M*N + 1 rows of [R] whose last row is the pad, all -0.0 (see
    _combine_terms). A row index [K, M, N] into it and the coefficients
    [K, M, N, R] are built once, so each iteration's combine is one gather of
    whole rows, one multiply and K - 1 adds into the first term, in arrays
    allocated once; every ufunc's last axis is the runs. The prediction
    folds the products [M, N, R] into the first component, where the error
    then replaces it, and mu*e and the step (mu*e)*x go into arrays
    allocated once too. The signals come a block at a time into
    one pair of buffers, already one column per adaptive agent: the most
    iterations whose N*R*(M+1) values each fit in _CHUNK_DRAWS, at least 2
    and even, so each block starts on a Box-Muller pair. Every buffer is
    allocated before the per-run seeds are derived, so an ensemble too large
    for memory fails at once.

    After each block of iterations the loop fills the block's rows of the
    averaging agents and scans it for divergence; a block whose weights' min
    and max lie within the bound and whose errors' sum is finite needs no
    mask. The error of a divergent run below every one found so far is
    built while its block is at hand. Once run 0 has diverged, no later
    block can change the error, so none is drawn.
    """
    adaptive = scenario.adaptive_agents()
    position = {cfg.id: a for a, cfg in enumerate(adaptive)}
    sources = [[position[s] for s in cfg.sources] for cfg in scenario.averaging_agents()]
    r, n, m, length = len(runs), len(adaptive), len(scenario.w_opt), scenario.iterations
    block = max(2, _CHUNK_DRAWS // (n * r * (m + 1)) // 2 * 2)
    size = min(block, length)
    whole = record is not None
    if not whole:
        record = _record(scenario, r, size)
    buf = np.full((m * n + 1, r), -0.0)
    # one pair of signal buffers serves every block; a fresh pair per block
    # would have the C allocator return and fault in their pages each block
    xs, ys = np.empty((size, m, n, r)), np.empty((size, n, r))
    cols, coef = _combine_terms(scenario.trust)
    w = buf[:-1].reshape(m, n, r)
    w[...] = np.array([cfg.w0 for cfg in adaptive], dtype=np.float64).T[:, :, None]
    slots = np.full((m, n + 1), m * n)  # the buffer row of each w, and the pad
    slots[:, :n] = np.arange(m * n).reshape(m, n)
    index = np.ascontiguousarray(slots[:, cols].swapaxes(0, 1))
    coef = np.broadcast_to(coef[:, None, :, None], (*index.shape, r)).copy()
    mu = np.array([cfg.mu for cfg in adaptive], dtype=np.float64)[:, None].repeat(r, axis=1)
    terms, products = np.empty(coef.shape), np.empty(w.shape)
    mu_e, step = np.empty(mu.shape), np.empty(w.shape)
    # each sum's first term, which the later ones are added into, in order
    psi, later_terms = terms[0], list(terms[1:])
    pred, later_products = products[0], list(products[1:])
    seeds = [[derive_seed(scenario.seed ^ k, owner) for k in runs]
             for owner in _streams(scenario)[0]]
    failed, error = r, None  # the first divergent run so far, r for none
    # bound once and called positionally: numpy's per-call cost rules narrow ensembles
    multiply, subtract, add, take = np.multiply, np.subtract, np.add, buf.take
    # divergent runs carry inf/nan through the loop and the averages
    with np.errstate(all="ignore"):
        for start in range(0, length, block):
            stop = min(start + block, length)
            at = start if whole else 0
            rows = replace(record, ws=record.ws[:, at:at + stop - start],
                           es=record.es[:, at:at + stop - start])
            wb, eb = rows.ws[:, :, :n], rows.es[:, :, :n]
            x, y = _signals(scenario, seeds, start, stop, xs, ys)
            # views of the adaptive agents that each iteration indexes on axis 0
            # only; take() gathers the same values as fancy indexing, with less
            # overhead
            for xi, yi, wi, ei in zip(x, y, wb.transpose(1, 3, 2, 0), eb.transpose(1, 2, 0)):
                multiply(coef, take(index, 0), terms)
                for t in later_terms:
                    add(psi, t, psi)
                multiply(psi, xi, products)
                for p in later_products:
                    add(pred, p, pred)
                ei[...] = subtract(yi, pred, pred)
                multiply(mu, pred, mu_e)
                multiply(mu_e, xi, step)
                wi[...] = add(psi, step, w)
            for a, (first, *rest) in enumerate(sources, start=n):
                total = rows.ws[:, :, a]  # summed in place, (w_s0 + w_s1 + ...) / n
                total[...] = rows.ws[:, :, first]
                for b in rest:
                    total += rows.ws[:, :, b]
                total /= len(rest) + 1
            if not (-DIVERGENCE_BOUND <= wb.min() and wb.max() <= DIVERGENCE_BOUND
                    and np.isfinite(eb.sum())):
                hit = _diverged(wb, eb).any(axis=-1)  # [R, iteration]
                k = int(hit.any(axis=-1).argmax())
                if hit[k].any() and k < failed:
                    i = int(hit[k].argmax())
                    failed = k
                    error = _divergence(adaptive, runs[k], start + 1 + i, wb[k, i], eb[k, i])
            yield start, rows
            if failed == 0:
                break
        if error is not None:
            if whole:
                error.completed = record.head(failed)
            raise error
