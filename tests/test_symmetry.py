"""Exact symmetries of the CTA recursion, checked without statistics and
without a second implementation: scaling the problem by a power of two, a
fixed point at the target, and the prefix of an ensemble.

``tests/oracle.py`` repeats the engine's operations in the same order, so a
wrong formula shared by both would pass the engine-vs-oracle tests. These
relations hold for the mathematics of the recursion, whatever its code.
"""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dlms
from dlms.claims import merge_iteration
from dlms.errors import DIVERGENCE_BOUND
from dlms.metrics import convergence_iteration, crossing_iteration
from dlms.scenarios import builtin, builtin_names, scenario_band, with_trust
from dlms.signals import GaussianParams
from strategies import scenarios

COOPERATIVE_IDS = ["a", "b"]  # the builtins' cooperative agents


def _builtin(name, iterations=500, ensemble=20):
    """A builtin at 20 x 500; "selfish_table1" is table1 with the delay
    claim's trust rows 0.9/0.1, on which the cooperative agents merge late."""
    s = builtin(name.removeprefix("selfish_"))
    if name.startswith("selfish_"):
        s = with_trust(s, [(0.9, 0.1, 0.0, 0.0), (0.1, 0.9, 0.0, 0.0), *s.trust.rows[2:]])
    return dataclasses.replace(s, iterations=iterations, ensemble=ensemble)


def _with_adaptive(scenario, w_opt, change):
    """``scenario`` with target ``w_opt`` and each adaptive agent's config
    replaced by ``change(cfg)``."""
    return dataclasses.replace(scenario, w_opt=w_opt, agents=tuple(
        change(cfg) if cfg.is_adaptive() else cfg for cfg in scenario.agents))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tolist()


def _scaled(scenario, k):
    """``scenario`` with w_opt, every w0 and the noise's mean and deviation
    multiplied by 2^k."""
    def scale(x):
        return math.ldexp(x, k)

    def scale_agent(cfg):
        return dataclasses.replace(cfg, w0=tuple(map(scale, cfg.w0)), noise=GaussianParams(
            scale(cfg.noise.mean), scale(cfg.noise.sd)))

    return _with_adaptive(scenario, tuple(map(scale, scenario.w_opt)), scale_agent)


def _check_scaling(want, scaled, k, merging_ids):
    """The estimates and errors of ``scaled`` are those of the record
    ``want`` times 2^k bit for bit, and the merge iterations of
    ``merging_ids`` and, for scalar weights, every crossing iteration are
    the same."""
    got = dlms.run(scaled)
    assert _bits(got.ws) == _bits(np.ldexp(want.ws, k))
    assert _bits(got.es) == _bits(np.ldexp(want.es, k))
    if len(merging_ids) > 1:
        assert merge_iteration(got, merging_ids).tolist() == \
            merge_iteration(want, merging_ids).tolist()
    if len(want.w_opt) == 1:
        for p, q in combinations(want.agents, 2):
            assert crossing_iteration(got, p, q).tolist() == \
                crossing_iteration(want, p, q).tolist()


@pytest.mark.parametrize("k", [-7, 5, 9])
@pytest.mark.parametrize("name", ["table1", "table3", "table4", "selfish_table1"])
def test_scaling_by_a_power_of_two(name, k):
    """Multiplying w_opt, every w0 and the noise's mean and deviation by 2^k,
    with the input unchanged, multiplies every estimate and every prediction
    error by 2^k bit for bit: each operation of the loop is a sum, a product
    or a division that commutes exactly with the scaling while nothing over-
    or underflows. The merge and crossing iterations are then unchanged: the
    merge gaps square with ``d * d`` and scale exactly with their threshold.

    The squared distances to the target (``sq_dist``, and with them the MSD
    and ``dist_opt``) do not scale exactly, and are not asserted: they square
    with libm's ``pow(x, 2.0)``, which is not scale-equivariant, and differ
    from the scaled values on 21-33 of the 50,000 of table1, table3 and
    table4 here (glibc 2.36).
    """
    base = _builtin(name)
    _check_scaling(dlms.run(base), _scaled(base, k), k, COOPERATIVE_IDS)


@pytest.mark.parametrize("name", builtin_names())
def test_fixed_point_at_the_target(name):
    """Started at w_opt without noise, every agent stays exactly at w_opt and
    every prediction error is exactly +0.0: the targets and the predictions
    are the same products summed in the same order, and a convex combination
    of equal estimates is that estimate."""
    base = _builtin(name)
    record = dlms.run(_with_adaptive(base, base.w_opt, lambda cfg: dataclasses.replace(
        cfg, w0=base.w_opt, noise=GaussianParams(0.0, 0.0))))
    assert _bits(record.ws) == _bits(np.broadcast_to(np.array(base.w_opt), record.ws.shape))
    assert _bits(record.es) == _bits(np.zeros(record.es.shape))


@pytest.mark.parametrize("name", ["table1", "table3"])
def test_ensemble_prefix(name):
    """Run k's streams are seeded from the seed and k alone, so the first 20
    runs of a 30-run ensemble are a 20-run ensemble bit for bit, and so are
    their per-run detections."""
    s = _builtin(name, ensemble=20)
    want = dlms.run(s)
    got = dlms.run(dataclasses.replace(s, ensemble=30)).head(20)
    assert _bits(got.ws) == _bits(want.ws)
    assert _bits(got.es) == _bits(want.es)
    assert merge_iteration(got, COOPERATIVE_IDS).tolist() == \
        merge_iteration(want, COOPERATIVE_IDS).tolist()
    band = scenario_band(s)
    for aid in want.agents:
        assert convergence_iteration(got, aid, band).tolist() == \
            convergence_iteration(want, aid, band).tolist()


def _flushed(scenario):
    """``scenario`` with every w0, w_opt, step size, mean and deviation below
    2^-30 in size flushed to a zero of its sign. The trust coefficients are
    at least 0.0025 already."""
    def flush(x):
        return x if abs(x) >= 2 ** -30 else math.copysign(0.0, x)

    def flush_agent(cfg):
        return dataclasses.replace(
            cfg, mu=flush(cfg.mu), w0=tuple(map(flush, cfg.w0)),
            input=GaussianParams(flush(cfg.input.mean), flush(cfg.input.sd)),
            noise=GaussianParams(flush(cfg.noise.mean), flush(cfg.noise.sd)))

    return _with_adaptive(scenario, tuple(map(flush, scenario.w_opt)), flush_agent)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios().map(_flushed), k=st.integers(-60, 60))
def test_generated_scenarios_scale_by_a_power_of_two(scenario, k):
    """The scaling relation on generated scenarios. Their parameters are at
    most 3 in size and, flushed, zero or at least 2^-30, so over at most 40
    iterations no product comes near the subnormal range even at 2^-60, and
    no square of a gap near overflow at 2^60: neither 0.3 * w nor mu * e * x
    rounds a subnormal differently from its scaled value. Runs that diverge,
    or would at the scaled size (the bound on |w| is absolute), are left
    out. ``sq_dist`` misses the scaling, as on the builtins, so the MSD is
    not compared; the crossing iterations, which compare distances made
    from it, come out the same here."""
    try:
        want = dlms.run(scenario)
    except dlms.DivergenceError:
        assume(False)
    assume(math.ldexp(np.abs(want.ws).max(), k) <= DIVERGENCE_BOUND)
    _check_scaling(want, _scaled(scenario, k), k,
                   [cfg.id for cfg in scenario.adaptive_agents()])
