"""Hypothesis strategy for valid scenarios, and one fixed scenario shape.

Generated scenarios have M 1-4, 1-4 cooperative agents, twins, a plain
standalone agent, averaging agents, trust rows with exact zeros, exact 1.0s,
uniform and normalized supports, and zero and negative initial weights.
Hypothesis rarely draws M = 4 with three densely trusting agents and a twin
of each, the shape of perfbench's long_horizon, so ``dense_trio_with_twins``
builds it.
"""

import dataclasses

from hypothesis import strategies as st

from dlms.network import TrustMatrix
from dlms.scenarios import AgentConfig, Scenario
from dlms.signals import GaussianParams

_FLOAT = st.floats(-3.0, 3.0)
_STATS = st.builds(GaussianParams,
                   st.one_of(st.sampled_from([0.0, -0.0, -0.5]), st.floats(-1.0, 1.0)),
                   st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
_MU = st.one_of(st.just(0.0), st.floats(0.0, 0.6))


def _trust_row(draw, n):
    """A row with exact 1.0s, exact zeros, a uniform or a normalized support."""
    kind = draw(st.sampled_from(["one", "uniform", "weighted"]))
    if kind == "one":
        j = draw(st.integers(0, n - 1))
        return tuple(1.0 if b == j else 0.0 for b in range(n))
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    if kind == "uniform":
        weights = {b: 1.0 for b in support}
    else:
        weights = {b: draw(st.floats(0.01, 1.0)) for b in support}
    total = sum(weights.values())
    return tuple(weights[b] / total if b in weights else 0.0 for b in range(n))


@st.composite
def scenarios(draw):
    m = draw(st.integers(1, 4))
    vector = st.lists(st.one_of(st.sampled_from([0.0, -0.0, -1.0]), _FLOAT),
                      min_size=m, max_size=m).map(tuple)
    agents = []
    for k in range(draw(st.integers(1, 4))):
        inp, noise = draw(_STATS), draw(_STATS)
        agents.append(AgentConfig(f"a{k}", "cooperative", mu=draw(_MU), w0=draw(vector),
                                  input=inp, noise=noise))
        if draw(st.booleans()):
            agents.append(AgentConfig(f"t{k}", "standalone", mu=draw(_MU),
                                      w0=draw(vector), input=inp, noise=noise,
                                      counterpart=f"a{k}"))
    if draw(st.booleans()):
        agents.append(AgentConfig("solo", "standalone", mu=draw(_MU), w0=draw(vector),
                                  input=draw(_STATS), noise=draw(_STATS)))
    adaptive_ids = [cfg.id for cfg in agents]
    for k in range(draw(st.integers(0, 2))):
        sources = draw(st.lists(st.sampled_from(adaptive_ids), min_size=1,
                                max_size=3, unique=True))
        agents.append(AgentConfig(f"avg{k}", "averaging", sources=tuple(sources)))
    agents = draw(st.permutations(agents))
    adaptive = [cfg for cfg in agents if cfg.is_adaptive()]
    n = len(adaptive)
    rows = [_trust_row(draw, n) if cfg.kind == "cooperative"
            else tuple(1.0 if b == a else 0.0 for b in range(n))
            for a, cfg in enumerate(adaptive)]
    return Scenario(agents=tuple(agents), trust=TrustMatrix(tuple(rows)),
                    w_opt=draw(vector), iterations=draw(st.integers(1, 40)),
                    seed=draw(st.integers(0, (1 << 64) - 1)),
                    ensemble=draw(st.integers(1, 3)))


def dense_trio_with_twins(iterations, ensemble):
    """perfbench's long_horizon scenario at the given size: M = 4, three
    cooperative agents with dense trust, a standalone twin of each and an
    averaging agent over the twins."""
    trio = [AgentConfig(aid, "cooperative", mu=0.05, w0=(0.0,) * 4,
                        input=GaussianParams(0.0, 1.0), noise=GaussianParams(0.0, sd))
            for aid, sd in (("a", 0.01), ("b", 0.05), ("c", 0.3))]
    twins = [dataclasses.replace(cfg, id=tid, kind="standalone", counterpart=cfg.id)
             for tid, cfg in zip("def", trio)]
    dense = ((0.4, 0.3, 0.3), (0.3, 0.4, 0.3), (0.3, 0.3, 0.4))
    rows = [row + (0.0,) * 3 for row in dense]
    rows += [tuple(float(a == b) for b in range(6)) for a in range(3, 6)]
    return Scenario(
        agents=(*trio, *twins, AgentConfig("g", "averaging", sources=("d", "e", "f"))),
        trust=TrustMatrix(tuple(rows)), w_opt=(1.0, -0.5, 0.25, 2.0),
        iterations=iterations, ensemble=ensemble)
