"""The claims, folded over the engine's blocks, against the same claims on
``dlms.run``'s whole record (``oracle.verify_claim``).

Results compare through ``passed`` and the repr of every detail, so a last
bit of a gap or a band fails the comparison; errors through their type,
message, run, iteration and agent. The streamed side runs in blocks of 2
iterations, so merges, the last iteration outside a band and the start of
the steady-state window fall both first and last in a block.
"""

import dataclasses
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from dlms import engine
from dlms.claims import CLAIMS, verify_claim
from dlms.errors import ConfigError, DivergenceError
from dlms.network import TrustMatrix
from dlms.scenarios import AgentConfig, Scenario, builtin, builtin_names, parse, run, with_trust
from dlms.signals import GaussianParams
from strategies import dense_trio_with_twins, scenarios

LONG_HORIZON = parse((Path(__file__).resolve().parents[1] / "perfbench" /
                      "long_horizon.cfg").read_text())


def _outcome(verify, scenario, claim):
    try:
        result = verify(scenario, claim)
    except DivergenceError as exc:
        return "divergence", str(exc), exc.run, exc.iteration, exc.agent
    except ConfigError as exc:
        return type(exc).__name__, str(exc)
    return result.passed, repr(result.details)


def _streamed(scenario, claim):
    """The claim's outcome with blocks of 2 iterations: 1 value a block
    rounds up to the engine's least block."""
    with mock.patch.object(engine, "_CHUNK_DRAWS", 1):
        return _outcome(verify_claim, scenario, claim)


def _selfish_table1():
    s = builtin("table1")
    return with_trust(s, [(0.9, 0.1, 0.0, 0.0), (0.1, 0.9, 0.0, 0.0), *s.trust.rows[2:]])


def _shaped(scenario):
    """The scenario with every cooperative trust row the first one's, one
    averaging agent, over the cooperative agents if it had none, and at
    least 10 iterations: most generated scenarios fail the merge and speedup
    claims' checks."""
    adaptive = scenario.adaptive_agents()
    coop = [a for a, cfg in enumerate(adaptive) if cfg.kind == "cooperative"]
    rows = [scenario.trust.rows[coop[0]] if a in coop else row
            for a, row in enumerate(scenario.trust.rows)]
    averaging = scenario.averaging_agents()[:1] or [AgentConfig(
        "avg", "averaging", sources=tuple(adaptive[a].id for a in coop))]
    return dataclasses.replace(scenario, agents=(*adaptive, *averaging),
                               trust=TrustMatrix(tuple(rows)),
                               iterations=max(10, scenario.iterations))


@st.composite
def _claim_scenarios(draw):
    """A claim and a generated scenario: for the merge and speedup claims,
    three in four shaped for them; a third with every step size raised to
    3 + 8 mu, which often diverges."""
    scenario, claim = draw(scenarios()), draw(st.sampled_from(CLAIMS))
    if claim in ("merge", "speedup") and draw(st.integers(0, 3)):
        scenario = _shaped(scenario)
    if draw(st.integers(0, 2)) == 0:
        scenario = dataclasses.replace(scenario, agents=tuple(
            dataclasses.replace(cfg, mu=3 + 8 * cfg.mu) if cfg.is_adaptive() else cfg
            for cfg in scenario.agents))
    return scenario, claim


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_claim_scenarios())
def test_generated_scenarios_stream_like_whole_records(case):
    scenario, claim = case
    assert _streamed(scenario, claim) == _outcome(oracle.verify_claim, scenario, claim)


# 20 runs of each builtin's whole horizon keep 500 blocks of 2 iterations quick
@pytest.mark.parametrize("claim", CLAIMS)
@pytest.mark.parametrize("scenario", [
    *(dataclasses.replace(builtin(name), ensemble=20) for name in builtin_names()),
    dataclasses.replace(_selfish_table1(), ensemble=20),
    *(dataclasses.replace(LONG_HORIZON, iterations=length) for length in (5, 6, 11, 30, 257)),
], ids=[*builtin_names(), "selfish_table1",
        *(f"long_horizon_{length}" for length in (5, 6, 11, 30, 257))])
def test_scenarios_stream_like_whole_records(scenario, claim):
    assert _streamed(scenario, claim) == _outcome(oracle.verify_claim, scenario, claim)


def test_divergence_of_a_later_block_names_the_first_divergent_run():
    """long_horizon with twin d at mu 0.45: run 1 diverges at iteration 2326,
    in an earlier block than run 0 at 6132. The stream has moved past run
    0's block by the time it raises, and names it as ``dlms.run`` does."""
    s = dense_trio_with_twins(iterations=20000, ensemble=2)
    s = dataclasses.replace(s, agents=tuple(
        dataclasses.replace(cfg, mu=0.45) if cfg.id == "d" else cfg for cfg in s.agents))
    with pytest.raises(DivergenceError) as whole:
        run(s)
    streamed = _outcome(verify_claim, s, "stabilize")
    assert streamed == ("divergence", str(whole.value), 0, 6132, "d")
    assert streamed[1].startswith("divergence at run 0, iteration 6132, agent d: ")
    assert whole.value.completed is not None and len(whole.value.completed) == 0


def _unstable_pair(mu, s_self):
    """Agent b, at step size mu with unit input, is held stable by trusting
    a; the delay claim's balanced variant trusts each half."""
    unit, noise = GaussianParams(0.0, 1.0), GaussianParams(0.0, 0.1)
    agents = (AgentConfig("a", "cooperative", mu=0.1, w0=(0.0,), input=unit, noise=noise),
              AgentConfig("b", "cooperative", mu=mu, w0=(0.0,), input=unit, noise=noise))
    return Scenario(agents=agents, w_opt=(1.0,), iterations=200, ensemble=6,
                    trust=TrustMatrix(((0.5, 0.5), (1.0 - s_self, s_self))))


@pytest.mark.parametrize("mu, s_self, expected", [
    # only the selfish network diverges
    (4.0, 0.8, "divergence at run 1, iteration 55, agent b: "),
    # only the balanced network does: named as a run of it alone names it
    (6.0, 0.3, "divergence at run 1, iteration 121, agent b: "),
    # the balanced twin diverges first in the joint run, in an earlier run
    # (1 against 3) or earlier in the same run (87 against 102): the selfish
    # network is still named first
    (6.0, 0.2, "divergence at run 3, iteration 155, agent b: "),
    (8.0, 0.2, "divergence at run 0, iteration 102, agent b: "),
])
@pytest.mark.parametrize("chunk_draws", [engine._CHUNK_DRAWS, 1])
def test_paired_divergence_names_the_selfish_network_first(mu, s_self, expected,
                                                           chunk_draws):
    scenario = _unstable_pair(mu, s_self)
    with mock.patch.object(engine, "_CHUNK_DRAWS", chunk_draws):
        streamed = _outcome(verify_claim, scenario, "delay")
    assert streamed == _outcome(oracle.verify_claim, scenario, "delay")
    assert streamed[1].startswith(expected)
