"""The vectorized ensemble engine against the scalar reference in oracle.py.

Records are compared through repr, so a sign of zero or a last-bit
difference anywhere in a trajectory fails the comparison.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import dlms.cli
import oracle
from dlms import engine
from dlms.claims import balanced_variant
from dlms.errors import DivergenceError
from dlms.network import TrustMatrix
from dlms.scenarios import AgentConfig, Scenario, builtin, builtin_names, run
from dlms.signals import GaussianParams
from strategies import dense_trio_with_twins, scenarios


def _bits(records):
    """Per run: index, agents and the repr of its per-agent ws and es lists.

    Takes the oracle's list of records or the engine's EnsembleRecord.
    """
    if isinstance(records, list):
        return [(r.run_index, r.agents, repr(r.ws), repr(r.es)) for r in records]
    ws, es = records.ws.tolist(), records.es.tolist()
    return [(r, records.agents,
             repr({aid: [w[a] for w in ws[r]] for a, aid in enumerate(records.agents)}),
             repr({aid: [e[a] for e in es[r]] for a, aid in enumerate(records.agents)}))
            for r in range(len(records))]


def _outcome(run_fn, scenario):
    """Records of a run, or the error and the records completed before it."""
    try:
        return _bits(run_fn(scenario)), None
    except DivergenceError as exc:
        return _bits(exc.completed), (str(exc), exc.run, exc.iteration, exc.agent)


def _separate_runs(scenario, trusts):
    """One run() per trust matrix, in order, as run_ensemble returns them."""
    return [run(dataclasses.replace(scenario, trust=t)) for t in trusts]


def _variants_outcome(run_fn, scenario, trusts):
    """Per variant records, or the first error and its completed records."""
    try:
        return [_bits(record) for record in run_fn(scenario, trusts)], None
    except DivergenceError as exc:
        return _bits(exc.completed), (str(exc), exc.run, exc.iteration, exc.agent)


def _oracle_as_record(scenario):
    """oracle.run, with its records (and an error's) as an EnsembleRecord."""
    try:
        return oracle.as_ensemble_record(scenario, oracle.run(scenario))
    except DivergenceError as exc:
        exc.completed = oracle.as_ensemble_record(scenario, exc.completed)
        raise


@pytest.mark.parametrize("name", builtin_names())
def test_builtins_match_oracle(name):
    s = dataclasses.replace(builtin(name), iterations=300, ensemble=4)
    assert _bits(run(s)) == _bits(oracle.run(s))


def test_signed_zeros_match_oracle():
    """Zero targets, signed-zero means with zero sd, and a twin listed before
    its counterpart whose statistics differ from it only in the sign of zero."""
    pos, neg = GaussianParams(0.0, 0.0), GaussianParams(-0.0, 0.0)
    agents = (
        AgentConfig("t", "standalone", mu=0.5, w0=(-0.0,), input=neg, noise=neg,
                    counterpart="a"),
        AgentConfig("a", "cooperative", mu=0.5, w0=(-0.0,), input=pos, noise=pos),
        AgentConfig("b", "cooperative", mu=0.5, w0=(-0.0,),
                    input=GaussianParams(0.0, 1.0), noise=neg),
        AgentConfig("e", "averaging", sources=("t",)),
    )
    trust = TrustMatrix(((1.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)))
    for w_opt in ((0.0,), (-0.0,)):
        s = Scenario(agents=agents, trust=trust, w_opt=w_opt, iterations=20,
                     ensemble=2)
        assert _bits(run(s)) == _bits(oracle.run(s))


@pytest.mark.parametrize("ensemble", [1, 2])
@pytest.mark.parametrize("m", [9, 16])
def test_single_standalone_agent_matches_oracle(m, ensemble):
    """One adaptive agent and one run leave the prediction's products
    [M, 1, 1, 1], a shape numpy would sum pairwise, not in order; two runs
    keep an extent of 2 beside the components."""
    agents = (AgentConfig("a", "standalone", mu=0.05,
                          w0=tuple(0.5 * (j % 3) - 0.5 for j in range(m)),
                          input=GaussianParams(0.1, 1.0), noise=GaussianParams(0.0, 0.3)),)
    s = Scenario(agents=agents, trust=TrustMatrix(((1.0,),)),
                 w_opt=tuple((-1.0) ** j * (1.0 + j / 7) for j in range(m)),
                 iterations=200, ensemble=ensemble)
    assert _bits(run(s)) == _bits(oracle.run(s))


def test_short_row_between_cooperative_rows_matches_oracle_and_separate_runs():
    """Adaptive rows cooperative, standalone, cooperative: the rows with a
    second trust term are not contiguous, and the middle row's second term is
    the pad. That row's weights stay -0.0 (zero step size, a negative error
    times a unit input), which a pad of +0.0 would turn into +0.0."""
    agents = (
        AgentConfig("a", "cooperative", mu=0.1, w0=(0.0, -0.0, 1.0),
                    input=GaussianParams(0.0, 1.0), noise=GaussianParams(0.0, 0.1)),
        AgentConfig("s", "standalone", mu=0.0, w0=(-0.0,) * 3,
                    input=GaussianParams(1.0, 0.0), noise=GaussianParams(0.0, 0.0)),
        AgentConfig("c", "cooperative", mu=0.2, w0=(-0.0,) * 3,
                    input=GaussianParams(0.5, 1.0), noise=GaussianParams(0.0, 0.3)),
        AgentConfig("e", "averaging", sources=("a", "s")),
    )
    trust = TrustMatrix(((0.9, 0.0, 0.1), (0.0, 1.0, 0.0), (0.2, 0.0, 0.8)))
    s = Scenario(agents=agents, trust=trust, w_opt=(-1.0, 0.5, -0.25),
                 iterations=30, ensemble=3)
    trusts = [trust, balanced_variant(s).trust]
    records = engine.run_ensemble(s, trusts)
    assert all(np.signbit(record.w("s")).all() and not record.w("s").any()
               for record in records)
    paired = [_bits(record) for record in records]
    assert paired == [_bits(oracle.run(dataclasses.replace(s, trust=t))) for t in trusts]
    assert (paired, None) == _variants_outcome(_separate_runs, s, trusts)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_generated_scenarios_match_oracle(scenario):
    assert _outcome(run, scenario) == _outcome(oracle.run, scenario)


def _unstable(iterations, ensemble, input_sd):
    """table1 with mu=2.5 on every adaptive agent and the given input sd."""
    s = builtin("table1")
    agents = tuple(
        cfg if not cfg.is_adaptive()
        else dataclasses.replace(cfg, mu=2.5, input=GaussianParams(0.0, input_sd))
        for cfg in s.agents)
    return dataclasses.replace(s, agents=agents, iterations=iterations,
                               ensemble=ensemble)


@pytest.mark.parametrize("input_sd, message", [
    (1.0, "divergence at run 2, iteration 101, agent c: weight estimate diverged"),
    (1e308, "divergence at run 0, iteration 1, agent a: non-finite prediction error"),
])
def test_divergence_matches_oracle(input_sd, message):
    s = _unstable(200, 4, input_sd)
    errors = []
    for run_fn in (run, oracle.run):
        with pytest.raises(DivergenceError) as excinfo:
            run_fn(s)
        errors.append(excinfo.value)
    engine, scalar = errors
    assert str(engine).startswith(message)
    assert ((str(engine), engine.run, engine.iteration, engine.agent)
            == (str(scalar), scalar.run, scalar.iteration, scalar.agent))
    assert _bits(engine.completed) == _bits(scalar.completed)


def test_divergent_cli_outputs_match_oracle(tmp_path, monkeypatch):
    args = ["run", "table1", "--iterations", "200", "--ensemble", "4"]
    for aid in "abcd":
        args += ["--set", f"{aid}.mu=2.5", "--set", f"{aid}.input_sd=1.0"]
    outputs = []
    for name, run_fn in (("engine", run), ("oracle", _oracle_as_record)):
        monkeypatch.setattr(dlms.cli, "run", run_fn)
        out = tmp_path / name / "d.csv"
        out.parent.mkdir()
        assert dlms.cli.main([*args, "--out", str(out)]) == 3
        outputs.append((out.read_bytes(),
                        out.with_name("d.error.json").read_text()))
    assert outputs[0] == outputs[1]
    csv_bytes, manifest = outputs[0]
    assert csv_bytes.count(b"\n") == 1 + 2 * 200 * 5  # header + 2 completed runs
    assert json.loads(manifest)["completed_runs"] == 2


@pytest.mark.parametrize("scenario", [
    dataclasses.replace(builtin("table3"), iterations=200, ensemble=5),
    _unstable(200, 4, 1.0),  # diverges at iteration 101, in the second block
], ids=["table3", "divergent"])
def test_chunks_of_two_runs_match_oracle(monkeypatch, scenario):
    # 2 streams x 2 draws per iteration over 5 and 4 runs: 1600 draws make
    # blocks of 80 and of 100 iterations
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", 1600)
    assert _outcome(run, scenario) == _outcome(oracle.run, scenario)


# 3 streams x 3 runs x 5 draws = 45 draws per iteration, an odd number per
# stream, so 9000 makes blocks of 200 and 100 iterations
@pytest.mark.parametrize("chunk_draws", [engine._CHUNK_DRAWS, 9000])
def test_dense_trio_with_twins_matches_oracle(monkeypatch, chunk_draws):
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", chunk_draws)
    s = dense_trio_with_twins(iterations=300, ensemble=3)
    assert _bits(run(s)) == _bits(oracle.run(s))


def _selfish(scenario, s_self):
    """The scenario with both cooperative agents of a builtin at self-trust s_self."""
    rows = [list(r) for r in scenario.trust.rows]
    rows[0][:2] = [s_self, 1.0 - s_self]
    rows[1][:2] = [1.0 - s_self, s_self]
    return dataclasses.replace(
        scenario, trust=TrustMatrix(tuple(tuple(r) for r in rows)))


@pytest.mark.parametrize("chunk_draws", [engine._CHUNK_DRAWS, 1])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_paired_variants_match_separate_runs(chunk_draws, scenario):
    trusts = [scenario.trust, balanced_variant(scenario).trust]
    with mock.patch.object(engine, "_CHUNK_DRAWS", chunk_draws):
        paired = _variants_outcome(engine.run_ensemble, scenario, trusts)
    assert paired == _variants_outcome(_separate_runs, scenario, trusts)


@pytest.mark.parametrize("chunk_draws", [engine._CHUNK_DRAWS, 1200, 2400])
@pytest.mark.parametrize("scenario", [
    _selfish(dataclasses.replace(builtin("table1"), iterations=300, ensemble=5), 0.9),
    # selfish: run 0 at agent b; balanced: run 2 at the standalone agent c
    _selfish(_unstable(200, 4, 1.0), 0.9),
], ids=["table1", "divergent"])
def test_paired_table1_matches_separate_runs(monkeypatch, chunk_draws, scenario):
    # table1 draws 2 streams x 2 Gaussians per iteration and run: 1200 draws
    # make blocks of 60 iterations of 5 runs, and of 74 (75 rounded down to
    # even) of 4 runs; 2400 makes blocks of 120 and of 150
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", chunk_draws)
    trusts = [scenario.trust, balanced_variant(scenario).trust]
    paired = _variants_outcome(engine.run_ensemble, scenario, trusts)
    assert paired == _variants_outcome(_separate_runs, scenario, trusts)


def _one_unstable_agent(s_self):
    """Agent b (mu 3.0, unit input) is held stable by trusting a; the more
    it trusts itself the earlier it diverges: at self-trust 0.5 it never
    does in 6 runs of 200 iterations, at 0.9 in run 3, at 0.99 in run 1."""
    unit, noise = GaussianParams(0.0, 1.0), GaussianParams(0.0, 0.1)
    agents = (AgentConfig("a", "cooperative", mu=0.1, w0=(0.0,), input=unit, noise=noise),
              AgentConfig("b", "cooperative", mu=3.0, w0=(0.0,), input=unit, noise=noise))
    return Scenario(agents=agents, w_opt=(1.0,), iterations=200, ensemble=6,
                    trust=TrustMatrix(((0.5, 0.5), (1.0 - s_self, s_self))))


# 2 streams x 6 runs x 2 draws per iteration = 24 draws per iteration: 1600
# draws make blocks of 66 iterations (rounded down to even), 4800 one block
_BLOCKS_OF_66 = [(0, 66), (66, 132), (132, 198), (198, 200)]


# explicit ids, kept stable when the parameters change
@pytest.mark.parametrize("selfs, chunk_draws, error_run, blocks", [
    # only the later variant diverges
    pytest.param((0.5, 0.99), 1600, 1, _BLOCKS_OF_66, id="selfs0-2-1-3"),
    # the later variant diverges in an earlier run, the earlier variant wins
    pytest.param((0.9, 0.99), 1600, 3, _BLOCKS_OF_66, id="selfs1-2-3-2"),
    pytest.param((0.9, 0.99), 4800, 3, [(0, 200)], id="selfs2-6-3-1"),
    # the first variant diverges
    pytest.param((0.99, 0.9), 1600, 1, _BLOCKS_OF_66, id="selfs3-2-1-1"),
    pytest.param((0.5, 0.5, 0.9, 0.99), 1600, 3, _BLOCKS_OF_66, id="selfs4-2-3-3"),
])
def test_divergence_is_that_of_separate_runs_in_variant_order(
        monkeypatch, selfs, chunk_draws, error_run, blocks):
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", chunk_draws)
    drawn = []
    signals = engine._signals

    def record_block(scenario, seeds, start, stop):
        drawn.append((start, stop))
        return signals(scenario, seeds, start, stop)

    monkeypatch.setattr(engine, "_signals", record_block)
    scenario = _one_unstable_agent(0.5)
    trusts = [_one_unstable_agent(s).trust for s in selfs]
    paired = _variants_outcome(engine.run_ensemble, scenario, trusts)
    assert drawn == blocks
    assert paired[1][1] == error_run
    assert paired == _variants_outcome(_separate_runs, scenario, trusts)


def test_variants_must_share_the_nonzero_pattern():
    s = builtin("table1")
    trusts = [s.trust, TrustMatrix.identity(4)]
    with pytest.raises(ValueError, match="differ in their nonzero pattern"):
        engine.run_ensemble(s, trusts)
