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
from dlms.claims import balanced_variant, verify_delay
from dlms.errors import DivergenceError
from dlms.network import TrustMatrix
from dlms.prng import derive_seed
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


def _agents(record, ids, names=None):
    """The record of the agents ``ids`` of ``record``, named ``names``."""
    columns = [record.agents.index(aid) for aid in ids]
    return dataclasses.replace(record, agents=list(names or ids),
                               ws=record.ws[:, :, columns], es=record.es[:, :, columns])


def _networks_outcome(scenario, other, run_fn=None):
    """The records of the scenario and of ``other``'s adaptive agents, from
    oracle.run_paired or from separate runs of ``run_fn``; or the first
    error and the records completed before it."""
    ids = [cfg.id for cfg in other.adaptive_agents()]
    try:
        if run_fn is None:
            record, twins = oracle.run_paired(scenario, other)
            originals = [aid for aid in record.agents if aid not in twins.values()]
            first = _agents(record, originals)
            second = _agents(record, [twins[aid] for aid in ids], ids)
        else:
            first, second = run_fn(scenario), _agents(run_fn(other), ids)
        return [_bits(first), _bits(second)], None
    except DivergenceError as exc:
        return _bits(exc.completed), (str(exc), exc.run, exc.iteration, exc.agent)


def _oracle_ensemble(scenario, runs=None):
    """oracle.run_single over ``runs`` of the scenario, as run_ensemble
    returns them: one EnsembleRecord, and an error's completed runs as one
    too."""
    records = []
    for r in range(scenario.ensemble) if runs is None else runs:
        try:
            records.append(oracle.run_single(scenario, r))
        except DivergenceError as exc:
            exc.completed = oracle.as_ensemble_record(scenario, records)
            raise
    return oracle.as_ensemble_record(scenario, records)


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
    balanced = balanced_variant(s)
    record, twins = oracle.run_paired(s, balanced)
    assert all(np.signbit(record.w(aid)).all() and not record.w(aid).any()
               for aid in ("s", twins["s"]))
    paired = _networks_outcome(s, balanced)
    assert paired[1] is None
    assert paired == _networks_outcome(s, balanced, _oracle_ensemble)
    assert paired == _networks_outcome(s, balanced, run)


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


def test_divergence_in_a_later_block_of_the_scan_matches_oracle(monkeypatch):
    """4 adaptive agents x 4 runs x 2 values: 36 values make blocks of 2
    iterations, so iteration 101 lies inside the 51st block."""
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", 36)
    s = _unstable(200, 4, 1.0)
    assert _outcome(run, s) == _outcome(oracle.run, s)


def test_divergence_in_the_first_run_draws_no_later_block(monkeypatch):
    """With blocks of 2 iterations, run 0 diverges at iteration 1: no later
    block can change the error, so none is drawn, where a whole pass would
    draw 100."""
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", 36)
    drawn = _drawn_blocks(monkeypatch)
    s = _unstable(200, 4, 1e308)
    outcome = _outcome(run, s)
    assert drawn == [(0, 2)]
    assert outcome[1][1:3] == (0, 1)
    assert outcome == _outcome(oracle.run, s)


def test_divergent_cli_outputs_match_oracle(tmp_path, monkeypatch):
    args = ["run", "table1", "--iterations", "200", "--ensemble", "4"]
    for aid in "abcd":
        args += ["--set", f"{aid}.mu=2.5", "--set", f"{aid}.input_sd=1.0"]
    outputs = []
    for name, run_fn in (("engine", engine.run_ensemble), ("oracle", _oracle_ensemble)):
        monkeypatch.setattr(engine, "run_ensemble", run_fn)
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
    _unstable(200, 4, 1.0),  # diverges at iteration 101, in the third block
], ids=["table3", "divergent"])
def test_chunks_of_two_runs_match_oracle(monkeypatch, scenario):
    # 4 adaptive agents x 2 values per iteration over 5 and 4 runs: 1600
    # values make blocks of 40 and of 50 iterations
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", 1600)
    assert _outcome(run, scenario) == _outcome(oracle.run, scenario)


# 6 adaptive agents x 3 runs x 5 values = 90 values per iteration, so 9000
# makes three blocks of 100 iterations
@pytest.mark.parametrize("chunk_draws", [engine._CHUNK_DRAWS, 9000])
def test_dense_trio_with_twins_matches_oracle(monkeypatch, chunk_draws):
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", chunk_draws)
    s = dense_trio_with_twins(iterations=300, ensemble=3)
    assert _bits(run(s)) == _bits(oracle.run(s))


def _drawn_blocks(monkeypatch):
    """The (start, stop) of each block of signals the engine draws, in order."""
    drawn = []
    signals = engine._signals

    def record_block(scenario, seeds, start, stop, x, y):
        drawn.append((start, stop))
        return signals(scenario, seeds, start, stop, x, y)

    monkeypatch.setattr(engine, "_signals", record_block)
    return drawn


def _twins_before_and_beside_owners():
    """M = 3: twin t listed before its owner a, and owner b with two twins,
    u and v; an averaging agent follows the three twins."""
    inp_a, noise_a = GaussianParams(0.2, 1.0), GaussianParams(0.0, 0.1)
    inp_b, noise_b = GaussianParams(-0.1, 0.8), GaussianParams(0.05, 0.3)
    agents = (
        AgentConfig("t", "standalone", mu=0.05, w0=(0.5, -0.0, 0.0), input=inp_a,
                    noise=noise_a, counterpart="a"),
        AgentConfig("a", "cooperative", mu=0.1, w0=(0.0, 0.0, 1.0), input=inp_a,
                    noise=noise_a),
        AgentConfig("b", "cooperative", mu=0.08, w0=(-1.0, 0.0, 0.0), input=inp_b,
                    noise=noise_b),
        AgentConfig("u", "standalone", mu=0.02, w0=(0.0, 0.3, 0.0), input=inp_b,
                    noise=noise_b, counterpart="b"),
        AgentConfig("v", "standalone", mu=0.2, w0=(-0.0,) * 3, input=inp_b,
                    noise=noise_b, counterpart="b"),
        AgentConfig("m", "averaging", sources=("t", "u", "v")),
    )
    rows = [(1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.6, 0.4, 0.0, 0.0),
            (0.0, 0.3, 0.7, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, 1.0)]
    return Scenario(agents=agents, trust=TrustMatrix(tuple(rows)),
                    w_opt=(1.0, -0.5, 0.25), iterations=250, ensemble=3)


# 5 adaptive agents x 3 runs x 4 values = 60 values per iteration: the
# default makes one block, 6600 blocks of 110, 110 and 30 iterations
@pytest.mark.parametrize("chunk_draws, blocks", [
    (engine._CHUNK_DRAWS, [(0, 250)]),
    (6600, [(0, 110), (110, 220), (220, 250)]),
], ids=["one-block", "uneven-blocks"])
def test_twins_before_and_beside_their_owners_match_oracle(
        monkeypatch, chunk_draws, blocks):
    """Each twin's column of the signals is its owner's draws, whether it is
    listed before its owner or shares the owner with another twin."""
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", chunk_draws)
    drawn = _drawn_blocks(monkeypatch)
    s = _twins_before_and_beside_owners()
    assert _bits(run(s)) == _bits(oracle.run(s))
    assert drawn == blocks


def _twin_first(m):
    """Twin t listed before its owner a, and a second owner b, each owner
    with nonzero input and noise means, against a target of M components."""
    inp_a, noise_a = GaussianParams(0.2, 1.0), GaussianParams(-0.3, 0.1)
    inp_b, noise_b = GaussianParams(-0.1, 0.8), GaussianParams(0.05, 0.3)
    w0 = (0.0,) * m
    agents = (
        AgentConfig("t", "standalone", mu=0.05, w0=w0, input=inp_a, noise=noise_a,
                    counterpart="a"),
        AgentConfig("a", "cooperative", mu=0.1, w0=w0, input=inp_a, noise=noise_a),
        AgentConfig("b", "cooperative", mu=0.08, w0=w0, input=inp_b, noise=noise_b),
    )
    rows = [(1.0, 0.0, 0.0), (0.0, 0.6, 0.4), (0.0, 0.3, 0.7)]
    return Scenario(agents=agents, trust=TrustMatrix(tuple(rows)),
                    w_opt=(1.0, -0.5, 0.25, 2.0)[:m], iterations=13, ensemble=1)


def _oracle_signals(scenario, run_index, owner, start, stop):
    """x [L, M] and y [L] of iterations start..stop-1 of one run, drawn as
    oracle.run_single draws them from the stream of ``owner`` (a position in
    scenario.agents): with the statistics of the owner's first adaptive agent."""
    owners = oracle._stream_owners(scenario)
    cfg = scenario.adaptive_agents()[owners.index(owner)]
    stream = oracle.RandomStream(derive_seed((scenario.seed ^ run_index) & oracle._SEED_MASK,
                                             owner))
    samples = [oracle.generate_sample(stream, scenario.w_opt, cfg.input, cfg.noise)
               for _ in range(stop)][start:]
    return np.array([sample.x for sample in samples]), np.array([sample.y for sample in samples])


@pytest.mark.parametrize("runs", [1, 2, 5])
@pytest.mark.parametrize("scenario", [
    dense_trio_with_twins(iterations=13, ensemble=1), _twin_first(1), _twin_first(4),
], ids=["dense-trio-with-twins", "twin-first-m1", "twin-first-m4"])
def test_signals_are_the_oracle_samples_of_each_column_owner(scenario, runs):
    """engine._signals on its own, for a block of 6 iterations from 4 on
    and a tail of 3 from 10 on, into buffers of 6 rows: every adaptive
    column of x and y is the oracle's samples from that column's stream
    owner, bit for bit, in each of the R runs."""
    s = dataclasses.replace(scenario, ensemble=runs)
    owners, stream = engine._streams(s)
    seeds = [[derive_seed(s.seed ^ k, owner) for k in range(runs)] for owner in owners]
    m, n = len(s.w_opt), len(s.adaptive_agents())
    xs, ys = np.full((6, m, n, runs), np.nan), np.full((6, n, runs), np.nan)
    for start, stop in [(4, 10), (10, 13)]:
        x, y = engine._signals(s, seeds, start, stop, xs, ys)
        assert x.shape == (stop - start, m, n, runs) and y.shape == (stop - start, n, runs)
        for a, g in enumerate(stream):
            for k in range(runs):
                xo, yo = _oracle_signals(s, k, owners[g], start, stop)
                assert x[:, :, a, k].view(np.uint64).tolist() == xo.view(np.uint64).tolist()
                assert y[:, a, k].view(np.uint64).tolist() == yo.view(np.uint64).tolist()


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
    balanced = balanced_variant(scenario)
    with mock.patch.object(engine, "_CHUNK_DRAWS", chunk_draws):
        paired = _networks_outcome(scenario, balanced)
    assert paired == _networks_outcome(scenario, balanced, run)


@pytest.mark.parametrize("chunk_draws", [engine._CHUNK_DRAWS, 1200, 2400])
@pytest.mark.parametrize("scenario", [
    _selfish(dataclasses.replace(builtin("table1"), iterations=300, ensemble=5), 0.9),
    # selfish: run 0 at agent b; balanced: run 2 at the standalone agent c
    _selfish(_unstable(200, 4, 1.0), 0.9),
], ids=["table1", "divergent"])
def test_paired_table1_matches_separate_runs(monkeypatch, chunk_draws, scenario):
    # the pair fills 8 adaptive agents x 2 values per iteration and run: 1200
    # values make blocks of 14 iterations of 5 runs, and of 18 of 4 runs;
    # 2400 makes blocks of 30 and of 36 (37 rounded down to even)
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", chunk_draws)
    balanced = balanced_variant(scenario)
    paired = _networks_outcome(scenario, balanced)
    assert paired == _networks_outcome(scenario, balanced, run)


def _one_unstable_agent(s_self):
    """Agent b (mu 3.0, unit input) is held stable by trusting a; the more
    it trusts itself the earlier it diverges: at self-trust 0.5 it never
    does in 6 runs of 200 iterations, at 0.9 in run 3, at 0.99 in run 1."""
    unit, noise = GaussianParams(0.0, 1.0), GaussianParams(0.0, 0.1)
    agents = (AgentConfig("a", "cooperative", mu=0.1, w0=(0.0,), input=unit, noise=noise),
              AgentConfig("b", "cooperative", mu=3.0, w0=(0.0,), input=unit, noise=noise))
    return Scenario(agents=agents, w_opt=(1.0,), iterations=200, ensemble=6,
                    trust=TrustMatrix(((0.5, 0.5), (1.0 - s_self, s_self))))


# explicit ids, kept stable when the parameters change
@pytest.mark.parametrize("selfs, chunk_draws, error_run, blocks", [
    # only the balanced network diverges
    pytest.param((0.5, 0.99), 1600, 1, None, id="selfs0-2-1-3"),
    # the balanced network diverges in an earlier run, the scenario wins
    pytest.param((0.9, 0.99), 1600, 3, None, id="selfs1-2-3-2"),
    pytest.param((0.9, 0.99), 4800, 3, None, id="selfs2-6-3-1"),
    # the scenario diverges
    pytest.param((0.99, 0.9), 1600, 1, None, id="selfs3-2-1-1"),
    # both diverge in the same run at the same iteration: the error names
    # the scenario's agent b, not its twin
    pytest.param((0.99, 0.99), 1600, 1, None, id="selfs4-2-3-3"),
    # one network, 2 adaptive agents x 6 runs x 2 values = 24 values per
    # iteration, so 480 values make blocks of 20 iterations: run 3 diverges
    # first in time, at iteration 87, two blocks before run 1 does at 121;
    # the error still names run 1
    pytest.param((0.99,), 480, 1, [(i, i + 20) for i in range(0, 200, 20)],
                 id="selfs5-blocks-of-20-1"),
])
def test_divergence_is_that_of_separate_runs_in_variant_order(
        monkeypatch, selfs, chunk_draws, error_run, blocks):
    """A pair raises what separate runs of its networks raise, the
    scenario's first; one network raises its first divergent run's error."""
    monkeypatch.setattr(engine, "_CHUNK_DRAWS", chunk_draws)
    drawn = _drawn_blocks(monkeypatch)
    scenario, *other = map(_one_unstable_agent, selfs)
    if other:
        outcome = _networks_outcome(scenario, *other)
        assert outcome == _networks_outcome(scenario, *other, run)
    else:
        outcome = _outcome(run, scenario)
        assert drawn == blocks
        assert outcome == _outcome(oracle.run, scenario)
    assert outcome[1][1] == error_run


def test_verify_delay_draws_the_signals_of_one_network():
    """The balanced network runs as twins of the selfish one's agents, in
    the same simulation, on the signals that one run of the scenario draws."""
    s = _selfish(dataclasses.replace(builtin("table1"), iterations=300, ensemble=5), 0.9)

    def simulations_and_values(fn):
        values, block = [], engine.gaussian_block

        def counted(seeds, count, start=0):
            values.append(len(seeds) * count)
            return block(seeds, count, start)

        with mock.patch.object(engine, "gaussian_block", counted), mock.patch.object(
                engine, "_simulate", wraps=engine._simulate) as simulate:
            fn(s)
        return simulate.call_count, sum(values)

    one_network = simulations_and_values(run)
    # 2 stream owners x 2 values an iteration x 5 runs x 300 iterations
    assert one_network == (1, 2 * 2 * 5 * 300)
    assert simulations_and_values(verify_delay) == one_network
    assert verify_delay(s).passed
