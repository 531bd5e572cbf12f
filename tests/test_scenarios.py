import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from dlms.errors import ConfigError, DivergenceError, ParseError
from dlms.metrics import EnsembleSums
from dlms.network import TrustMatrix
from dlms.scenarios import (
    builtin,
    builtin_names,
    compute_report,
    parse,
    run,
    serialize,
    with_trust,
)
from dlms.signals import GaussianParams
from oracle import agent
from strategies import scenarios


def small(scenario, iterations=50, ensemble=3):
    return dataclasses.replace(scenario, iterations=iterations, ensemble=ensemble)


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ["table1", "table2", "table3", "table4", "table5"]

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ConfigError, match="table1"):
            builtin("table9")

    def test_table1_parameters(self):
        s = builtin("table1")
        a, b = agent(s, "a"), agent(s, "b")
        assert a.mu == 0.5 and a.w0 == (0.0,)
        assert b.mu == 0.5 and b.w0 == (1.0,)
        assert a.input.sd == 0.09 and a.noise.sd == 0.03
        assert s.trust.rows[0] == (0.5, 0.5, 0.0, 0.0)

    def test_table2_parameters(self):
        s = builtin("table2")
        assert agent(s, "a").mu == 0.2
        assert agent(s, "b").mu == 0.8
        assert agent(s, "a").w0 == agent(s, "b").w0 == (0.0,)

    def test_table5_parameters(self):
        s = builtin("table5")
        assert agent(s, "a").noise.sd == 0.01
        assert agent(s, "b").noise.sd == 0.2
        assert s.trust.rows[1] == (0.5, 0.5, 0.0, 0.0)

    def test_structure(self):
        for name in builtin_names():
            s = builtin(name)
            kinds = [cfg.kind for cfg in s.agents]
            assert kinds == ["cooperative", "cooperative", "standalone",
                             "standalone", "averaging"]
            assert agent(s, "c").counterpart == "a"
            assert agent(s, "d").counterpart == "b"
            assert agent(s, "e").sources == ("c", "d")


class TestValidation:
    def test_standalone_row_must_be_identity(self):
        s = builtin("table1")
        with pytest.raises(ConfigError, match="identity"):
            with_trust(s, [(0.5, 0.5, 0, 0), (0.5, 0.5, 0, 0),
                           (0.5, 0, 0.5, 0), (0, 0, 0, 1)])

    def test_trust_dimension_mismatch(self):
        s = builtin("table1")
        with pytest.raises(ConfigError, match="adaptive"):
            dataclasses.replace(s, trust=TrustMatrix.identity(3))

    def test_counterpart_params_must_match(self):
        s = builtin("table1")
        agents = list(s.agents)
        agents[2] = dataclasses.replace(agents[2],
                                        noise=GaussianParams(0.0, 0.5))
        with pytest.raises(ConfigError, match="counterpart"):
            dataclasses.replace(s, agents=tuple(agents))

    def test_averaging_takes_no_mu(self):
        s = builtin("table1")
        agents = list(s.agents)
        agents[4] = dataclasses.replace(agents[4], mu=0.5)
        with pytest.raises(ConfigError, match="averaging"):
            dataclasses.replace(s, agents=tuple(agents))

    def test_w0_dimension_checked(self):
        s = builtin("table1")
        with pytest.raises(ConfigError, match="w0"):
            dataclasses.replace(s, w_opt=(2.0, 1.0))

    @pytest.mark.parametrize("bad_id", ["", "a b", "a\tb", "a,b", "a#b", "a.b", "[a]"])
    def test_agent_id_that_breaks_the_format(self, bad_id):
        s = builtin("table1")
        agents = (dataclasses.replace(s.agents[0], id=bad_id),) + s.agents[1:]
        with pytest.raises(ConfigError, match=re.escape(f"agent id {bad_id!r}")):
            dataclasses.replace(s, agents=agents)


    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("iterations", 2.5), ("ensemble", 2.0), ("seed", "3"),
        ("iterations", None)])
    def test_counts_must_be_integers(self, field, value):
        """Python API callers can pass any value: one that is not an integer
        is a ConfigError naming the field, not a TypeError in the engine."""
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
            dataclasses.replace(builtin("table1"), **{field: value})

    @pytest.mark.parametrize("make, field", [
        pytest.param(lambda s: dataclasses.replace(s, w_opt=("2",)), "w_opt", id="w_opt"),
        pytest.param(lambda s: _with_agent_a(s, mu="0.5"), "agent a: mu", id="mu"),
        pytest.param(lambda s: _with_agent_a(s, mu=True), "agent a: mu", id="mu-bool"),
        pytest.param(lambda s: _with_agent_a(s, w0=(None,)), "agent a: w0", id="w0"),
        pytest.param(lambda s: _with_agent_a(s, id=3), "agent id 3", id="id"),
        pytest.param(lambda s: GaussianParams(0.0, "x"), "Gaussian mean and sd", id="sd"),
        pytest.param(lambda s: TrustMatrix(rows=(("a",),)), "trust row 0", id="trust"),
        pytest.param(lambda s: dataclasses.replace(s, w_opt=2.0), "w_opt", id="w_opt-number"),
        pytest.param(lambda s: _with_agent_a(s, w0=5), "agent a: w0", id="w0-number"),
        pytest.param(lambda s: _with_agent_a(s, input=(0, 1)), "agent a: input", id="input-tuple"),
        pytest.param(lambda s: _with_agent_a(s, noise=(0, 0.03)), "agent a: noise",
                     id="noise-tuple"),
        pytest.param(lambda s: dataclasses.replace(s, w_opt={0: 2.0}), "w_opt", id="w_opt-dict"),
        pytest.param(lambda s: dataclasses.replace(s, w_opt={2.0}), "w_opt", id="w_opt-set"),
        pytest.param(lambda s: _with_agent_a(s, w0={0: 0.0}), "agent a: w0", id="w0-dict"),
        pytest.param(lambda s: _with_agent_a(s, w0={0.0}), "agent a: w0", id="w0-set"),
        pytest.param(lambda s: dataclasses.replace(s, agents=("a",)), "agents", id="agents-str"),
        pytest.param(lambda s: dataclasses.replace(s, agents=5), "agents", id="agents-number"),
        pytest.param(lambda s: dataclasses.replace(s, trust=None), "trust", id="trust-none")])
    def test_fields_of_a_wrong_type(self, make, field):
        """A Python API value of a wrong type or shape is a ConfigError naming
        its field, raised before any comparison, not a TypeError, KeyError or
        AttributeError. A ``bool`` is not a real number, a number, a set or a
        dict is not a vector (a dict's keys would be read as the vector, its
        values as the signal), a pair is not a GaussianParams, and a str is not
        an AgentConfig."""
        with pytest.raises(ConfigError, match=f"^{re.escape(field)} must be "):
            make(builtin("table1"))

    def test_int_and_numpy_values_run_like_their_floats(self):
        s = small(builtin("table1"), iterations=30, ensemble=2)
        a = s.agents[0]
        twin = dataclasses.replace(_with_agent_a(
            s, mu=np.float64(a.mu), w0=(0,), input=GaussianParams(0, np.float64(a.input.sd)),
            noise=GaussianParams(np.int64(0), np.float64(a.noise.sd))), w_opt=(np.int64(2),))
        twin = with_trust(twin, [[np.float64(0.5), np.float64(0.5), 0, 0],
                                 [np.float64(0.5), np.float64(0.5), 0, 0],
                                 [0, 0, 1, 0], [0, 0, np.int64(0), np.int64(1)]])
        assert type(twin.agents[0].mu) is np.float64 and type(twin.w_opt[0]) is np.int64
        ours, ref = run(twin), run(s)
        assert ours.ws.tobytes() == ref.ws.tobytes() and ours.es.tobytes() == ref.es.tobytes()

    # no explain phase: on a failing example Hypothesis 6.155's explain step
    # fails an assertion in its shrinker instead of reporting the example
    @settings(max_examples=150, deadline=None, derandomize=True,
              phases=[Phase.generate, Phase.shrink],
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios(), st.data())
    def test_a_field_of_a_wrong_type_is_a_config_error(self, scenario, data):
        """One network or agent field of a valid scenario replaced by a value
        of a wrong type is a ConfigError that names the field (and its agent),
        never a TypeError, AttributeError, KeyError or bare ValueError; the
        field's exact-type twin, each float an equal int or numpy float, runs
        to the same bits."""
        k = data.draw(st.integers(-1, len(scenario.agents) - 1), "agent (-1: the network)")
        cfg = scenario.agents[k] if k >= 0 else None
        field = data.draw(st.sampled_from(_AGENT_FIELDS if cfg else _NETWORK_FIELDS), "field")
        right = _RIGHT_TYPES.get(field, ())
        if cfg and cfg.kind == "averaging" and field in ("mu", "w0", "input", "noise"):
            right = ("None",)
        wrong = data.draw(st.sampled_from([w for w in _WRONG_TYPES if w not in right]),
                          "wrong type")
        value = data.draw(_WRONG_TYPES[wrong], wrong)

        def replaced(value):
            if cfg is None:
                return dataclasses.replace(scenario, **{field: value})
            agents = list(scenario.agents)
            agents[k] = dataclasses.replace(cfg, **{field: value})
            return dataclasses.replace(scenario, agents=tuple(agents))

        with pytest.raises(ConfigError) as info:
            run(replaced(value))
        message = str(info.value)
        assert re.search(rf"\b{field}\b", message), message
        assert not cfg or field == "id" or message.startswith(f"agent {cfg.id}: "), message

        own = getattr(cfg or scenario, field)
        if field in ("mu", "w0", "w_opt", "input", "noise", "trust") and own is not None:
            assert _outcome(replaced(_twin(own, data.draw))) == _outcome(scenario)


# The fields a wrong value replaces, and the wrong types of value; a field
# whose own type is among them (an id is text; a counterpart text or None;
# sources a sequence of str, as a numpy str array is) does not draw that type.
_NETWORK_FIELDS = ("agents", "trust", "w_opt", "iterations", "seed", "ensemble")
_AGENT_FIELDS = ("id", "kind", "mu", "w0", "input", "noise", "counterpart", "sources")
_RIGHT_TYPES = {"id": ("text",), "kind": ("text",), "counterpart": ("text", "None"),
                "sources": ("str array",)}
_WRONG_TYPES = {
    "text": st.text(max_size=4),
    "bytes": st.binary(max_size=4),
    "None": st.none(),
    "complex": st.complex_numbers(),
    "set": st.sets(st.one_of(st.floats(), st.text(max_size=2)), max_size=3),
    "nested tuple": st.tuples(st.tuples(st.floats())),
    "str array": st.lists(st.text(max_size=2), min_size=2, max_size=3).map(np.array),
}


def _twin(value, draw):
    """``value`` with each float an equal int, where one is exact, or a numpy float."""
    def number(x):
        exact = x == int(x) and math.copysign(1.0, x) > 0
        return int(x) if exact and draw(st.booleans()) else np.float64(x)
    if isinstance(value, GaussianParams):
        return GaussianParams(number(value.mean), number(value.sd))
    if isinstance(value, TrustMatrix):
        return TrustMatrix(tuple(map(_twin, value.rows, [draw] * value.size)))
    if isinstance(value, tuple):
        return tuple(map(number, value))
    return number(value)


def _outcome(scenario):
    """The bytes of a run's record, or its divergence message."""
    try:
        record = run(scenario)
    except DivergenceError as exc:
        return str(exc)
    return record.ws.tobytes(), record.es.tobytes()


def _with_agent_a(scenario, **fields):
    """``scenario`` with agent a's fields replaced."""
    return dataclasses.replace(scenario, agents=(
        dataclasses.replace(scenario.agents[0], **fields), *scenario.agents[1:]))


class TestConfigFormat:
    MINIMAL = """
    [network]
    w_opt = 2.0
    iterations = 10
    seed = 1
    ensemble = 2

    [agent]
    id = solo
    kind = standalone
    mu = 0.5
    w0 = 0
    input_sd = 0.09
    noise_sd = 0.03
    """

    def test_minimal_standalone(self):
        s = parse(self.MINIMAL)
        assert len(s.agents) == 1
        assert s.trust.rows == ((1.0,),)
        assert s.iterations == 10

    def test_bad_trust_row_sum(self):
        text = self.MINIMAL + "\n[trust]\nsolo solo 0.6\n"
        with pytest.raises(ConfigError, match="row sum"):
            parse(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse("orphan = 1\n")

    @pytest.mark.parametrize("line, replacement, message", [
        ("w_opt = 2.0", "w_opt = 2,x", "line 3: invalid w_opt value '2,x'"),
        ("mu = 0.5", "mu = fast", "line 11: invalid mu value 'fast'"),
        ("w0 = 0", "w0 = 0,", "line 12: invalid w0 value '0,'"),
        ("noise_sd = 0.03", "noise_sd = -0.03", "line 14: invalid noise_sd value '-0.03'"),
    ])
    def test_invalid_value_names_its_line(self, line, replacement, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(self.MINIMAL.replace(line, replacement))

    def test_empty_counterpart_means_none(self):
        """As with --set AGENT.counterpart=, an empty value sets no counterpart."""
        assert parse(self.MINIMAL + "    counterpart =\n").agents[0].counterpart is None

    @pytest.mark.parametrize("kind, key", [
        ("standalone", "sources"),
        ("cooperative", "sources"),
        ("averaging", "mu"),
        ("averaging", "noise_sd"),
        ("averaging", "counterpart"),
    ])
    def test_key_the_kind_does_not_take(self, kind, key):
        text = self.MINIMAL + f"[agent]\nid = x\nkind = {kind}\n{key} = solo\n"
        with pytest.raises(ParseError, match=f"line 18: {kind} agents take no {key}$"):
            parse(text)

    def test_unknown_kind_names_its_line(self):
        text = self.MINIMAL + "[agent]\nid = x\nkind = foo\nsources = solo\n"
        with pytest.raises(ParseError, match="line 17: unknown agent kind 'foo'"):
            parse(text)

    @pytest.mark.parametrize("section", ["[agent]\n", "[agent]\nkind = standalone\n"])
    def test_missing_id_names_the_section_header(self, section):
        with pytest.raises(ParseError, match="line 15: agent section missing id"):
            parse(self.MINIMAL + section)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_cr_lf_and_crlf_end_lines(self, newline):
        text = self.MINIMAL.replace("noise_sd = 0.03", "noise_sd = -0.03")
        with pytest.raises(ParseError, match="line 14: invalid noise_sd value"):
            parse(text.replace("\n", newline))

    @pytest.mark.parametrize("char", ["\f", "\v", "\x1c", "\x85", "\u2028"])
    def test_other_line_breaks_do_not_end_lines(self, char):
        """A form feed (or another break str.splitlines() would split at) in a
        comment or on a line of its own parses like the file without it, and
        a later error names the line an editor shows."""
        text = (self.MINIMAL.replace("w_opt = 2.0", f"w_opt = 2.0  # x{char}junk")
                .replace("\n    [agent]", f"\n{char}\n    [agent]"))
        assert parse(text) == parse(self.MINIMAL)
        with pytest.raises(ParseError, match="line 15: invalid noise_sd value"):
            parse(text.replace("noise_sd = 0.03", "noise_sd = -0.03"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="frobnicate"):
            parse("[network]\nfrobnicate = 1\n")

    def test_comments_and_whitespace(self):
        s = parse("# comment\n[network]\n  seed =  7  # trailing\n"
                  "[agent]\nid=x\nkind=standalone\nw0=0\nnoise_sd=0\n")
        assert s.seed == 7

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4",
                                      "table5"])
    def test_roundtrip_on_builtins(self, name):
        s = builtin(name)
        assert parse(serialize(s)) == s

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios())
    def test_roundtrip_on_generated_scenarios(self, scenario):
        assert parse(serialize(scenario)) == scenario

    @pytest.mark.parametrize("twin", ["list", "ndarray", "list-sources"])
    @pytest.mark.parametrize("name", ["table1", "table5"])
    def test_sequence_fields_of_any_type_serialize_as_tuples(self, name, twin):
        """A list or 1-D numpy array w_opt or w0, numpy integers in [network]
        and a list of sources serialize as the tuple scenario does, and parse
        back to it."""
        s = builtin(name)
        if twin == "list-sources":
            agents = [dataclasses.replace(cfg, sources=list(cfg.sources))
                      if cfg.sources else cfg for cfg in s.agents]
            twin = dataclasses.replace(s, agents=tuple(agents))
        else:
            vector = list if twin == "list" else np.array
            agents = [dataclasses.replace(cfg, w0=vector(cfg.w0)) if cfg.is_adaptive() else cfg
                      for cfg in s.agents]
            twin = dataclasses.replace(s, agents=agents, w_opt=vector(s.w_opt))
            if vector is np.array:
                twin = dataclasses.replace(twin, iterations=np.int64(s.iterations),
                                           seed=np.uint64(s.seed), ensemble=np.int32(3))
                s = dataclasses.replace(s, ensemble=3)
        assert serialize(twin) == serialize(s)
        assert parse(serialize(twin)) == s

    def test_duplicate_network_key(self):
        with pytest.raises(ParseError, match="line 4: duplicate network key 'seed', "
                                             "first given on line 2"):
            parse("[network]\nseed = 1\niterations = 5\nseed = 2\n")

    def test_duplicate_agent_key(self):
        text = self.MINIMAL + "    mu = 0.25\n"
        with pytest.raises(ParseError, match="line 15: duplicate agent key 'mu', "
                                             "first given on line 11"):
            parse(text)

    def test_duplicate_trust_entry(self):
        text = self.MINIMAL + "[trust]\nsolo solo 1.0\nsolo solo 1.0\n"
        with pytest.raises(ParseError, match="line 17: duplicate trust entry solo -> solo, "
                                             "first given on line 16"):
            parse(text)

    def test_same_key_in_two_agents_is_not_a_duplicate(self):
        text = self.MINIMAL + "[agent]\nid = other\nkind = standalone\nmu = 0.5\n"
        assert [cfg.mu for cfg in parse(text).agents] == [0.5, 0.5]


class TestRun:
    def test_deterministic(self):
        s = small(builtin("table1"))
        first, second = run(s), run(s)
        assert first.ws.tolist() == second.ws.tolist()
        assert first.es.tolist() == second.es.tolist()

    def test_shapes(self):
        s = small(builtin("table1"), iterations=20, ensemble=4)
        record = run(s)
        assert len(record) == 4
        assert record.iterations == 20
        assert set(record.agents) == {"a", "b", "c", "d", "e"}

    def test_twin_pairing(self):
        """c and d see bit-identical samples to a and b: with identity trust
        their whole trajectories coincide."""
        s = small(builtin("table1"), iterations=100, ensemble=2)
        s = with_trust(s, [(1, 0, 0, 0), (0, 1, 0, 0),
                           (0, 0, 1, 0), (0, 0, 0, 1)])
        record = run(s)
        assert record.w("a").tolist() == record.w("c").tolist()
        assert record.w("b").tolist() == record.w("d").tolist()

    def test_noiseless_converges_to_w_opt(self):
        s = small(builtin("table1"), iterations=4500, ensemble=1)
        agents = tuple(
            cfg if cfg.kind == "averaging"
            else dataclasses.replace(cfg, noise=GaussianParams(0.0, 0.0))
            for cfg in s.agents
        )
        s = dataclasses.replace(s, agents=agents)
        record = run(s)
        for aid in ("a", "b", "c", "d"):
            assert abs(record.w(aid)[0, -1, 0] - 2.0) < 1e-6

    def test_divergence_raises_with_context(self):
        s = small(builtin("table1"), iterations=5000, ensemble=2)
        agents = tuple(
            cfg if not cfg.is_adaptive()
            else dataclasses.replace(cfg, mu=2.5,
                                     input=GaussianParams(0.0, 1.0))
            for cfg in s.agents
        )
        s = dataclasses.replace(s, agents=agents)
        with pytest.raises(DivergenceError) as excinfo:
            run(s)
        err = excinfo.value
        assert err.run is not None
        assert err.agent is not None
        assert err.iteration is not None

    def test_averaging_exact_mean_every_iteration(self):
        s = small(builtin("table3"), iterations=60, ensemble=2)
        record = run(s)
        mean = (record.w("c") + record.w("d")) / 2
        assert record.w("e").tolist() == mean.tolist()


class TestReport:
    def test_compute_report_fields(self):
        s = small(builtin("table2"), iterations=100, ensemble=4)
        sums = EnsembleSums().add(run(s))
        msd, rows = compute_report(s, sums)
        # a row per iteration and a column per agent, by agent id
        assert msd.shape == (100, 5)
        assert msd.T.tolist() == [sums.msd([aid])[:, 0].tolist() for aid in "abcde"]
        assert (msd >= 0).all()
        assert [row[1] for row in rows if row[0] == "crossing_iter"][0] == "a:b"


def test_seeds_that_differ_below_the_ensemble_share_runs():
    """Run r is seeded from seed XOR r (README, determinism contract), so
    seed 43's run 0 is seed 42's run 1 and its run 1 is run 0, bit for bit;
    seeds that differ at or above bit ceil(log2 ensemble), 42 + j 2^32, draw
    on no common run seed."""
    s = small(builtin("table1"), iterations=30, ensemble=2)
    r42, r43 = run(s), run(dataclasses.replace(s, seed=43))
    for a, b in ((0, 1), (1, 0)):
        assert r43.ws[a].tobytes() == r42.ws[b].tobytes()
        assert r43.es[a].tobytes() == r42.es[b].tobytes()
    run_seeds = [{(42 + j * 2**32) ^ r for r in range(100)} for j in range(5)]
    assert len(set().union(*run_seeds)) == 5 * 100


def test_run_single_seeding_is_documented_mix():
    """Run r, stream owner k: seed = derive_seed(scenario.seed XOR r, k)."""
    from dlms.prng import derive_seed
    from oracle import RandomStream, generate_sample

    s = small(builtin("table1"), iterations=1, ensemble=4)
    record = run(s)
    # agent a owns stream index 0 (its position in the agent list)
    stream = RandomStream(derive_seed(s.seed ^ 3, 0))
    sample = generate_sample(stream, s.w_opt, agent(s, "a").input,
                             agent(s, "a").noise)
    psi = 0.5 * (0.0 + 1.0)
    e = sample.y - psi * sample.x[0]
    assert record.w("a")[3, 0].tolist() == [psi + 0.5 * e * sample.x[0]]
