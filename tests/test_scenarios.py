import dataclasses
import re

import pytest
from hypothesis import HealthCheck, given, settings

from dlms.errors import ConfigError, DivergenceError, ParseError
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
        report = compute_report(s, run(s))
        assert set(report.msd) == {"a", "b", "c", "d", "e"}
        assert all(len(v) == 100 for v in report.msd.values())
        assert all(v >= 0 for series in report.msd.values() for v in series)
        assert ("a", "b") in report.crossing_iter


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
