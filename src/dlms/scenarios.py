"""Experiment definitions and the run orchestrator.

Builtins reproduce the two-agent configurations of the reference
experiments: cooperative agents a and b, standalone twins c and d fed the
same signal realizations, and a follower e averaging c and d.
"""

import math
import re
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import combinations
from operator import index

from .errors import ConfigError, ParseError, check_real
from .metrics import (
    CONVERGENCE_BAND_FRACTION,
    convergence_iteration,
    crossing_iteration,
    default_band,
)
from .network import TrustMatrix
from .signals import GaussianParams

COOPERATIVE = "cooperative"
STANDALONE = "standalone"
AVERAGING = "averaging"

_KINDS = (COOPERATIVE, STANDALONE, AVERAGING)
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class AgentConfig:
    id: str
    kind: str
    mu: float = None
    w0: tuple = None
    input: GaussianParams = None
    noise: GaussianParams = None
    counterpart: str = None
    sources: tuple = ()

    def is_adaptive(self):
        return self.kind in (COOPERATIVE, STANDALONE)


@dataclass(frozen=True)
class Scenario:
    agents: tuple
    trust: TrustMatrix
    w_opt: tuple = (2.0,)
    iterations: int = 1000
    seed: int = 42
    ensemble: int = 100

    def __post_init__(self):
        validate(self)

    def adaptive_agents(self):
        return [cfg for cfg in self.agents if cfg.is_adaptive()]

    def averaging_agents(self):
        return [cfg for cfg in self.agents if cfg.kind == AVERAGING]


def _check_sequence(name, values, of, item=object):
    """len(values), if they are ``item`` instances in a list, a tuple, another
    Sequence but text or bytes, or a 1-D numpy array; else a ConfigError
    naming the field. A set's order and a dict's keys are no vector."""
    numpy = sys.modules.get("numpy")  # no array exists before numpy is loaded
    sequence = (isinstance(values, Sequence) and not isinstance(values, (str, bytes, bytearray))
                or numpy and isinstance(values, numpy.ndarray) and values.ndim == 1)
    if not sequence or not all(isinstance(v, item) for v in values):
        raise ConfigError(f"{name} must be a sequence of {of}, got {values!r}")
    return len(values)


def _check_finite(name, values):
    """len(values), if they are a sequence of finite reals; else a ConfigError naming the field."""
    length = _check_sequence(name, values, "real numbers")
    check_real(name, values)
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{name} must be finite, got {', '.join(map(repr, values))}")
    return length


def validate(scenario):
    """Check every scenario invariant; raise ConfigError naming the field."""
    for name in ("iterations", "ensemble", "seed"):
        value = getattr(scenario, name)
        try:
            index(value)
        except TypeError:
            raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if scenario.iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {scenario.iterations}")
    if scenario.ensemble < 1:
        raise ConfigError(f"ensemble must be >= 1, got {scenario.ensemble}")
    if not 0 <= scenario.seed <= _SEED_MASK:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {scenario.seed}")
    if not _check_sequence("agents", scenario.agents, "AgentConfig", AgentConfig):
        raise ConfigError("scenario has no agents")
    if not isinstance(scenario.trust, TrustMatrix):
        raise ConfigError(f"trust must be a TrustMatrix, got {scenario.trust!r}")
    m = _check_finite("w_opt", scenario.w_opt)
    if m < 1:
        raise ConfigError("w_opt must have at least one component")

    ids = [cfg.id for cfg in scenario.agents]
    for aid in ids:
        # such ids break the config format or the --set AGENT.FIELD syntax
        if not isinstance(aid, str) or not aid or re.search(r"^\[|[\s,#.]", aid):
            raise ConfigError(f"agent id {aid!r} must be a non-empty str, must not start "
                              "with '[' and must not contain whitespace, ',', '#' or '.'")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate agent ids: {ids}")
    by_id = {cfg.id: cfg for cfg in scenario.agents}

    # each agent's own fields first, so that a reference to an agent finds them valid
    for cfg in scenario.agents:
        if not isinstance(cfg.kind, str) or cfg.kind not in _KINDS:
            raise ConfigError(f"agent {cfg.id}: unknown kind {cfg.kind!r}")
        _check_sequence(f"agent {cfg.id}: sources", cfg.sources, "agent ids", str)
        if not isinstance(cfg.counterpart, (str, type(None))):
            raise ConfigError(
                f"agent {cfg.id}: counterpart must be an agent id, got {cfg.counterpart!r}")
        if cfg.kind == AVERAGING:
            for name in ("mu", "w0", "input", "noise"):
                if getattr(cfg, name) is not None:
                    raise ConfigError(f"agent {cfg.id}: averaging agents take no {name}")
            if not cfg.sources:
                raise ConfigError(f"agent {cfg.id}: averaging agents need >= 1 source")
        else:
            check_real(f"agent {cfg.id}: mu", (cfg.mu,))
            if not 0 <= cfg.mu < math.inf:
                raise ConfigError(
                    f"agent {cfg.id}: mu must be finite and >= 0, got {cfg.mu}")
            if cfg.w0 is None or _check_finite(f"agent {cfg.id}: w0", cfg.w0) != m:
                raise ConfigError(
                    f"agent {cfg.id}: w0 must have {m} components, got {cfg.w0}")
            if cfg.input is None or cfg.noise is None:
                raise ConfigError(f"agent {cfg.id}: input and noise statistics required")
            for name in ("input", "noise"):
                params = getattr(cfg, name)
                if not isinstance(params, GaussianParams):
                    raise ConfigError(
                        f"agent {cfg.id}: {name} must be GaussianParams, got {params!r}")
                _check_finite(f"agent {cfg.id}: {name}_mean", (params.mean,))
                _check_finite(f"agent {cfg.id}: {name}_sd", (params.sd,))
            if cfg.sources:
                raise ConfigError(f"agent {cfg.id}: only averaging agents take sources")

    adaptive = scenario.adaptive_agents()
    for cfg in scenario.agents:
        for src in cfg.sources:
            if src not in by_id or not by_id[src].is_adaptive():
                raise ConfigError(f"agent {cfg.id}: source {src!r} is not an adaptive agent")
        if cfg.counterpart is not None:
            other = by_id.get(cfg.counterpart)
            if other is cfg:
                raise ConfigError(f"agent {cfg.id}: counterpart must name another agent")
            if other is None or not other.is_adaptive():
                raise ConfigError(
                    f"agent {cfg.id}: counterpart {cfg.counterpart!r} "
                    "must name an adaptive agent")
            if other.counterpart is not None:
                raise ConfigError(
                    f"agent {cfg.id}: counterpart chains are not allowed")
            if other.input != cfg.input or other.noise != cfg.noise:
                raise ConfigError(
                    f"agent {cfg.id}: counterpart {cfg.counterpart!r} has "
                    "different input/noise statistics")

    if scenario.trust.size != len(adaptive):
        raise ConfigError(
            f"trust matrix is {scenario.trust.size}x{scenario.trust.size} "
            f"but there are {len(adaptive)} adaptive agents")
    for a, cfg in enumerate(adaptive):
        if cfg.kind == STANDALONE and not scenario.trust.is_identity_row(a):
            raise ConfigError(f"agent {cfg.id}: standalone trust row must be identity")


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

_BUILTIN_PARAMS = {
    # name: (mu_a, mu_b, w0_a, w0_b, s_self, noise_sd_a, noise_sd_b, summary)
    "table1": (0.5, 0.5, 0.0, 1.0, 0.5, 0.03, 0.03,
               "different initial weights merge to an average behaviour"),
    "table2": (0.2, 0.8, 0.0, 0.0, 0.5, 0.03, 0.03,
               "heterogeneous learning rates boost convergence rate"),
    "table3": (0.2, 0.8, 0.0, 1.0, 0.5, 0.03, 0.03,
               "faster learner starts closer and pulls the network"),
    "table4": (0.8, 0.2, 0.0, 1.0, 0.5, 0.03, 0.03,
               "faster learner starts further; standalone twins cross over"),
    "table5": (0.5, 0.5, 0.0, 1.0, 0.5, 0.01, 0.2,
               "unequal signal noise; cooperation stabilizes the noisy agent"),
}

INPUT_SD = 0.09


def builtin_names():
    return list(_BUILTIN_PARAMS)


def _builtin_params(name):
    if name not in _BUILTIN_PARAMS:
        raise ConfigError(
            f"unknown builtin {name!r}; valid names: {', '.join(_BUILTIN_PARAMS)}")
    return _BUILTIN_PARAMS[name]


def builtin_summary(name):
    return _builtin_params(name)[7]


def builtin(name):
    """Five-agent scenario for one of the builtin experiment tables."""
    mu_a, mu_b, w0_a, w0_b, s_self, nsd_a, nsd_b, _ = _builtin_params(name)
    inp = GaussianParams(0.0, INPUT_SD)
    noise_a = GaussianParams(0.0, nsd_a)
    noise_b = GaussianParams(0.0, nsd_b)
    s_other = 1.0 - s_self
    agents = (
        AgentConfig("a", COOPERATIVE, mu=mu_a, w0=(w0_a,), input=inp, noise=noise_a),
        AgentConfig("b", COOPERATIVE, mu=mu_b, w0=(w0_b,), input=inp, noise=noise_b),
        AgentConfig("c", STANDALONE, mu=mu_a, w0=(w0_a,), input=inp, noise=noise_a,
                    counterpart="a"),
        AgentConfig("d", STANDALONE, mu=mu_b, w0=(w0_b,), input=inp, noise=noise_b,
                    counterpart="b"),
        AgentConfig("e", AVERAGING, sources=("c", "d")),
    )
    trust = TrustMatrix((
        (s_self, s_other, 0.0, 0.0),
        (s_other, s_self, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ))
    return Scenario(agents=agents, trust=trust, w_opt=(2.0,))


def with_trust(scenario, rows):
    """Same scenario with the whole trust matrix replaced by ``rows``."""
    return replace(scenario, trust=TrustMatrix(rows))


# ---------------------------------------------------------------------------
# Config format
# ---------------------------------------------------------------------------

def parse_vector(text):
    """A comma-separated vector of floats; ValueError if a part is no float."""
    return tuple(float(p) for p in text.split(","))


# The [network] keys and their converters. Each is the Scenario field of the
# same name, which holds its default.
NETWORK_FIELDS = {"w_opt": parse_vector, "iterations": int, "seed": int, "ensemble": int}

# The agent keys a config section and ``--set AGENT.FIELD`` share:
# key -> (AgentConfig field, GaussianParams field or None, converter).
AGENT_FIELDS = {
    "mu": ("mu", None, float),
    "w0": ("w0", None, parse_vector),
    "input_mean": ("input", "mean", float),
    "input_sd": ("input", "sd", float),
    "noise_mean": ("noise", "mean", float),
    "noise_sd": ("noise", "sd", float),
    "counterpart": ("counterpart", None, lambda text: text or None),
}
_AVERAGING_KEYS = {"id", "kind", "sources"}
_AGENT_KEYS = {*_AVERAGING_KEYS, *AGENT_FIELDS}


def _add_entry(entries, key, value, lineno, name):
    """entries[key] = (value, lineno); a key given twice is a ParseError."""
    if key in entries:
        raise ParseError(f"duplicate {name}, first given on line {entries[key][1]}", lineno)
    entries[key] = (value, lineno)


def read_entries(config_text):
    """The entries of a config text, as ``build`` takes them, each with its
    line number as its ``where``.

    Sections: one ``[network]``, one ``[agent]`` per agent, one ``[trust]``
    with ``from to coefficient`` triples. ``#`` starts a comment. Lines end
    at ``\r\n``, ``\r`` or ``\n`` only, so line numbers are an editor's.
    """
    network, sections, trust = {}, [], {}
    section = None
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", config_text), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise ParseError(f"unterminated section header {text!r}", lineno)
            section = text[1:-1].strip().lower()
            if section == "agent":
                sections.append(({}, lineno))
            elif section not in ("network", "trust"):
                raise ParseError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ParseError("content before first section header", lineno)
        if section == "trust":
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(
                    f"trust entries are 'from to coefficient' triples, got {text!r}",
                    lineno)
            _add_entry(trust, (parts[0], parts[1]), parts[2], lineno,
                       f"trust entry {parts[0]} -> {parts[1]}")
            continue
        if "=" not in text:
            raise ParseError(f"expected key=value, got {text!r}", lineno)
        key, _, value = text.partition("=")
        key = key.strip().lower()
        keys, target = ((NETWORK_FIELDS, network) if section == "network"
                        else (_AGENT_KEYS, sections[-1][0]))
        if key not in keys:
            raise ParseError(f"unknown {section} key {key!r}", lineno)
        _add_entry(target, key, value.strip(), lineno, f"{section} key {key!r}")
    return network, sections, trust


@contextmanager
def _invalid(name, text, where):
    """A ValueError in the body is a ParseError naming the text and where."""
    try:
        yield
    except ValueError:
        raise ParseError(f"invalid {name} {text!r}", where) from None


def _build_agent(section, header):
    """AgentConfig of one agent's entries; ``header`` is where its section starts."""
    if "id" not in section:
        raise ParseError("agent section missing id", header)
    kind, where = section.get("kind", (COOPERATIVE, header))
    if kind not in _KINDS:
        raise ParseError(f"unknown agent kind {kind!r}", where)
    allowed = _AVERAGING_KEYS if kind == AVERAGING else _AGENT_KEYS - {"sources"}
    for key, (_, where) in section.items():
        if key not in allowed:
            raise ParseError(f"{kind} agents take no {key}", where)
    aid = section["id"][0]
    if kind == AVERAGING:
        sources = section.get("sources", ("",))[0].replace(",", " ").split()
        return AgentConfig(aid, kind, sources=tuple(sources))
    fields = {"mu": 0.5, "w0": (0.0,), "input": GaussianParams(0.0, 1.0),
              "noise": GaussianParams(0.0, 0.0)}
    for key, (name, part, convert) in AGENT_FIELDS.items():
        if key in section:
            text, where = section[key]
            with _invalid(f"{key} value", text, where):
                value = convert(text)
                if part is not None:
                    value = replace(fields[name], **{part: value})
            fields[name] = value
    return AgentConfig(aid, kind, **fields)


def build(network, sections, trust):
    """The Scenario of a set of config entries.

    An entry is a ``(text, where)`` pair under its key; ``where``, a line
    number or the CLI option that gave the text, starts the message of a
    ParseError about it. ``network`` holds NETWORK_FIELDS keys, ``sections``
    one ``(entries, where its section starts)`` pair per agent and ``trust``
    coefficients under ``(from, to)`` adaptive agent ids. A key not given
    takes its default; a trust row with no entries is identity.
    """
    fields = {}
    for key, (text, where) in network.items():
        with _invalid(f"{key} value", text, where):
            fields[key] = NETWORK_FIELDS[key](text)
    agents = tuple(_build_agent(*section) for section in sections)
    ids = [cfg.id for cfg in agents if cfg.is_adaptive()]
    listed = {src for src, _ in trust}
    rows = [[1.0 if a == b and src not in listed else 0.0 for b in range(len(ids))]
            for a, src in enumerate(ids)]
    for (src, dst), (text, where) in trust.items():
        if src not in ids or dst not in ids:
            raise ParseError(
                f"trust entry names unknown adaptive agent {src!r} -> {dst!r}", where)
        with _invalid("trust coefficient", text, where):
            rows[ids.index(src)][ids.index(dst)] = float(text)
    return Scenario(agents=agents, trust=TrustMatrix(rows), **fields)


def parse(config_text):
    """Parse the line-oriented scenario config format (see ``read_entries``)."""
    return build(*read_entries(config_text))


def _text(value):
    """A field's value as config text: a sequence's items joined by commas, an
    integer in decimal, another real as its float's shortest repr."""
    if isinstance(value, str):
        return value
    if hasattr(value, "__iter__"):  # a list, a tuple or a 1-D numpy array
        return ",".join(map(_text, value))
    return str(index(value)) if hasattr(value, "__index__") else repr(float(value))


def serialize(scenario):
    """Render a Scenario in the config format accepted by parse()."""
    lines = ["[network]", *(f"{key} = {_text(getattr(scenario, key))}" for key in NETWORK_FIELDS)]
    for cfg in scenario.agents:
        lines += ["", "[agent]", f"id = {cfg.id}", f"kind = {cfg.kind}"]
        if cfg.kind == AVERAGING:
            lines.append(f"sources = {_text(cfg.sources)}")
            continue
        for key, (name, part, _) in AGENT_FIELDS.items():
            value = getattr(cfg, name)
            value = value if part is None else getattr(value, part)
            if value is not None:
                lines.append(f"{key} = {_text(value)}")
    ids = [cfg.id for cfg in scenario.adaptive_agents()]
    lines += ["", "[trust]", *(f"{ids[a]} {ids[b]} {_text(coeff)}"
                               for a, row in enumerate(scenario.trust.rows)
                               for b, coeff in enumerate(row) if coeff != 0.0)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def run(scenario):
    """Execute the full ensemble; returns its EnsembleRecord, runs in order.

    On divergence the raised error's ``completed`` is the record of the runs
    that finished before the divergent one.
    """
    from .engine import run_ensemble  # numpy loads with the first run, not at import

    return run_ensemble(scenario)


def scenario_band(scenario, fraction=CONVERGENCE_BAND_FRACTION):
    """The band of ``fraction`` of the mean initial distance of this scenario's
    adaptive agents to w_opt (metrics.default_band)."""
    return default_band([cfg.w0 for cfg in scenario.adaptive_agents()],
                        scenario.w_opt, fraction)


def compute_report(scenario, sums):
    """The metrics CSV of an ensemble from its EnsembleSums, the records of its
    runs added in run order, all at once or in groups: the MSD [iteration,
    agent], agents in id order, and the other rows ``[metric, agent,
    iteration, value]``: by agent id the steady-state variance, the mean of
    the per-run variances, and the convergence iteration; then, for scalar
    weights only, the crossing iteration of each pair, named in record order
    and sorted, both on the ensemble-mean trajectory. A value is "" for
    "never", for an undefined band and for a horizon too short for the
    steady-state window."""
    ids = sorted(sums.agents)
    msd, mean, total = sums.msd(ids), sums.mean(), sums.steady_state_var
    rows = [["steady_state_var", aid, "", "" if total is None else total[aid] / sums.runs]
            for aid in ids]

    def found(iterations):  # "" for "never", iterations + 1
        return int(iterations[0]) if iterations[0] <= mean.iterations else ""
    try:
        band = scenario_band(scenario)
        conv = [found(convergence_iteration(mean, aid, band)) for aid in ids]
    except ConfigError:
        conv = [""] * len(ids)
    rows += [["convergence_iter", aid, "", c] for aid, c in zip(ids, conv)]
    if len(scenario.w_opt) == 1:
        rows += [["crossing_iter", f"{p}:{q}", "", found(crossing_iteration(mean, p, q))]
                 for p, q in sorted(combinations(sums.agents, 2))]
    return msd, rows
