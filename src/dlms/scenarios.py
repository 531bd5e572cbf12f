"""Experiment definitions and the run orchestrator.

Builtins reproduce the two-agent configurations of the reference
experiments: cooperative agents a and b, standalone twins c and d fed the
same signal realizations, and a follower e averaging c and d.
"""

import math
import re
from dataclasses import dataclass, replace

from .errors import ConfigError, ParseError
from .metrics import (
    MetricsReport,
    convergence_iteration,
    crossing_iteration,
    default_band,
    msd_series,
    steady_state_variance,
    sum_in_order,
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
    w_opt: tuple
    iterations: int = 1000
    seed: int = 42
    ensemble: int = 100

    def __post_init__(self):
        validate(self)

    def adaptive_agents(self):
        return [cfg for cfg in self.agents if cfg.is_adaptive()]

    def averaging_agents(self):
        return [cfg for cfg in self.agents if cfg.kind == AVERAGING]


def _check_finite(name, values):
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{name} must be finite, got {', '.join(map(repr, values))}")


def validate(scenario):
    """Check every scenario invariant; raise ConfigError naming the field."""
    if scenario.iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {scenario.iterations}")
    if scenario.ensemble < 1:
        raise ConfigError(f"ensemble must be >= 1, got {scenario.ensemble}")
    if not 0 <= scenario.seed <= _SEED_MASK:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {scenario.seed}")
    if not scenario.agents:
        raise ConfigError("scenario has no agents")
    m = len(scenario.w_opt)
    if m < 1:
        raise ConfigError("w_opt must have at least one component")
    _check_finite("w_opt", scenario.w_opt)

    ids = [cfg.id for cfg in scenario.agents]
    for aid in ids:
        # such ids break the config format or the --set AGENT.FIELD syntax
        if not aid or aid.startswith("[") or any(c.isspace() or c in ",#." for c in aid):
            raise ConfigError(f"agent id {aid!r} must be non-empty, must not start "
                              "with '[' and must not contain whitespace, ',', '#' or '.'")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate agent ids: {ids}")
    by_id = {cfg.id: cfg for cfg in scenario.agents}

    adaptive = scenario.adaptive_agents()
    for cfg in scenario.agents:
        if cfg.kind not in _KINDS:
            raise ConfigError(f"agent {cfg.id}: unknown kind {cfg.kind!r}")
        if cfg.kind == AVERAGING:
            for name in ("mu", "w0", "input", "noise"):
                if getattr(cfg, name) is not None:
                    raise ConfigError(f"agent {cfg.id}: averaging agents take no {name}")
            if not cfg.sources:
                raise ConfigError(f"agent {cfg.id}: averaging agents need >= 1 source")
            for src in cfg.sources:
                if src not in by_id or not by_id[src].is_adaptive():
                    raise ConfigError(
                        f"agent {cfg.id}: source {src!r} is not an adaptive agent")
        else:
            if cfg.mu is None or not 0 <= cfg.mu < math.inf:
                raise ConfigError(
                    f"agent {cfg.id}: mu must be finite and >= 0, got {cfg.mu}")
            if cfg.w0 is None or len(cfg.w0) != m:
                raise ConfigError(
                    f"agent {cfg.id}: w0 must have {m} components, got {cfg.w0}")
            _check_finite(f"agent {cfg.id}: w0", cfg.w0)
            if cfg.input is None or cfg.noise is None:
                raise ConfigError(f"agent {cfg.id}: input and noise statistics required")
            for name in ("input", "noise"):
                params = getattr(cfg, name)
                _check_finite(f"agent {cfg.id}: {name}_mean", (params.mean,))
                _check_finite(f"agent {cfg.id}: {name}_sd", (params.sd,))
            if cfg.sources:
                raise ConfigError(f"agent {cfg.id}: only averaging agents take sources")
        if cfg.counterpart == cfg.id:
            raise ConfigError(f"agent {cfg.id}: counterpart must name another agent")
        if cfg.counterpart is not None:
            other = by_id.get(cfg.counterpart)
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
    """Same scenario with the cooperative trust rows replaced."""
    return replace(scenario, trust=TrustMatrix(tuple(tuple(r) for r in rows)))


# ---------------------------------------------------------------------------
# Config format
# ---------------------------------------------------------------------------

_NETWORK_KEYS = {"w_opt", "iterations", "seed", "ensemble"}


def parse_vector(text):
    """A comma-separated vector of floats; ValueError if a part is no float."""
    return tuple(float(p) for p in text.split(","))


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


def set_agent_field(cfg, key, text):
    """``cfg`` with the AGENT_FIELDS key ``key`` set from its text value.

    Raises ValueError if the text does not convert, ConfigError if the agent
    has no signal statistics to set.
    """
    name, part, convert = AGENT_FIELDS[key]
    value = convert(text)
    if part is not None:
        params = getattr(cfg, name)
        if params is None:
            raise ConfigError(f"agent {cfg.id}: {cfg.kind} agents take no {name}")
        value = replace(params, **{part: value})
    return replace(cfg, **{name: value})


def set_trust(rows, adaptive_ids, src, dst, coeff):
    """rows[src][dst] = float(coeff) by adaptive agent id; ConfigError for an unknown id."""
    if src not in adaptive_ids or dst not in adaptive_ids:
        raise ConfigError(f"trust entry names unknown adaptive agent {src!r} -> {dst!r}")
    rows[adaptive_ids.index(src)][adaptive_ids.index(dst)] = float(coeff)


def _add_entry(entries, key, value, lineno, name):
    """entries[key] = (value, lineno); a key given twice is a ParseError."""
    if key in entries:
        raise ParseError(f"duplicate {name}, first given on line {entries[key][1]}", lineno)
    entries[key] = (value, lineno)


def parse(config_text):
    """Parse the line-oriented scenario config format.

    Sections: one ``[network]``, one ``[agent]`` per agent, one ``[trust]``
    with ``from to coefficient`` triples. ``#`` starts a comment. Lines end
    at ``\r\n``, ``\r`` or ``\n`` only, so line numbers are an editor's.
    """
    network = {}
    agent_sections = []
    trust_entries = {}
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
                agent_sections.append(({}, lineno))
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
            try:
                coeff = float(parts[2])
            except ValueError:
                raise ParseError(f"invalid trust coefficient {parts[2]!r}", lineno) from None
            _add_entry(trust_entries, (parts[0], parts[1]), coeff, lineno,
                       f"trust entry {parts[0]} -> {parts[1]}")
            continue
        if "=" not in text:
            raise ParseError(f"expected key=value, got {text!r}", lineno)
        key, _, value = text.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if section == "network":
            if key not in _NETWORK_KEYS:
                raise ParseError(f"unknown network key {key!r}", lineno)
            _add_entry(network, key, value, lineno, f"network key {key!r}")
        else:
            if key not in _AGENT_KEYS:
                raise ParseError(f"unknown agent key {key!r}", lineno)
            _add_entry(agent_sections[-1][0], key, value, lineno, f"agent key {key!r}")

    def net_value(key, default, conv):
        if key not in network:
            return default
        value, lineno = network[key]
        try:
            return conv(value)
        except ValueError:
            raise ParseError(f"invalid {key} value {value!r}", lineno) from None

    w_opt = net_value("w_opt", (2.0,), parse_vector)
    iterations = net_value("iterations", 1000, int)
    seed = net_value("seed", 42, int)
    ensemble = net_value("ensemble", 100, int)

    agents = []
    for sect, header_lineno in agent_sections:
        values = {key: value for key, (value, _) in sect.items()}
        if "id" not in values:
            raise ParseError("agent section missing id", header_lineno)
        kind = values.get("kind", COOPERATIVE)
        if kind not in _KINDS:
            raise ParseError(f"unknown agent kind {kind!r}", sect["kind"][1])
        allowed = _AVERAGING_KEYS if kind == AVERAGING else _AGENT_KEYS - {"sources"}
        for key, (_, lineno) in sect.items():
            if key not in allowed:
                raise ParseError(f"{kind} agents take no {key}", lineno)
        if kind == AVERAGING:
            sources = values.get("sources", "").replace(",", " ").split()
            agents.append(AgentConfig(values["id"], kind, sources=tuple(sources)))
            continue
        cfg = AgentConfig(values["id"], kind, mu=0.5, w0=(0.0,),
                          input=GaussianParams(0.0, 1.0), noise=GaussianParams(0.0, 0.0))
        for key in AGENT_FIELDS:
            if key in sect:
                value, lineno = sect[key]
                try:
                    cfg = set_agent_field(cfg, key, value)
                except ValueError:
                    raise ParseError(f"invalid {key} value {value!r}", lineno) from None
        agents.append(cfg)

    adaptive_ids = [cfg.id for cfg in agents if cfg.is_adaptive()]
    n = len(adaptive_ids)
    rows = [[0.0] * n for _ in range(n)]
    for (src, dst), (coeff, lineno) in trust_entries.items():
        try:
            set_trust(rows, adaptive_ids, src, dst, coeff)
        except ConfigError as exc:
            raise ParseError(str(exc), lineno) from None
    # rows with no trust entries default to identity (standalone-style)
    listed = {src for src, _ in trust_entries}
    for i, aid in enumerate(adaptive_ids):
        if aid not in listed:
            rows[i][i] = 1.0

    return Scenario(
        agents=tuple(agents),
        trust=TrustMatrix(tuple(tuple(r) for r in rows)),
        w_opt=w_opt,
        iterations=iterations,
        seed=seed,
        ensemble=ensemble,
    )


def serialize(scenario):
    """Render a Scenario in the config format accepted by parse()."""
    lines = ["[network]"]
    lines.append("w_opt = " + ",".join(repr(v) for v in scenario.w_opt))
    lines.append(f"iterations = {scenario.iterations}")
    lines.append(f"seed = {scenario.seed}")
    lines.append(f"ensemble = {scenario.ensemble}")
    for cfg in scenario.agents:
        lines.append("")
        lines.append("[agent]")
        lines.append(f"id = {cfg.id}")
        lines.append(f"kind = {cfg.kind}")
        if cfg.kind == AVERAGING:
            lines.append("sources = " + ",".join(cfg.sources))
            continue
        lines.append(f"mu = {cfg.mu!r}")
        lines.append("w0 = " + ",".join(repr(v) for v in cfg.w0))
        lines.append(f"input_mean = {cfg.input.mean!r}")
        lines.append(f"input_sd = {cfg.input.sd!r}")
        lines.append(f"noise_mean = {cfg.noise.mean!r}")
        lines.append(f"noise_sd = {cfg.noise.sd!r}")
        if cfg.counterpart is not None:
            lines.append(f"counterpart = {cfg.counterpart}")
    lines.append("")
    lines.append("[trust]")
    adaptive = scenario.adaptive_agents()
    for a, row in enumerate(scenario.trust.rows):
        for b, coeff in enumerate(row):
            if coeff != 0.0:
                lines.append(f"{adaptive[a].id} {adaptive[b].id} {coeff!r}")
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

    [record] = run_ensemble(scenario, [scenario.trust])
    return record


def scenario_band(scenario):
    """Default convergence band for this scenario's adaptive agents."""
    return default_band([cfg.w0 for cfg in scenario.adaptive_agents()],
                        scenario.w_opt)


def mean_record(record):
    """Ensemble-mean trajectory, as a one-run record for the detectors."""
    if not len(record):
        raise ConfigError("empty ensemble")
    n = len(record)
    return replace(record, ws=(sum_in_order(record.ws) / n)[None],
                   es=(sum_in_order(record.es) / n)[None])


def compute_report(scenario, record):
    """MetricsReport over an ensemble.

    Convergence and crossing detection run on the ensemble-mean trajectory;
    steady-state variance is the mean of the per-run variances.
    """
    mean = mean_record(record)
    agents = record.agents
    msd = {aid: msd_series(record, aid) for aid in agents}
    try:
        ss_var = {aid: sum_in_order(steady_state_variance(record, aid)) / len(record)
                  for aid in agents}
    except ConfigError:
        # horizon too short for the steady-state window
        ss_var = {aid: None for aid in agents}
    try:
        band = scenario_band(scenario)
        conv = {aid: convergence_iteration(mean, aid, band)[0] for aid in agents}
    except ConfigError:
        conv = {aid: None for aid in agents}
    crossings = {}
    if len(scenario.w_opt) == 1:
        for i, p in enumerate(agents):
            for q in agents[i + 1:]:
                crossings[(p, q)] = crossing_iteration(mean, p, q)[0]
    return MetricsReport(msd=msd, steady_state_var=ss_var,
                         convergence_iter=conv, crossing_iter=crossings)
