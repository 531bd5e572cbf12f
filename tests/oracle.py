"""Scalar reference simulator for the vectorized ensemble engine.

``run_single`` advances one run through ``network.cta_iteration`` with one
``generate_sample`` per stream owner and iteration; ``run`` chains the runs
of an ensemble. Tests require the engine to reproduce it bit for bit. It sums
with the builtin ``sum``, which adds left to right up to Python 3.11 (3.12
compensates the rounding), so for M >= 2 it is the reference on Python <= 3.11.
"""

from dataclasses import dataclass, field

from dlms.errors import ConfigError, DivergenceError
from dlms.metrics import RunRecord
from dlms.network import AgentState, cta_iteration
from dlms.prng import RandomStream, derive_seed
from dlms.signals import SignalSample

_SEED_MASK = (1 << 64) - 1


@dataclass
class OracleRecord(RunRecord):
    """RunRecord that also keeps every combined intermediate psi."""

    psis: dict = field(default_factory=dict)


def generate_sample(stream, w_opt, input_params, noise_params):
    """Draw one (x, y) pair from y = w_opt . x + q.

    Consumes exactly len(w_opt) + 1 Gaussian deviates from the stream,
    x components first, then q.
    """
    if len(w_opt) < 1:
        raise ConfigError("w_opt must have at least one component")
    x = tuple(
        stream.next_gaussian(input_params.mean, input_params.sd)
        for _ in w_opt
    )
    q = stream.next_gaussian(noise_params.mean, noise_params.sd)
    y = sum(wi * xi for wi, xi in zip(w_opt, x)) + q
    return SignalSample(x=x, y=y, q=q)


def _stream_owners(scenario):
    """Stream-owner index (position in scenario.agents) per adaptive agent."""
    position = {cfg.id: i for i, cfg in enumerate(scenario.agents)}
    owners = []
    for cfg in scenario.adaptive_agents():
        owner = cfg.counterpart if cfg.counterpart is not None else cfg.id
        owners.append(position[owner])
    return owners


def run_single(scenario, run_index):
    """Execute one run of the scenario; returns its RunRecord.

    Per-agent streams are seeded with derive_seed(seed XOR run_index, k)
    where k is the stream owner's position in the agent list; twins share
    their counterpart's stream owner and therefore its exact samples.
    """
    adaptive = scenario.adaptive_agents()
    averaging = scenario.averaging_agents()
    adaptive_index = {cfg.id: i for i, cfg in enumerate(adaptive)}
    averaging_sources = [
        tuple(adaptive_index[s] for s in cfg.sources) for cfg in averaging
    ]
    owners = _stream_owners(scenario)
    owner_params = {}
    for cfg, owner in zip(adaptive, owners):
        owner_params.setdefault(owner, (cfg.input, cfg.noise))
    base = (scenario.seed ^ run_index) & _SEED_MASK
    streams = {
        owner: RandomStream(derive_seed(base, owner)) for owner in owner_params
    }

    states = [AgentState(w=list(cfg.w0), psi=list(cfg.w0), e=0.0) for cfg in adaptive]
    for sources in averaging_sources:
        w = [sum(states[b].w[j] for b in sources) / len(sources)
             for j in range(len(scenario.w_opt))]
        states.append(AgentState(w=w, psi=list(w), e=0.0))

    ordered_ids = [cfg.id for cfg in adaptive] + [cfg.id for cfg in averaging]
    record = OracleRecord(
        seed=scenario.seed,
        w_opt=list(scenario.w_opt),
        agents=ordered_ids,
        run_index=run_index,
        ws={aid: [] for aid in ordered_ids},
        psis={aid: [] for aid in ordered_ids},
        es={aid: [] for aid in ordered_ids},
    )

    mus = [cfg.mu for cfg in adaptive]
    w_opt = scenario.w_opt
    for i in range(1, scenario.iterations + 1):
        group_samples = {
            owner: generate_sample(streams[owner], w_opt, inp, noise)
            for owner, (inp, noise) in owner_params.items()
        }
        samples = [group_samples[owner] for owner in owners]
        try:
            states = cta_iteration(states, scenario.trust, samples, mus,
                                   averaging_sources)
        except DivergenceError as exc:
            agent_id = adaptive[exc.agent].id if exc.agent is not None else None
            raise DivergenceError(
                f"divergence at run {run_index}, iteration {i}, "
                f"agent {agent_id}: {exc}",
                agent=agent_id, iteration=i, run=run_index) from exc
        for aid, st in zip(ordered_ids, states):
            record.ws[aid].append(list(st.w))
            record.psis[aid].append(list(st.psi))
            record.es[aid].append(st.e)
    return record


def run(scenario):
    """Execute the full ensemble serially; returns one record per run."""
    records = []
    for r in range(scenario.ensemble):
        try:
            records.append(run_single(scenario, r))
        except DivergenceError as exc:
            exc.completed = records
            raise
    return records
