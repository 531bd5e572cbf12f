"""Steady-state MSD against closed-form diffusion-LMS theory.

For small step sizes a standalone LMS agent with white input reaches
MSD ~ mu * sigma_v^2 * M / 2, and N cooperative agents with uniform trust
and equal mu reach MSD ~ mu * M / (2 N^2) * sum_k sigma_v,k^2 (Lopes & Sayed,
"Diffusion LMS strategies for distributed estimation", IEEE TSP 2008;
Sayed, "Adaptive Networks", Proc. IEEE 2014).

The simulated MSD is the mean over runs of each run's average squared
distance over the last WINDOW iterations; the runs are independent, so
its standard error is the sample deviation of those per-run averages over
sqrt(RUNS). The tolerance, fixed before any result was seen, is K standard
errors. The theory's own small-step error here is below 1%, and the
standard error must be below 10% of the theory, so the test separates a
cooperative agent from a standalone one (a factor N apart).
"""

import dataclasses
import math

import numpy as np
import pytest

from dlms.scenarios import COOPERATIVE, STANDALONE, builtin, run

RUNS, ITERATIONS, WINDOW, K = 200, 3000, 1000, 4.0


@pytest.fixture(scope="module", params=["table1", "table5"])
def steady_state(request):
    """The scenario and, per agent, each run's mean squared distance over the window."""
    s = dataclasses.replace(builtin(request.param), ensemble=RUNS, iterations=ITERATIONS)
    record = run(s)
    err = record.ws[:, -WINDOW:] - np.array(s.w_opt)
    per_run = (err ** 2).sum(axis=-1).mean(axis=1)
    return s, dict(zip(record.agents, per_run.T))


def _check(per_run, theory):
    mean = per_run.mean()
    se = per_run.std(ddof=1) / math.sqrt(len(per_run))
    assert se < 0.1 * theory
    assert abs(mean - theory) <= K * se, (mean, theory, se)


def test_standalone_msd(steady_state):
    s, per_run = steady_state
    m = len(s.w_opt)
    for cfg in s.agents:
        if cfg.kind == STANDALONE:
            _check(per_run[cfg.id], cfg.mu * cfg.noise.sd ** 2 * m / 2)


def test_cooperative_msd(steady_state):
    s, per_run = steady_state
    m = len(s.w_opt)
    coop = [a for a, cfg in enumerate(s.adaptive_agents()) if cfg.kind == COOPERATIVE]
    agents = [s.adaptive_agents()[a] for a in coop]
    n = len(agents)
    # the closed form holds for equal step sizes and uniform trust
    assert len({cfg.mu for cfg in agents}) == 1
    assert all(s.trust.rows[a][b] == 1.0 / n for a in coop for b in coop)
    theory = agents[0].mu * m / (2 * n * n) * sum(cfg.noise.sd ** 2 for cfg in agents)
    for cfg in agents:
        _check(per_run[cfg.id], theory)
