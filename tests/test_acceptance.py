"""Acceptance suite: one test per verification criterion.

Each test prints a pass/fail line (visible with ``pytest -s`` or on failure).
Exact criteria assert bit-level or 1e-14-level agreement; statistical
criteria run 100-run paired ensembles of the builtin scenarios.
"""

import dataclasses
import math
import random
import statistics

import pytest

import dlms.engine
from dlms.claims import (
    merge_iteration,
    verify_claim,
    verify_merge,
    verify_speedup,
    verify_stabilize,
)
from dlms.errors import DivergenceError
from dlms.metrics import crossing_iteration
from dlms.network import TrustMatrix, combine, cta_iteration
from dlms.network import AgentState
from dlms.scenarios import (
    AgentConfig,
    Scenario,
    builtin,
    builtin_names,
    run,
    scenario_band,
    with_trust,
)
from dlms.signals import GaussianParams, SignalSample
from oracle import (
    RandomStream,
    batch_gd_step,
    cost,
    pairwise_combine,
    weighted_sum_variance,
)


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def ensembles():
    """One 100-run ensemble per builtin, shared across criteria."""
    return {name: run(builtin(name)) for name in builtin_names()}


def _serve(monkeypatch, ensembles, name):
    """Make the engine stream the claims the session ensemble of builtin
    ``name`` as one block instead of simulating it again."""
    def served(scenario):
        assert scenario == builtin(name)
        yield 0, ensembles[name]
    monkeypatch.setattr(dlms.engine, "blocks", served)


@pytest.fixture(scope="session")
def selfish_records():
    selfish = with_trust(builtin("table1"),
                         [(0.9, 0.1, 0.0, 0.0), (0.1, 0.9, 0.0, 0.0),
                          (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)])
    return run(selfish)


def test_c01_identity_trust_reduction():
    """Cooperative network with identity trust is bit-identical to the same
    agents run standalone on the same streams, over L=1000."""
    inp = GaussianParams(0.0, 0.09)
    noise = GaussianParams(0.0, 0.03)

    def scenario(kind):
        agents = (
            AgentConfig("a", kind, mu=0.5, w0=(0.0,), input=inp, noise=noise),
            AgentConfig("b", kind, mu=0.5, w0=(1.0,), input=inp, noise=noise),
        )
        return Scenario(agents=agents, trust=TrustMatrix.identity(2),
                        w_opt=(2.0,), iterations=1000, seed=7, ensemble=1)

    coop = run(scenario("cooperative"))
    solo = run(scenario("standalone"))
    identical = (coop.ws.tolist() == solo.ws.tolist()
                 and coop.es.tolist() == solo.es.tolist())
    report(1, identical, "identity-trust CTA == standalone LMS, bit-exact")


def test_c02_pairwise_combine_equivalence():
    rng = random.Random(20240)
    worst = 0.0
    for _ in range(1000):
        wa = [rng.uniform(-2, 2)]
        wb = [rng.uniform(-2, 2)]
        s = rng.random()
        diff = abs(pairwise_combine(wa, wb, s)[0]
                   - combine([1.0 - s, s], [wa, wb])[0])
        worst = max(worst, diff)
    report(2, worst < 1e-14, f"max component diff {worst:.3e} < 1e-14")


def test_c03_averaging_agent_exact(ensembles):
    exact = all(
        (record.w("e") == (record.w("c") + record.w("d")) / 2).all()
        for record in ensembles.values()
    )
    report(3, exact, "w_e(i) == (w_c(i)+w_d(i))/2 in every builtin run")


def test_c04_hand_trace_oracle():
    trust = TrustMatrix(((0.5, 0.5), (0.5, 0.5)))
    states = [AgentState([0.0], [0.0], 0.0), AgentState([1.0], [1.0], 0.0)]
    samples = [SignalSample((1.0,), 1.0, 0.0)] * 2
    states = cta_iteration(states, trust, samples, [0.5, 0.5])
    exact = all(st.w == [0.75] and st.psi == [0.5] and st.e == 0.5
                for st in states)
    states = cta_iteration(states, trust, samples, [0.5, 0.5])
    exact = exact and all(st.w == [0.875] for st in states)
    report(4, exact, "fixed-input trace gives w_a=w_b=[0.75] after iteration 1")


def test_c05_merge(ensembles, monkeypatch):
    _serve(monkeypatch, ensembles, "table1")
    result = verify_merge(builtin("table1"))
    report(5, result.passed,
           f"mean gap {result.details['worst_mean_gap']:.4f} "
           f"< {result.details['threshold']:.4f} for all i >= 10")


def test_c06_speedup(ensembles, monkeypatch):
    _serve(monkeypatch, ensembles, "table2")
    result = verify_speedup(builtin("table2"))
    report(6, result.passed,
           f"coop converge before averaging agent in "
           f"{result.details['win_fraction']:.0%} of runs (need >= 90%)")


def test_c07_crossing(ensembles):
    record = ensembles["table4"]
    crossings = crossing_iteration(record, "c", "d")
    exist_fraction = sum(c <= record.iterations for c in crossings) / len(record)

    def coop_below_onward(r):
        da, db, de = (record.dist(aid)[r].tolist() for aid in "abe")
        onset = None
        for i in range(record.iterations - 1, -1, -1):
            if not (da[i] < de[i] and db[i] < de[i]):
                break
            onset = i
        return onset

    below_fraction = sum(
        coop_below_onward(r) is not None for r in range(len(record))) / len(record)
    median_cross = statistics.median(c for c in crossings if c <= record.iterations)
    passed = exist_fraction >= 0.90 and below_fraction >= 0.90
    report(7, passed,
           f"c/d crossing in {exist_fraction:.0%} of runs "
           f"(median iteration {median_cross}); coop msd below agent e "
           f"from some iteration onward in {below_fraction:.0%}")


def test_c08_delay(ensembles, selfish_records):
    balanced_records = ensembles["table1"]
    coop = ["a", "b"]
    wins = 0
    for it_s, it_b in zip(merge_iteration(selfish_records, coop),
                          merge_iteration(balanced_records, coop)):
        wins += it_s > it_b
    fraction = wins / len(selfish_records)
    report(8, fraction >= 0.90,
           f"selfish 0.9/0.1 trust merges later than 0.5/0.5 in "
           f"{fraction:.0%} of paired runs (need >= 90%)")


def test_c09_stabilization(ensembles, monkeypatch):
    _serve(monkeypatch, ensembles, "table5")
    result = verify_stabilize(builtin("table5"))
    report(9, result.passed,
           f"var(cooperative b) < var(standalone twin d) in "
           f"{result.details['win_fraction']:.0%} of runs (need >= 95%)")


# each builtin claim's verdict at the builtins' seed 42
VERDICTS = {
    ("table1", "merge"): True, ("table1", "stabilize"): False,
    ("table2", "merge"): False, ("table2", "speedup"): True, ("table2", "stabilize"): True,
    ("table3", "merge"): False, ("table3", "speedup"): True, ("table3", "stabilize"): True,
    ("table4", "merge"): False, ("table4", "speedup"): True, ("table4", "stabilize"): False,
    ("table5", "merge"): True, ("table5", "stabilize"): True,
}


@pytest.mark.parametrize("name, claim", VERDICTS, ids=[f"{n}-{c}" for n, c in VERDICTS])
def test_verdicts_hold_at_independent_seeds(name, claim):
    """Each builtin verdict is the same on five ensembles that share no run
    with seed 42's or each other's: seeds j 2^32 differ from seed 42, and from
    each other, above the bits that the runs' XOR reaches (README,
    determinism contract)."""
    s = builtin(name)
    verdicts = [verify_claim(dataclasses.replace(s, seed=j << 32), claim).passed
                for j in range(1, 6)]
    assert verdicts == [VERDICTS[name, claim]] * 5


def test_c10_weighted_sum_variance():
    expected = weighted_sum_variance(0.5, 0.5, 0.01**2, 0.2**2)
    s1, s2 = RandomStream(31), RandomStream(32)
    n = 100_000
    zs = [0.5 * s1.next_gaussian(0, 0.01) + 0.5 * s2.next_gaussian(0, 0.2)
          for _ in range(n)]
    mean = sum(zs) / n
    var = sum((z - mean) ** 2 for z in zs) / (n - 1)
    empirical_ok = abs(var - expected) / expected < 0.05

    rng = random.Random(77)
    dominance_ok = True
    for _ in range(10_000):
        s = rng.random()
        vx, vy = rng.uniform(0, 10), rng.uniform(0, 10)
        if weighted_sum_variance(s, 1 - s, vx, vy) > max(vx, vy) + 1e-12:
            dominance_ok = False
            break
    report(10, empirical_ok and dominance_ok,
           f"empirical var {var:.6f} vs analytic {expected:.6f} (within 5%); "
           f"dominance holds on 10^4 draws")


def test_c11_gradient_oracle():
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(100):
        m = rng.randint(1, 3)
        ell = rng.randint(1, 10)
        w = [rng.uniform(-2, 2) for _ in range(m)]
        xs = [[rng.uniform(-2, 2) for _ in range(m)] for _ in range(ell)]
        ys = [rng.uniform(-2, 2) for _ in range(ell)]
        stepped = batch_gd_step(w, xs, ys, 1.0)
        h = 1e-6
        for j in range(m):
            wp, wm = list(w), list(w)
            wp[j] += h
            wm[j] -= h
            fd = (cost(wp, xs, ys) - cost(wm, xs, ys)) / (2 * h)
            update = stepped[j] - w[j]
            scale = max(abs(update), abs(fd), 1e-8)
            worst = max(worst, abs(update + fd) / scale)
    report(11, worst < 1e-5,
           f"batch step vs finite-difference gradient: worst rel err {worst:.2e}")


def test_c12_rng():
    golden = RandomStream(0).next_u64() == 0xE220A8397B1DCDAF
    s = RandomStream(7)
    n = 100_000
    draws = [s.next_gaussian(0.0, 0.09) for _ in range(n)]
    mean = sum(draws) / n
    sd = math.sqrt(sum((d - mean) ** 2 for d in draws) / (n - 1))
    moments = (abs(mean) < 4 * 0.09 / math.sqrt(n)
               and abs(sd - 0.09) / 0.09 < 0.01)
    report(12, golden and moments,
           f"seed-0 golden output ok; moments mean={mean:.5f} sd={sd:.5f}")


def _scalar_scenario(mu, iterations):
    agents = (AgentConfig("solo", "standalone", mu=mu, w0=(0.0,),
                          input=GaussianParams(0.0, 1.0),
                          noise=GaussianParams(0.0, 0.03)),)
    return Scenario(agents=agents, trust=TrustMatrix.identity(1),
                    w_opt=(2.0,), iterations=iterations, seed=3, ensemble=1)


def test_c13_stability_boundary():
    # mu*E[x^2] = 2.5: must diverge and be detected
    diverged = False
    try:
        run(_scalar_scenario(2.5, 5000))
    except DivergenceError:
        diverged = True
    # mu*E[x^2] = 0.5: must converge into the default band
    rec = run(_scalar_scenario(0.5, 1000))
    from dlms.metrics import convergence_iteration
    band = scenario_band(_scalar_scenario(0.5, 1000))
    conv = convergence_iteration(rec, "solo", band)[0]
    report(13, diverged and conv <= 1000,
           f"mu*E[x^2]=2.5 diverges (detected); mu*E[x^2]=0.5 converges "
           f"at iteration {conv}")
