"""Pinned claim summaries and vector-weight CSV digests.

Every expected string and digest was computed with the per-run list records
that preceded the array records. A summary carries the claim's floats in
shortest repr, so any change in the order of a metric's additions shows up
here. The long_horizon config of the benchmark supplies the M = 4 cases,
which the builtins (all M = 1) do not reach, and a 12-component variant of
it, long enough that a pairwise sum over the components would differ from
adding them left to right.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from dlms.claims import verify_claim
from dlms.cli import main, metrics_path
from dlms.scenarios import builtin, parse, serialize, with_trust

LONG_HORIZON = Path(__file__).resolve().parents[1] / "perfbench" / "long_horizon.cfg"
# the trajectory and metrics CSVs of long_horizon at --ensemble 3 --iterations 300
LONG_HORIZON_DIGESTS = ("0c7488ddd1de17ef24ecbaef2a2d215f685e8a18dfc3c6e42243cc2108650fc1",
                        "d29a20c39fc8bfadc322bf27d301eb96e410ad2faa601380d4609440b563bc89")
SELFISH = [(0.9, 0.1, 0.0, 0.0), (0.1, 0.9, 0.0, 0.0),
           (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]


def small(scenario, ensemble, iterations):
    return dataclasses.replace(scenario, ensemble=ensemble, iterations=iterations)


def with_mu(scenario, ids, mu):
    return dataclasses.replace(scenario, agents=tuple(
        dataclasses.replace(cfg, mu=mu) if cfg.id in ids else cfg
        for cfg in scenario.agents))


def long_horizon():
    return parse(LONG_HORIZON.read_text())


def wide():
    """long_horizon with a 12-component target: 12 runs x 300 iterations."""
    s = long_horizon()
    agents = tuple(dataclasses.replace(cfg, w0=(0.0,) * 12) if cfg.is_adaptive() else cfg
                   for cfg in s.agents)
    return dataclasses.replace(s, agents=agents,
                               w_opt=tuple(0.25 * k - 1.0 for k in range(12)),
                               iterations=300, ensemble=12, seed=5)


def uniform_coop_trust(scenario):
    third = 1.0 / 3.0
    return with_trust(scenario, [(third, third, third, 0.0, 0.0, 0.0)] * 3 + [
        tuple(1.0 if b == a else 0.0 for b in range(6)) for a in range(3, 6)])


CASES = {
    "merge-table1": (
        lambda: small(builtin("table1"), 10, 300), "merge",
        "PASS merge: worst_mean_gap=0.015570770681811185, "
        "threshold=0.07500000000000001"),
    "merge-table1-frozen": (
        lambda: with_mu(small(builtin("table1"), 5, 2000), "bd", 0.0), "merge",
        "FAIL merge: worst_mean_gap=0.4717581486925937, "
        "threshold=0.07500000000000001"),
    "speedup-table2": (
        lambda: small(builtin("table2"), 20, 1000), "speedup",
        "PASS speedup: win_fraction=1.0, required=0.9, band=0.2"),
    "speedup-table2-short": (
        lambda: small(builtin("table2"), 20, 600), "speedup",
        "FAIL speedup: win_fraction=0.75, required=0.9, band=0.2"),
    "stabilize-table5": (
        lambda: small(builtin("table5"), 20, 1000), "stabilize",
        "PASS stabilize: win_fraction=1.0, required=0.95, cooperative=b, twin=d"),
    "stabilize-table5-short": (
        lambda: small(builtin("table5"), 20, 600), "stabilize",
        "FAIL stabilize: win_fraction=0.9, required=0.95, cooperative=b, twin=d"),
    "delay-table1-selfish": (
        lambda: with_trust(small(builtin("table1"), 20, 200), SELFISH), "delay",
        "PASS delay: win_fraction=1.0, required=0.9, "
        "median_selfish_merge=18, median_balanced_merge=1"),
    "merge-vector": (
        lambda: uniform_coop_trust(small(long_horizon(), 3, 400)), "merge",
        "FAIL merge: worst_mean_gap=0.16410746546754237, "
        "threshold=0.1152443057161611"),
    "speedup-vector": (
        lambda: with_mu(small(long_horizon(), 4, 400), "ad", 0.2), "speedup",
        "PASS speedup: win_fraction=1.0, required=0.9, band=0.2304886114323222"),
    "delay-vector": (
        lambda: small(long_horizon(), 4, 400), "delay",
        "FAIL delay: win_fraction=0.75, required=0.9, "
        "median_selfish_merge=49, median_balanced_merge=44"),
    "merge-wide": (
        lambda: uniform_coop_trust(wide()), "merge",
        "FAIL merge: worst_mean_gap=0.43777622275526845, "
        "threshold=0.16298006013006625"),
    "delay-wide": (
        wide, "delay",
        "FAIL delay: win_fraction=0.16666666666666666, required=0.9, "
        "median_selfish_merge=57, median_balanced_merge=57"),
    "stabilize-wide": (
        wide, "stabilize",
        "PASS stabilize: win_fraction=1.0, required=0.95, cooperative=c, twin=f"),
    "stabilize-vector": (
        lambda: small(long_horizon(), 3, 800), "stabilize",
        "PASS stabilize: win_fraction=1.0, required=0.95, cooperative=c, twin=f"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_claim_summary(case):
    scenario, claim, expected = CASES[case]
    assert verify_claim(scenario(), claim).summary() == expected


def test_vector_weight_csv_digests(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["run", str(LONG_HORIZON), "--ensemble", "3", "--iterations", "300",
                 "--out", str(out)]) == 0
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (out, metrics_path(out))) == LONG_HORIZON_DIGESTS


def test_wide_vector_csv_digests(tmp_path):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(serialize(wide()))
    out = tmp_path / "t.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out, metrics_path(out))] == [
        "6811e41af009ae8d4cbc707132fb85f3a05486f51e9ba054e00a20f1807595cd",
        "e442c062b59e9cef9ab2a2b6a775a9f8fa8dd59c2357528de96c04a4e9a462e8"]
