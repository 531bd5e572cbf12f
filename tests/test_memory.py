"""Memory budgets of the largest in-process simulations.

tracemalloc sees numpy's array buffers as well as Python objects, so a
traced peak is a deterministic stand-in for the peak resident size of the
matching command, without timing noise or interpreter start-up. Measured
peaks with numpy 2.4.6, in the order of the tests: 1.66 MB, 1.79 MB,
2.15 MB and 2.12 MB; the horizon pairs 1.80/1.80 MB, 2.12/2.13 MB,
1.62/1.62 MB and 1.86/2.05 MB; then 9.15 MB, 10.07 MB, 8.12 MB, 12.22 MB,
4.23 MB, 4.45 MB, 0.79 MB, 1.83 MB, 7.09 MB, 1.98 MB, 3.81 MB, 12.24 MB,
0.49 MB, 0.37 MB, 0.48 MB and 0.46 MB. The claims stream a block of every
run at a time. The writers' 0.79 MB and 1.83 MB and the steady-state
windows' 0.49 MB are transients above records that are already held. Each
block's targets are built beside its draws, one owner at a time, before
they are copied into the engine's signal buffers. Squares, 8,192 at a
time, make no Python float per value, only the fifth or so that
``libm.square`` hands to ``pow`` one at a time, and neither do the
Box-Muller logarithms, 4,096 at a time, but the sixteenth or so that
``libm.logs`` hands to ``math.log``.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import dlms.engine  # numpy and the modules under test load before tracing
import dlms.floatfmt
from dlms.claims import (
    balanced_variant,
    pair,
    verify_claim,
    verify_delay,
    verify_merge,
    verify_speedup,
)
from dlms.cli import main, write_metrics, write_trajectories
from dlms.errors import DivergenceError
from dlms.metrics import EnsembleSums, steady_state_start, steady_state_variance
from dlms.prng import derive_seed, gaussian_block
from dlms.scenarios import builtin, compute_report, run, with_trust
from strategies import dense_trio_with_twins

MB = 1e6


def _selfish_table1():
    s = builtin("table1")
    return with_trust(s, [(0.9, 0.1, 0.0, 0.0), (0.1, 0.9, 0.0, 0.0), *s.trust.rows[2:]])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_delay_peak():
    """Both 100-run networks of the selfish table1 as one network of 7
    agents (the standalone c and d serve both), streamed in blocks of 54
    iterations: one block's records and signals (1.1 MB) and the merge
    detection's temporaries, with no room for a record of every iteration
    (11.2 MB at 1000)."""
    assert _traced_peak(verify_delay, _selfish_table1()) <= 1.75 * MB


def test_verify_merge_peak():
    """table1's 100 runs streamed in blocks of 80 iterations, each folded
    into the ensemble-mean gaps as it comes, with no room for a record of
    every iteration (8.0 MB)."""
    assert _traced_peak(verify_merge, builtin("table1")) <= 2.2 * MB


def test_verify_stabilize_long_horizon_peak():
    """long_horizon's 2 x 20,000 iterations streamed: the two agents' rows
    of the final 4,000 iterations (0.26 MB) and one block's buffers, with no
    room for the record of every iteration (11.2 MB)."""
    s = dense_trio_with_twins(iterations=20000, ensemble=2)
    assert _traced_peak(verify_claim, s, "stabilize") <= 2.5 * MB


def test_verify_speedup_peak():
    """table2's 100 runs streamed: each block's distances to the target,
    squared as many whole runs at a time as fit in 8,192 values, beside one
    block's buffers."""
    assert _traced_peak(verify_speedup, builtin("table2")) <= 2.7 * MB


@pytest.mark.parametrize("claim, name", [
    ("merge", "table1"), ("speedup", "table2"), ("delay", "selfish"),
    ("stabilize", "table1")])
def test_claim_memory_does_not_grow_with_the_horizon(claim, name):
    """20 runs, so that 4000 iterations trace in seconds: a record of the
    3000 further iterations of the delay pair's 7 agents would be 6.7 MB,
    and of table1's 5 agents 4.8 MB. Only stabilize holds per iteration,
    its two agents' rows of the final window."""
    s = _selfish_table1() if name == "selfish" else builtin(name)
    peaks = [_traced_peak(verify_claim, dataclasses.replace(
        s, iterations=length, ensemble=20), claim) for length in (1000, 4000)]
    window = 0
    if claim == "stabilize":  # 2 agents x 20 runs x 8 bytes a window row
        window = 2 * 20 * 8 * (steady_state_start(1000) - steady_state_start(4000) + 3000)
    assert peaks[1] <= peaks[0] + window + 0.5 * MB


def test_run_table1_peak():
    assert _traced_peak(run, builtin("table1")) <= 11 * MB


def test_run_table1_in_blocks_peak(monkeypatch):
    """table1's signals in seven blocks of at most 162 iterations, 2^17
    values (1.04 MB) each: the records and one block's signals, with no
    room for a second block or for a temporary the size of the records."""
    monkeypatch.setattr(dlms.engine, "_CHUNK_DRAWS", 1 << 17)
    assert _traced_peak(run, builtin("table1")) <= 11.5 * MB


def test_run_table1_fill_and_scan_peak(monkeypatch):
    """With blocks of 4 iterations, at most 4096 draws a call of the
    generator, the signals are small, so the peak is table1's 8.0 MB of
    records plus the largest temporary: the averaging fill and the divergence
    scan may not hold one agent's trajectories of every run at once."""
    monkeypatch.setattr(dlms.engine, "_CHUNK_DRAWS", 1 << 12)
    assert _traced_peak(run, builtin("table1")) <= 8.5 * MB


def test_long_horizon_peak():
    """2 x 20,000 iterations with vector weights: the 11.2 MB of records and
    the largest transient, with no room for the whole horizon's signals."""
    assert _traced_peak(run, dense_trio_with_twins(iterations=20000, ensemble=2)) <= 15 * MB


def test_sq_dist_peak():
    """table1's 4.0 MB of squared distances and one run's temporaries at a
    time (4.22 MB): the bound leaves 0.28 MB, a few runs' temporaries of
    0.04 MB each, and no room for a temporary the size of the records."""
    record = run(builtin("table1"))
    assert _traced_peak(lambda: record.sq_dist) <= 4.5 * MB


def test_compute_report_peak():
    """The whole report on a fresh table1 record: its squared distances (4.0
    MB), the ensemble-mean record and the MSD as an array, without a
    temporary the size of the records or a Python object per MSD row."""
    s = builtin("table1")
    record = run(s)
    assert _traced_peak(lambda: compute_report(s, EnsembleSums().add(record))) <= 4.8 * MB


def test_write_trajectories_peak(tmp_path):
    """The whole 33 MB trajectory CSV of table1, a bounded piece of text at a
    time: no run's text and no full column of formatted values at once. The
    piece's byte matrix and mask (0.25 MB), its values, a run's dist_opt
    and the digit-mask table (0.04 MB each) and the formatting's temporaries
    peak at 0.82 MB; the bound leaves 0.08 MB (10%), less than one more
    piece's matrix and mask."""
    s = builtin("table1")
    record = run(s)
    record.sq_dist  # computed once and cached, outside the traced writer
    assert _traced_peak(write_trajectories, tmp_path / "t.csv", s, [record]) <= 0.9 * MB


def test_write_trajectories_long_run_peak(tmp_path):
    """The trajectory CSV of one long_horizon run of 20,000 iterations (7.3
    MB): its dist_opt (1.12 MB) and pieces of whole iterations, with no
    buffer or Python object per row that grows with the horizon (a run's
    values are 6.7 MB)."""
    s = dense_trio_with_twins(iterations=20000, ensemble=1)
    record = run(s)
    record.sq_dist  # computed once and cached, outside the traced writer
    assert _traced_peak(write_trajectories, tmp_path / "t.csv", s, [record]) <= 2.0 * MB


def test_write_metrics_long_horizon_peak(tmp_path, long_horizon):
    """The metrics CSV of long_horizon's 2 x 20,000 iterations, its report
    included: the MSD (1.12 MB), the ensemble-mean record (4.48 MB) and its
    squared distances (1.12 MB), with no Python object per MSD row and no
    room for a second copy of the MSD."""
    s, record = long_horizon
    sums = EnsembleSums().add(record)
    assert _traced_peak(write_metrics, tmp_path / "m.csv", s, sums) <= 7.5 * MB


@pytest.mark.parametrize("ensemble", [100, 1000])
def test_cli_run_table1_peak(tmp_path, ensemble):
    """``dlms run table1`` at 100 iterations, so that 1000 runs trace in
    seconds. The runs stream through the writer and the report in groups of
    at most 2^17 estimates, 262 runs here, so 100 and 1000 runs peak alike
    (2.24 and 3.92 MB): one group's records and squared distances (3.1 MB at
    262 runs) and the writer, with no room for a second group."""
    out = tmp_path / "t.csv"
    argv = ["run", "table1", "--iterations", "100", "--ensemble", str(ensemble),
            "--out", str(out)]
    codes = []
    assert _traced_peak(lambda: codes.append(main(argv))) <= 6 * MB
    assert codes == [0] and out.exists()


@pytest.fixture(scope="module")
def long_horizon():
    s = dense_trio_with_twins(iterations=20000, ensemble=2)
    return s, run(s)


def test_first_divergence_transient():
    """long_horizon with twin d at mu 0.45: run 1 diverges at iteration 2326
    and run 0 at 6132, so every block in between is checked element by
    element. The records (11.2 MB) and the loop's buffers, with no room for
    a temporary the size of one run's weights (3.84 MB)."""
    s = dense_trio_with_twins(iterations=20000, ensemble=2)
    s = dataclasses.replace(s, agents=tuple(
        dataclasses.replace(cfg, mu=0.45) if cfg.id == "d" else cfg for cfg in s.agents))
    errors = []

    def diverge():
        with pytest.raises(DivergenceError) as excinfo:
            run(s)
        errors.append(excinfo.value)

    assert _traced_peak(diverge) <= 14 * MB
    assert str(errors[0]).startswith("divergence at run 0, iteration 6132, agent d:")


def test_steady_state_variance_transient(long_horizon):
    """The steady-state windows of the stabilize claim's two agents on the
    long_horizon record. A batch is as many runs as fit in 2^13 values, at
    least one; one run's window is 16,000 values here, so a batch is one
    run's window (0.13 MB) and its squares, squared 2^13 values at a time by
    ``libm.square``: 0.49 MB. The bound leaves 0.11 MB, less than one more
    run's window."""
    record = long_horizon[1]
    first = steady_state_start(record.iterations)
    assert _traced_peak(lambda: [steady_state_variance(record.w(aid)[:, first:])
                                 for aid in ("c", "f")]) <= 0.6 * MB


def test_gaussian_block_peak():
    """One call at long_horizon's block shape, 2 seeds x 1,092 iterations x
    5 draws: the output, which the uniforms converted from the draws and
    then the Gaussians are worked into in place (0.09 MB; the draws are let
    go once converted), the uint64 steps (0.04 MB), a contiguous copy
    of the first uniforms and their logarithms (0.04 MB each), and one block
    of 4,096 logarithms: its buffers (0.13 MB) and numpy's buffer for the
    long-double cast. 0.37 MB in all; the bound leaves less than a second
    block's buffers."""
    seeds = [derive_seed(42, k) for k in range(2)]
    assert _traced_peak(gaussian_block, seeds, 1092 * 5, 1092 * 5) <= 0.45 * MB


def _signals_peak(scenario, length):
    """The traced peak of one engine._signals call, of ``length`` iterations
    from iteration ``length`` on, into buffers allocated beforehand, as
    engine._simulate allocates them once per call."""
    owners = dlms.engine._streams(scenario)[0]
    seeds = [[derive_seed(scenario.seed ^ k, owner) for k in range(scenario.ensemble)]
             for owner in owners]
    m, n = len(scenario.w_opt), len(scenario.adaptive_agents())
    x = np.empty((length, m, n, scenario.ensemble))
    y = np.empty((length, n, scenario.ensemble))
    return _traced_peak(dlms.engine._signals, scenario, seeds, length, 2 * length, x, y)


def test_signals_long_horizon_block_peak():
    """One block at long_horizon's shape, 2 runs x 1,092 iterations of 3
    owners into 6 columns: the x and y buffers (0.42 and 0.10 MB) are the
    caller's. Each owner's draws (0.09 MB) are scaled in place and its
    targets (0.02 MB) built beside them, so the peak is the third owner's
    gaussian_block call (0.37 MB) beside the second's draws and targets:
    0.48 MB. The bound leaves less than one more owner's draws."""
    s = dense_trio_with_twins(iterations=20000, ensemble=2)
    assert _signals_peak(s, 1092) <= 0.55 * MB


def test_signals_verify_delay_block_peak():
    """One block of the delay claim's joint network, 100 runs x 54
    iterations of 2 owners into 6 columns: the x and y buffers (0.26 MB
    each) are the caller's. The second owner's gaussian_block call (0.33
    MB) beside the first's draws (0.09 MB) and targets (0.04 MB) peak at
    0.46 MB; the bound leaves less than one more owner's draws."""
    s = _selfish_table1()
    assert _signals_peak(pair(s, balanced_variant(s))[0], 54) <= 0.52 * MB
