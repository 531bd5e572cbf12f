"""Memory budgets of the largest in-process simulations.

tracemalloc sees numpy's array buffers as well as Python objects, so a
traced peak is a deterministic stand-in for the peak resident size of the
matching command, without timing noise or interpreter start-up. Measured
peaks with numpy 2.4.6, in the order of the tests: 15.43 MB, 9.40 MB,
9.40 MB, 10.78 MB, 8.12 MB, 12.35 MB, 4.25 MB, 5.12 MB, 1.27 MB, 2.24 MB,
3.97 MB, 12.35 MB, 0.77 MB and 0.22 MB. The writer's 1.27 MB and the last
two are transients above records that are already held.
"""

import dataclasses
import tracemalloc

import pytest

import dlms.engine  # numpy and the modules under test load before tracing
import dlms.floatfmt
from dlms.claims import (
    balanced_variant,
    merge_iteration,
    run_paired,
    verify_delay,
    verify_merge,
)
from dlms.cli import main, write_trajectories
from dlms.errors import DivergenceError
from dlms.metrics import EnsembleSums, steady_state_variance
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
    """Both 100 x 1000 networks of the selfish table1 in one record, with one
    averaging agent: no room for the balanced network's averaging agent
    beside it."""
    assert _traced_peak(verify_delay, _selfish_table1()) <= 16.5 * MB


def test_verify_merge_peak():
    """table1's 100 x 1000 simulation, then the merge claim's gaps one run at
    a time, below the simulation's own peak. Three temporaries the size of
    one agent's trajectories of every run, the gaps of all runs at once,
    peaked at 10.41 MB."""
    assert _traced_peak(verify_merge, builtin("table1")) <= 10 * MB


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
    """table1's 4.0 MB of squared distances, with room for one run's
    temporaries but not for a second array the size of the records or for
    every distance as a Python float."""
    record = run(builtin("table1"))
    assert _traced_peak(lambda: record.sq_dist) <= 5 * MB


def test_compute_report_peak():
    """The whole report on a fresh table1 record: its squared distances, the
    ensemble-mean record and the metrics CSV's rows, one list per row,
    without a temporary the size of the records."""
    s = builtin("table1")
    record = run(s)
    assert _traced_peak(lambda: compute_report(s, EnsembleSums().add(record))) <= 6 * MB


def test_write_trajectories_peak(tmp_path):
    """The whole 33 MB trajectory CSV of table1, a bounded piece of text at a
    time: no run's text and no full column of formatted values at once."""
    s = builtin("table1")
    record = run(s)
    record.sq_dist  # computed once and cached, outside the traced writer
    assert _traced_peak(write_trajectories, tmp_path / "t.csv", s, [record]) <= 3 * MB


@pytest.mark.parametrize("ensemble", [100, 1000])
def test_cli_run_table1_peak(tmp_path, ensemble):
    """``dlms run table1`` at 100 iterations, so that 1000 runs trace in
    seconds. The runs stream through the writer and the report in groups of
    at most 2^17 estimates, 262 runs here, so 100 and 1000 runs peak alike:
    one group's records and squared distances (3.1 MB at 262 runs) and the
    writer, with no room for a second group."""
    out = tmp_path / "t.csv"
    argv = ["run", "table1", "--iterations", "100", "--ensemble", str(ensemble),
            "--out", str(out)]
    codes = []
    assert _traced_peak(lambda: codes.append(main(argv))) <= 8 * MB
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
    long_horizon record, one run's window at a time."""
    record = long_horizon[1]
    assert _traced_peak(lambda: [steady_state_variance(record, aid)
                                 for aid in ("c", "f")]) <= 1 * MB


def test_merge_iteration_transient():
    """The delay claim's merge detection on both networks of its 100 x 1000
    paired record, one run at a time."""
    selfish = _selfish_table1()
    record, twins = run_paired(selfish, balanced_variant(selfish))
    assert _traced_peak(lambda: [merge_iteration(record, ids) for ids in
                                 (["a", "b"], [twins["a"], twins["b"]])]) <= 0.5 * MB
