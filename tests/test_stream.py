"""``dlms run`` simulates, writes and reports the ensemble a group of runs at
a time, the groups that ``engine.groups`` sizes from ``engine._CHUNK_DRAWS``.
Whatever the size of the groups, its outputs are those of one record of every
run: the trajectory CSV of ``write_trajectories`` and the metrics of
``write_metrics``, and on divergence the CSV of the completed runs, the same
error manifest and the same stderr. No group after a divergent one is
simulated, and a failed run leaves an earlier run's outputs as they were.
"""

import dataclasses
import errno
import io
import json
import os
import tempfile
from contextlib import redirect_stderr
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dlms.cli
from dlms import engine
from dlms.cli import error_path, main, metrics_path, write_metrics, write_trajectories
from dlms.errors import DivergenceError
from dlms.metrics import EnsembleSums
from dlms.scenarios import builtin, parse, run, serialize
from dlms.signals import GaussianParams
from strategies import scenarios

LONG_HORIZON = Path(__file__).resolve().parents[1] / "perfbench" / "long_horizon.cfg"


def _unstable(ensemble, input_sd=1.0):
    """table1 over 200 iterations with every adaptive agent at mu = 2.5: at
    input sd 1.0 runs 0 and 1 complete and run 2 diverges at iteration 101,
    at input sd 1e308 run 0 diverges at iteration 1."""
    s = builtin("table1")
    agents = tuple(dataclasses.replace(cfg, mu=2.5, input=GaussianParams(0.0, input_sd))
                   if cfg.is_adaptive() else cfg for cfg in s.agents)
    return dataclasses.replace(s, agents=agents, iterations=200, ensemble=ensemble)


def _files(out):
    """The bytes of ``out``, its metrics and its error manifest (None if absent),
    and the names of every file in its directory."""
    return ([path.read_bytes() if path.exists() else None
             for path in (out, metrics_path(out), error_path(out))],
            sorted(path.name for path in out.parent.iterdir()))


def _whole(scenario, out):
    """What ``dlms run`` writes, from one record of every run: the files and stderr."""
    try:
        record = run(scenario)
    except DivergenceError as exc:
        if len(exc.completed):
            write_trajectories(out, scenario, [exc.completed])
        error_path(out).write_text(json.dumps({
            "error": "divergence",
            "message": str(exc),
            "run": exc.run,
            "agent": exc.agent,
            "iteration": exc.iteration,
            "completed_runs": len(exc.completed),
        }, indent=2) + "\n", encoding="utf-8")
        return _files(out), f"error: {exc}\n"
    write_trajectories(out, scenario, [record])
    write_metrics(metrics_path(out), scenario, EnsembleSums().add(record))
    return _files(out), ""


def _chunk_draws(scenario, runs_per_group):
    """The largest engine._CHUNK_DRAWS whose groups of the scenario's runs
    hold at most ``runs_per_group`` runs, and the runs its groups hold: that
    many, but one fewer where no _CHUNK_DRAWS gives that many, an odd
    ``runs_per_group`` above 1 of runs of one estimate each."""
    values = scenario.iterations * len(scenario.agents) * len(scenario.w_opt)
    chunk_draws = ((runs_per_group + 1) * values - 1) // 2
    return chunk_draws, max(1, 2 * chunk_draws // values)


def _streamed(scenario, out, chunk_draws):
    """``dlms run`` of the scenario's config into ``out`` with the engine's
    _CHUNK_DRAWS at ``chunk_draws``: exit code, files, stderr and the runs of
    each call of the engine."""
    config = out.with_name("scenario.cfg")
    config.write_text(serialize(scenario), encoding="utf-8")
    err = io.StringIO()
    with mock.patch.object(engine, "_CHUNK_DRAWS", chunk_draws), \
            mock.patch.object(engine, "run_ensemble", wraps=engine.run_ensemble) as simulate, \
            redirect_stderr(err):
        code = main(["run", str(config), "--out", str(out)])
    config.unlink()
    calls = [list(call.args[1]) for call in simulate.call_args_list]
    return code, _files(out), err.getvalue(), calls


def _check_any_grouping(scenario, runs_per_group):
    chunk_draws, runs_per_group = _chunk_draws(scenario, runs_per_group)
    with tempfile.TemporaryDirectory() as whole, tempfile.TemporaryDirectory() as streamed:
        (files, names), err = _whole(scenario, Path(whole, "t.csv"))
        code, (got, got_names), got_err, calls = _streamed(
            scenario, Path(streamed, "t.csv"), chunk_draws)
    assert (got, got_names, got_err) == (files, names, err)
    assert code == (3 if err else 0)
    # consecutive groups of runs_per_group runs, the last one possibly shorter,
    # up to the divergent group
    assert [runs[0] for runs in calls] == list(range(0, runs_per_group * len(calls),
                                                     runs_per_group))
    assert all(len(runs) == runs_per_group for runs in calls[:-1])
    if err:
        divergent = json.loads(files[2])["run"]
        assert divergent in calls[-1]
    else:
        assert calls[-1][-1] == scenario.ensemble - 1
    return calls


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=st.builds(dataclasses.replace, scenarios(), ensemble=st.integers(1, 7)),
       runs_per_group=st.sampled_from([1, 2, 3]))
def test_generated_scenarios_stream_like_one_record(scenario, runs_per_group):
    _check_any_grouping(scenario, runs_per_group)


@pytest.mark.parametrize("runs_per_group", [1, 3, 7])
def test_cut_down_table1_streams_like_one_record(runs_per_group):
    """Seven runs in groups of one, in groups of 3, 3 and 1, and in one group."""
    scenario = dataclasses.replace(builtin("table1"), iterations=60, ensemble=7)
    calls = _check_any_grouping(scenario, runs_per_group)
    assert len(calls) == -(-7 // runs_per_group)


@pytest.mark.parametrize("runs_per_group, groups", [
    (1, 3),  # run 2 is a group of its own
    (2, 2),  # the divergent run opens the second group
    (3, 1),  # the divergent run closes the first group, after two that completed
    (5, 1),  # mid-group, with runs after it in the group
])
def test_divergence_streams_like_one_record(runs_per_group, groups):
    """Runs 0 and 1 complete and run 2 diverges; no later group is simulated."""
    calls = _check_any_grouping(_unstable(ensemble=9), runs_per_group)
    assert len(calls) == groups


@pytest.mark.parametrize("runs_per_group", [1, 4])
def test_divergence_in_run_0_writes_no_csv(runs_per_group):
    calls = _check_any_grouping(_unstable(ensemble=6, input_sd=1e308), runs_per_group)
    assert len(calls) == 1


def test_a_failed_run_leaves_the_earlier_outputs(tmp_path, capsys, monkeypatch):
    """A record that does not fit in memory, and a disk that fills up in the
    middle of the CSV or while the metrics are written: exit 2, and the
    directory holds what an earlier run left there, byte for byte."""
    out = tmp_path / "t.csv"

    def dlms_run(*options):
        return main(["run", "table1", "--iterations", "30", *options, "--out", str(out)])

    assert dlms_run("--ensemble", "5") == 0
    before = _files(out)
    assert None not in before[0][:2]
    assert dlms_run("--iterations", "99999999999999") == 2
    assert "does not fit in memory" in capsys.readouterr().err
    assert _files(out) == before

    def disk_full(path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    real_writer = write_trajectories

    def writer_stops_after_a_group(path, scenario, records):
        real_writer(path, scenario, islice(records, 1))
        disk_full(path)

    monkeypatch.setattr(engine, "_CHUNK_DRAWS", 30 * 5)  # two runs a group
    monkeypatch.setattr(dlms.cli, "write_trajectories", writer_stops_after_a_group)
    assert dlms_run("--ensemble", "6", "--seed", "7") == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
    assert _files(out) == before
    monkeypatch.setattr(dlms.cli, "write_trajectories", real_writer)
    monkeypatch.setattr(dlms.cli, "write_metrics", lambda path, *_: disk_full(path))
    assert dlms_run("--ensemble", "5", "--seed", "7") == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {metrics_path(out)}: No space left on device\n")
    assert _files(out) == before


def test_table1_runs_in_groups_of_26(tmp_path):
    """100 runs of 1000 iterations x 5 agents: 2 * 2^16 estimates hold 26 runs."""
    with mock.patch.object(engine, "run_ensemble", wraps=engine.run_ensemble) as simulate:
        assert main(["run", "table1", "--out", str(tmp_path / "t.csv")]) == 0
    calls = [list(call.args[1]) for call in simulate.call_args_list]
    assert [(runs[0], runs[-1]) for runs in calls] == [(0, 25), (26, 51), (52, 77),
                                                       (78, 99)]
    assert [len(runs) for runs in calls] == [26, 26, 26, 22]


def test_long_horizon_runs_one_run_a_group(monkeypatch):
    """20,000 iterations x 7 agents x M = 4 exceed 2 * 2^16 estimates: one run a group."""
    scenario = parse(LONG_HORIZON.read_text())
    assert (scenario.ensemble, scenario.iterations, len(scenario.agents)) == (2, 20000, 7)
    calls = []
    monkeypatch.setattr(engine, "run_ensemble",
                        lambda _, runs: calls.append(list(runs)))
    assert list(engine.groups(scenario)) == [None, None]
    assert calls == [[0], [1]]
