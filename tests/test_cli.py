import csv
import gc
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dlms.cli
import oracle
from dlms.claims import verify_claim
from dlms.cli import error_path, main, metrics_path, write_metrics, write_trajectories
from dlms.errors import ConfigError, DivergenceError
from dlms.metrics import EnsembleRecord, EnsembleSums
from dlms.network import TrustMatrix
from dlms.scenarios import AgentConfig, Scenario, builtin, run
from dlms.signals import GaussianParams
from strategies import scenarios


def run_cli(*argv):
    return main(list(argv))


def test_list_names_builtins(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name in ("table1", "table2", "table3", "table4", "table5"):
        assert name in out
    assert "learning rates" in out  # table2 description


def test_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    common = ("run", "table1", "--seed", "42", "--iterations", "50",
              "--ensemble", "2")
    assert run_cli(*common, "--out", str(out1)) == 0
    assert run_cli(*common, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_trajectory_csv_shape_and_roundtrip(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("run", "table1", "--iterations", "10", "--ensemble", "2",
                   "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 10 * 5
    assert list(rows[0]) == ["run", "iteration", "agent", "w0", "e", "dist_opt"]
    # shortest-repr floats re-parse to the exact in-memory values
    for row in rows[:20]:
        assert repr(float(row["w0"])) == row["w0"]
    # sorted by run, then iteration, then agent id
    keys = [(int(r["run"]), int(r["iteration"]), r["agent"]) for r in rows]
    assert keys == sorted(keys)


# valid agent ids that csv.writer quotes, that hold '%', that are not ASCII,
# and whose sort order differs from a case-insensitive or numeric one
_IDS = ('x"y', "p%q", "'", "é", "B", "a", "a10", "a2", "%s", '""', "%%", "Z9")


def _renamed(scenario, names):
    new = dict(zip((cfg.id for cfg in scenario.agents), names))
    return replace(scenario, agents=tuple(
        replace(cfg, id=new[cfg.id], counterpart=new.get(cfg.counterpart),
                sources=tuple(new[src] for src in cfg.sources))
        for cfg in scenario.agents))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.permutations(_IDS))
def test_trajectory_writer_matches_oracle(scenario, names):
    scenario = _renamed(scenario, names)
    try:
        record = run(scenario)
    except DivergenceError as exc:
        record = exc.completed
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp, "ours.csv"), Path(tmp, "ref.csv")
        write_trajectories(ours, scenario, [record])
        oracle.write_trajectories(ref, scenario, record)
        assert ours.read_bytes() == ref.read_bytes()


def test_trajectory_writer_in_small_pieces_matches_oracle(tmp_path, monkeypatch):
    """7 values make pieces of one iteration at M = 1, the fewest a piece
    holds: 7 per run, of 5 rows each."""
    monkeypatch.setattr(dlms.cli, "_WRITE_VALUES", 7)
    scenario = replace(builtin("table1"), iterations=7, ensemble=2)
    record = run(scenario)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_trajectories(ours, scenario, [record])
    oracle.write_trajectories(ref, scenario, record)
    assert ours.read_bytes() == ref.read_bytes()


# at least one value in every layout repr uses, of either sign: decimal points
# from -3 to 16, exponents of two and three digits, zeros and whole numbers;
# and values that the writer formats with repr itself
_LAYOUT_VALUES = [
    *(v * 10.0**e for e in range(-8, 20) for v in (1.0, 1.25, 0.123456789012345678)),
    9999999999999998.0, 1e16, 9.999999999999999e-05, 1e-4, 1e22, 1e23, 2.0**53 + 2,
    1.7976931348623157e308, 2.2250738585072014e-308, 1e-300, 3.5e200, 0.0,
    5e-324, 2.5e-310, math.inf, math.nan,
]


def test_trajectory_writer_lays_out_every_float_like_the_oracle(tmp_path):
    """A hand-made record (2 runs, 2 components) with the values above and
    their negations, -0.0 among them, and one agent so far out that its
    squared distance overflows to an inf dist_opt."""
    values = np.array(_LAYOUT_VALUES + [-v for v in _LAYOUT_VALUES])
    runs, agents, m = 2, 3, 2
    iterations = -(-len(values) // (agents * m))
    ws = np.resize(values, (runs, iterations, agents, m))
    ws[1] = ws[1][::-1]
    ws[:, :, 2] = 1e200
    es = np.resize(values[::-1], (runs, iterations, agents))
    scenario = SimpleNamespace(w_opt=(0.5, -0.25))
    record = EnsembleRecord(scenario.w_opt, ["b", "c", "a"], ws, es)
    assert np.isinf(record.sq_dist[..., 2]).all()
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_trajectories(ours, scenario, [record])
    oracle.write_trajectories(ref, scenario, record)
    assert ours.read_bytes() == ref.read_bytes()


def test_trajectory_writer_dist_opt_at_the_edges_like_the_oracle(tmp_path):
    """At M = 1, where dist_opt is |w - w_opt| on root_square_is_abs's set
    and pow of the squared distance off it: powers of two, the ends of that
    set and their neighbours, subnormals, squares that underflow or
    overflow, zeros, inf and nan, of either sign, in agents that the CSV
    writes in another order than the record's."""
    ends = [2.0**e for e in (-1074, -600, -512, -511, -510, -450, 0, 1, 500, 510, 511, 512,
                             1023)]
    values = [*ends, *(math.nextafter(v, 0.0) for v in ends),
              *(math.nextafter(v, math.inf) for v in ends), 0.0, 5e-324, 1.5, math.inf,
              math.nan]
    values = np.array(values + [-v for v in values])
    ws = np.resize(values, (2, -(-len(values) // 3), 3, 1))
    ws[1] = ws[1][::-1]
    scenario = SimpleNamespace(w_opt=(0.0,))
    record = EnsembleRecord(scenario.w_opt, ["c", "a", "b"], ws, np.zeros(ws.shape[:3]))
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_trajectories(ours, scenario, [record])
    oracle.write_trajectories(ref, scenario, record)
    assert ours.read_bytes() == ref.read_bytes()


def _metrics_like_the_oracle(tmp_path, scenario, record):
    """The metrics CSV of ``record``, which must be the oracle's byte for byte."""
    sums = EnsembleSums().add(record)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_metrics(ours, scenario, sums)
    oracle.write_metrics(ref, scenario, sums)
    assert ours.read_bytes() == ref.read_bytes()
    return ours.read_bytes()


def _vector(scenario, w_opt):
    """``scenario`` with weights of len(w_opt) components, each w0 repeated."""
    return replace(scenario, w_opt=w_opt, agents=tuple(
        replace(cfg, w0=cfg.w0 * len(w_opt)) if cfg.is_adaptive() else cfg
        for cfg in scenario.agents))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("iterations", [4, 9, 10, 99, 100, 1000, 10000])
def test_metrics_writer_matches_oracle(tmp_path, iterations, m):
    """Iteration numbers of every digit width up to five, in one and in two
    groups of four digits, and a horizon under 6, too short for the
    steady-state window; ids that csv quotes or that sort by code point,
    which the report's rows and the MSD block list in the same order."""
    scenario = _renamed(builtin("table1"), ['x"y', "B", "a10", "a2", "é"])
    scenario = _vector(replace(scenario, iterations=iterations, ensemble=2),
                       (2.0, -1.0, 0.5)[:m])
    text = _metrics_like_the_oracle(tmp_path, scenario, run(scenario))
    assert text.count(b"\r\nmsd,") == 5 * iterations
    assert text.index(b"\r\nmsd,B,1,") < text.index(b"\r\nmsd,a10,1,") \
        < text.index(b"\r\nmsd,a2,1,") < text.index(b'\r\nmsd,"x""y",1,')
    assert (b"\r\nsteady_state_var,B,,\r\n" in text) == (iterations < 6)


def test_metrics_writer_writes_an_overflowing_msd_like_the_oracle(tmp_path):
    """Agent c so far out that its squared distance overflows to inf, which
    the writer formats with repr."""
    scenario = replace(builtin("table1"), iterations=10, ensemble=2)
    record = run(scenario)
    record.ws[:, :, 2] = 1e200
    text = _metrics_like_the_oracle(tmp_path, scenario, record)
    assert b"\r\nmsd,c,1,inf\r\n" in text and b"\r\nmsd,c,10,inf\r\n" in text


def test_metrics_writer_in_small_pieces_matches_oracle(tmp_path, monkeypatch):
    """7 values make pieces of 7 rows: 3 per agent of 20 iterations, the last
    of them 6 rows, so pieces end inside each agent's block."""
    monkeypatch.setattr(dlms.cli, "_WRITE_VALUES", 7)
    scenario = replace(builtin("table1"), iterations=20, ensemble=2)
    _metrics_like_the_oracle(tmp_path, scenario, run(scenario))


def test_metrics_csv_has_convergence_iters(tmp_path):
    out = tmp_path / "t2.csv"
    assert run_cli("run", "table2", "--ensemble", "10", "--out", str(out)) == 0
    with open(metrics_path(out), newline="") as fh:
        rows = list(csv.DictReader(fh))
    conv = {r["agent"]: r["value"] for r in rows
            if r["metric"] == "convergence_iter"}
    for aid in ("a", "b", "e"):
        assert conv[aid] != ""


# Adaptive agents listed out of id order, b before a, then an averaging agent
# A whose id sorts before both.
_UNSORTED = """\
[network]
iterations = {iterations}
ensemble = 2

[agent]
id = b
mu = 0.5
w0 = {w0_b}
input_sd = 0.09
noise_sd = 0.03

[agent]
id = a
mu = 0.2
w0 = {w0_a}
input_sd = 0.09
noise_sd = 0.03

[agent]
id = A
kind = averaging
sources = b a

[trust]
b b 0.5
b a 0.5
a a 0.5
a b 0.5
"""


@pytest.mark.parametrize("iterations, w0_b, w0_a, expected", [
    # 5 iterations leave no steady-state window, and nothing converges; each
    # crossing pair is named in agent order, then the pairs are sorted
    (5, 1, 0, """\
steady_state_var,A,,
steady_state_var,a,,
steady_state_var,b,,
convergence_iter,A,,
convergence_iter,a,,
convergence_iter,b,,
crossing_iter,a:A,,4
crossing_iter,b:A,,4
crossing_iter,b:a,,4
"""),
    # both start at w_opt: the convergence band is undefined
    (10, 2, 2, """\
steady_state_var,A,,2.174007167966554e-08
steady_state_var,a,,2.800450236462634e-07
steady_state_var,b,,4.951627377473205e-07
convergence_iter,A,,
convergence_iter,a,,
convergence_iter,b,,
crossing_iter,a:A,,6
crossing_iter,b:A,,10
crossing_iter,b:a,,6
"""),
], ids=["unsorted_agents", "undefined_band"])
def test_metrics_csv_rows_after_the_msd(tmp_path, iterations, w0_b, w0_a, expected):
    cfg, out = tmp_path / "edge.cfg", tmp_path / "edge.csv"
    cfg.write_text(_UNSORTED.format(iterations=iterations, w0_b=w0_b, w0_a=w0_a))
    assert run_cli("run", str(cfg), "--out", str(out)) == 0
    lines = metrics_path(out).read_bytes().decode().split("\r\n")
    assert lines[0] == "metric,agent,iteration,value"
    assert [line.split(",")[:3] for line in lines[1:1 + 3 * iterations]] == \
        [["msd", aid, str(i)] for aid in ("A", "a", "b") for i in range(1, iterations + 1)]
    assert "\n".join(lines[1 + 3 * iterations:]) == expected


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    # the argument is quoted with repr, so a line break in it stays on one line
    assert run_cli("run", "missing.cfg", "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == "error: no such builtin or config file: 'missing.cfg'\n"
    assert run_cli("run", "no\nsuch.cfg", "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == (
        "error: no such builtin or config file: 'no\\nsuch.cfg'\n")
    assert run_cli("run", str(tmp_path), "--out", str(tmp_path / "x.csv")) == 2
    assert f"cannot read config file {str(tmp_path)!r}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (("verify", "table1", "bogus"), "dlms verify: argument claim: invalid choice: 'bogus'"),
    (("run", "table1"), "dlms run: the following arguments are required: --out"),
    ((), "dlms: the following arguments are required: command"),
    (("frob",), "dlms: argument command: invalid choice: 'frob'"),
    (("run", "table1", "--out", "x.csv", "--bogus", "1"),
     "dlms: unrecognized arguments: --bogus 1"),
    (("verify",), "dlms verify: the following arguments are required: scenario, claim"),
], ids=["bad-claim", "no-out", "empty", "bad-command", "unknown-option", "no-scenario"])
def test_a_malformed_command_line_is_one_error_line(tmp_path, monkeypatch, capsys, argv,
                                                    error):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and len(err.splitlines()) == 1, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [("--help",), ("run", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        run_cli(*argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dlms")


@pytest.mark.parametrize("argv, w_opt", [
    (("--w-opt", "-1e3"), "-1e3"),
    (("--w-op", "-1e3"), "-1e3"),
    (("--w-opt", "-1,2", "--set", "a.w0=0,0", "--set", "b.w0=0,0", "--set", "c.w0=0,0",
      "--set", "d.w0=0,0"), "-1,2"),
])
def test_a_value_may_start_with_a_minus_in_either_form(tmp_path, argv, w_opt):
    """``--w-opt -1e3`` (and its prefix ``--w-op``) runs as ``--w-opt=-1e3``."""
    runs = []
    for form in (argv, (f"--w-opt={w_opt}", *argv[2:])):
        out = tmp_path / f"{len(runs)}.csv"
        assert run_cli("run", "table1", *SMALL, *form, "--out", str(out)) == 0
        runs.append((out.read_bytes(), metrics_path(out).read_bytes()))
    assert runs[0] == runs[1]


def test_a_value_that_starts_with_a_minus_is_the_value(tmp_path, capsys):
    assert run_cli("run", "table1", "--set", "-a.mu=1", "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == "config error: --set '-a.mu=1': unknown agent '-a'\n"


def test_invalid_override_is_usage_error(tmp_path):
    assert run_cli("run", "table1", "--set", "a.noise_sd=-1",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("run", "table1", "--set", "nobody.mu=0.1",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("run", "table1", "--set", "a.sources=c",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("run", "table1", "--set", "e.input_mean=1",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("run", "table1", "--w-opt", "2,x",
                   "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("override, field", [
    (("--set", "a.mu=nan"), "a: mu"),
    (("--set", "a.mu=inf"), "a: mu"),
    (("--w-opt", "inf"), "w_opt"),
    (("--set", "c.w0=-inf"), "c: w0"),
    (("--set", "b.input_mean=nan"), "b: input_mean"),
    (("--set", "b.input_sd=inf"), "b: input_sd"),
    (("--set", "d.noise_mean=-inf"), "d: noise_mean"),
    (("--set", "d.noise_sd=nan"), "d: noise_sd"),
    (("--set", "trust.a.a=nan"), "trust coefficient nan"),
])
def test_non_finite_value_is_usage_error(tmp_path, capsys, override, field):
    code = run_cli("run", "table1", "--iterations", "5", "--ensemble", "1",
                   *override, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert field in capsys.readouterr().err


def test_setup_does_not_import_numpy(tmp_path):
    """Loading and overriding a scenario stays numpy-free: numpy is only
    imported when an ensemble runs."""
    from dlms.scenarios import builtin, serialize

    cfg = tmp_path / "s.cfg"
    cfg.write_text(serialize(builtin("table3")))
    probe = (
        "import sys\n"
        "from dlms.cli import apply_overrides, build_parser, load_scenario\n"
        "for argv in sys.argv[1:]:\n"
        "    args = build_parser().parse_args(argv.split())\n"
        "    apply_overrides(load_scenario(args.scenario), args)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe,
         "verify table1 delay --set trust.a.a=0.9 --set trust.a.b=0.1",
         f"run {cfg} --out x.csv --seed 3 --set a.mu=0.1"],
        capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n"


def test_commands_do_not_import_scipy(tmp_path):
    """The package depends on numpy only. scipy may well be installed, so
    an import of it would pass every other test: a run and a verify load no
    scipy module."""
    probe = (
        "import sys\n"
        "from dlms.cli import main\n"
        "codes = [main(argv.split()) for argv in sys.argv[1:]]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe, "run table1 --ensemble 2 --iterations 10 --out t.csv",
         "verify table1 merge --ensemble 2 --iterations 20"],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    assert result.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "t.csv").exists()


def test_setup_and_verify_do_not_import_json_or_csv():
    """json and csv load only where the divergence manifest and the CSV
    files need them: perfbench's setup probe (parse the arguments, load the
    scenario, apply the overrides) and then a verify load neither."""
    probe = (
        "import sys\n"
        "from dlms.cli import apply_overrides, build_parser, load_scenario\n"
        "args = build_parser().parse_args()\n"
        "apply_overrides(load_scenario(args.scenario), args)\n"
        "loaded = lambda: sorted(m for m in ('json', 'csv') if m in sys.modules)\n"
        "setup = loaded()\n"
        "from dlms.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(setup, code, loaded())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe, "verify", "table1", "merge", "--ensemble", "2",
         "--iterations", "20"], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.splitlines()[-1] == "[] 0 []"


def test_setup_does_not_import_numbers():
    """The type check of real fields passes ints and floats without loading
    ``numbers``, so the setup of a config file or a builtin never loads it."""
    probe = (
        "import sys\n"
        "from dlms.cli import apply_overrides, build_parser, load_scenario\n"
        "for argv in sys.argv[1:]:\n"
        "    args = build_parser().parse_args(argv.split())\n"
        "    apply_overrides(load_scenario(args.scenario), args)\n"
        "print('numbers' in sys.modules)\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-c", probe, "verify table1 delay --set a.mu=0.02",
         f"run {root / 'perfbench' / 'long_horizon.cfg'} --out x.csv --set a.mu=0.1"],
        capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "False\n"


@pytest.mark.parametrize("argv, code", [
    ("verify table1 merge --ensemble 2 --iterations 20", 0),
    ("verify table1 merge --ensemble 0", 2)], ids=["pass", "config-error"])
def test_program_freezes_its_heap_before_it_exits(argv, code):
    """``main()`` as the program (no argv) freezes the heap once the command
    is done, on every exit code, so that the collections at exit skip it."""
    probe = (
        "import gc\n"
        "from dlms.cli import main\n"
        "code = main()\n"
        "print(code, gc.get_freeze_count() > 0)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", probe, *argv.split()],
                            capture_output=True, text=True, env=env)
    assert result.stdout.splitlines()[-1] == f"{code} True"


@pytest.mark.parametrize("argv", [
    "run table1 --ensemble 2 --iterations 10 --out {}/t.csv",
    "verify table1 merge --ensemble 2 --iterations 20",
    "verify table1 merge --ensemble 0"], ids=["run", "verify", "config-error"])
def test_main_with_argv_leaves_the_callers_gc_as_it_was(tmp_path, argv):
    """Only the program freezes its heap: a caller that passes argv keeps its
    frozen objects and its collector as they were."""
    before = gc.get_freeze_count(), gc.isenabled()
    main(argv.format(tmp_path).split())
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc and more than one CPU")
def test_verify_starts_no_blas_threads():
    """numpy's OpenBLAS would start a thread per further CPU when numpy
    loads; dlms makes no BLAS call and keeps its process to one thread."""
    probe = (
        "import os, sys\n"
        "from dlms.cli import main\n"
        "main(sys.argv[1:])\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    result = subprocess.run(
        [sys.executable, "-c", probe, "verify", "table1", "merge", "--ensemble", "2",
         "--iterations", "20"], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.splitlines()[-1] == "1"


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ["verify", "table1", "merge", "--ensemble", "2", "--iterations", "20"],
    ["list"],
    ["run", "table1", "--ensemble", "1", "--iterations", "5", "--out", "t.csv"],
])
def test_closed_stdout_is_usage_error(tmp_path, argv, unbuffered):
    """A reader that has gone away is exit 2 with one error line, not a
    traceback (which exits 1, like a failed claim); unbuffered, the failed
    write happens inside the command, and is still not blamed on --out."""
    read, write = os.pipe()
    os.close(read)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    try:
        result = subprocess.run([sys.executable, "-m", "dlms.cli", *argv],
                                stdout=write, stderr=subprocess.PIPE, env=env,
                                cwd=tmp_path)
    finally:
        os.close(write)
    assert result.returncode == 2
    assert result.stderr.decode().splitlines() == [
        "error: stdout was closed before the output was written"]


def test_agent_id_that_breaks_the_format_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "dotted.cfg"
    cfg.write_text("[network]\niterations = 5\nensemble = 1\n"
                   "[agent]\nid = x.y\nkind = standalone\nw0 = 0\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
    assert "agent id 'x.y'" in capsys.readouterr().err


def test_key_the_kind_does_not_take_is_usage_error(tmp_path, capsys):
    for kind, key, value in (("standalone", "sources", "zz"), ("averaging", "mu", "7")):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(f"[agent]\nid = x\nkind = {kind}\n{key} = {value}\n")
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        assert f"line 4: {kind} agents take no {key}\n" in capsys.readouterr().err


def test_trust_override(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("run", "table1", "--iterations", "5", "--ensemble", "1",
                   "--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
                   "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1",
                   "--out", str(out)) == 0
    # an inconsistent row fails validation
    assert run_cli("run", "table1", "--set", "trust.a.a=0.9",
                   "--out", str(out)) == 2


DIVERGE_IN_RUN_0 = ("--iterations", "5000", "--ensemble", "1",
                   "--set", "a.mu=2.5", "--set", "c.mu=2.5",
                   "--set", "a.input_sd=1.0", "--set", "b.input_sd=1.0",
                   "--set", "c.input_sd=1.0", "--set", "d.input_sd=1.0")
# every adaptive agent at mu=2.5 and input sd 1: runs 0 and 1 complete
DIVERGE_IN_RUN_2 = ("--iterations", "200", "--ensemble", "4",
                    *(arg for aid in "abcd" for arg in
                      ("--set", f"{aid}.mu=2.5", "--set", f"{aid}.input_sd=1.0")))
SMALL = ("--iterations", "5", "--ensemble", "2")


def test_divergence_exit_code_and_manifest(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = run_cli("run", "table1", *DIVERGE_IN_RUN_0, "--out", str(out))
    assert code == 3
    manifest = out.with_name(out.stem + ".error.json")
    assert manifest.exists()
    assert "divergence" in manifest.read_text()


def test_squares_that_overflow_are_inf(tmp_path):
    # an overflowing square is inf, as libm's pow returns: no OverflowError,
    # and no RuntimeWarning from comparing infinite distances
    out = tmp_path / "t.csv"
    frozen = (arg for aid in "abcd" for arg in ("--set", f"{aid}.mu=0"))
    assert run_cli("run", "table1", "--w-opt", "1e155", "--ensemble", "2",
                   "--iterations", "20", *frozen, "--out", str(out)) == 0
    with out.open(newline="") as fh:
        assert {row["dist_opt"] for row in csv.DictReader(fh)} == {"inf"}


def _outputs(out):
    return [path.exists() for path in (out, metrics_path(out), error_path(out))]


def test_success_removes_an_earlier_error_manifest(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("run", "table1", *DIVERGE_IN_RUN_2, "--out", str(out)) == 3
    assert _outputs(out) == [True, False, True]
    assert run_cli("run", "table1", *SMALL, "--out", str(out)) == 0
    assert _outputs(out) == [True, True, False]


def test_divergence_removes_earlier_metrics(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("run", "table1", *SMALL, "--out", str(out)) == 0
    assert run_cli("run", "table1", *DIVERGE_IN_RUN_2, "--out", str(out)) == 3
    assert _outputs(out) == [True, False, True]
    assert out.read_bytes().count(b"\n") == 1 + 2 * 200 * 5  # the 2 completed runs


def test_divergence_in_the_first_run_removes_earlier_outputs(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("run", "table1", *SMALL, "--out", str(out)) == 0
    assert run_cli("run", "table1", *DIVERGE_IN_RUN_0, "--out", str(out)) == 3
    assert _outputs(out) == [False, False, True]


@pytest.mark.parametrize("out, reason", [("missing/t.csv", "No such file or directory"),
                                         ("a_dir", "Is a directory"),
                                         ("a_file/t.csv", "Not a directory")])
def test_unwritable_out_is_usage_error(tmp_path, capsys, out, reason):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").touch()
    out = tmp_path / out
    assert run_cli("run", "table1", *SMALL, "--out", str(out)) == 2
    assert f"error: cannot write {out}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("new_run", [SMALL, DIVERGE_IN_RUN_2], ids=["success", "divergence"])
@pytest.mark.parametrize("earlier, in_the_way", [(SMALL, error_path),
                                                 (DIVERGE_IN_RUN_2, metrics_path)],
                         ids=["success-then-manifest", "divergence-then-metrics"])
def test_a_directory_at_an_output_leaves_earlier_outputs_as_they_were(
        tmp_path, capsys, new_run, earlier, in_the_way):
    """A directory at the output an earlier run did not write fails a later
    run, whatever its outcome, with one line naming it, before any output
    is replaced or removed: the earlier files keep their bytes and no
    temporary sibling is left."""
    out = tmp_path / "t.csv"
    assert run_cli("run", "table1", *earlier, "--out", str(out)) in (0, 3)
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    in_the_way(out).mkdir()
    capsys.readouterr()
    assert run_cli("run", "table1", *new_run, "--seed", "7", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {in_the_way(out)}: Is a directory\n")
    assert {path: path.read_bytes() for path in tmp_path.iterdir()
            if path != in_the_way(out)} == before
    assert sorted(tmp_path.iterdir()) == sorted([*before, in_the_way(out)])


def test_out_as_a_symlink_to_a_directory_replaces_the_symlink(tmp_path):
    """os.replace replaces a symlink itself, so an --out that is a symlink to
    a directory is written as a file and the directory is left alone."""
    (tmp_path / "a_dir").mkdir()
    out = tmp_path / "t.csv"
    out.symlink_to(tmp_path / "a_dir")
    assert run_cli("run", "table1", *SMALL, "--out", str(out)) == 0
    assert not out.is_symlink() and out.read_bytes().startswith(b"run,iteration,")
    assert list((tmp_path / "a_dir").iterdir()) == []


@pytest.mark.parametrize("out", ["", ".", "..", "/", "t/"])
def test_out_that_names_no_file_is_usage_error(tmp_path, capsys, monkeypatch, out):
    """An --out whose last component is empty, . or .. exits 2 with one line
    naming --out, before the scenario is simulated, and writes nothing."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with mock.patch("dlms.engine.run_ensemble",
                    side_effect=AssertionError("the scenario was simulated")):
        assert run_cli("run", "table1", *SMALL, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out!r} names no file\n"
    assert list(tmp_path.iterdir()) == [work]
    assert list(work.iterdir()) == []


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    """Config, outputs and stdout are UTF-8 whatever the locale's encoding is."""
    cfg = tmp_path / "e.cfg"
    cfg.write_bytes("[network]\niterations = 3\nensemble = 1\n"
                    "[agent]\nid = é\nkind = standalone\nw0 = 0\n".encode())
    pair = tmp_path / "pair.cfg"
    pair.write_bytes("[network]\niterations = 50\nensemble = 4\n"
                     "[agent]\nid = é\nnoise_sd = 0.2\n[agent]\nid = b\nnoise_sd = 0.01\n"
                     "[agent]\nid = c\nkind = standalone\nnoise_sd = 0.2\ncounterpart = é\n"
                     "[trust]\né é 0.5\né b 0.5\nb b 0.5\nb é 0.5\n".encode())
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"[network]\n# \xff\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONIOENCODING": ""}

    def dlms(*argv):
        return subprocess.run([sys.executable, "-m", "dlms.cli", *argv],
                              capture_output=True, env=env, cwd=tmp_path)

    result = dlms("run", "e.cfg", "--out", "e.csv")
    assert (result.returncode, result.stderr) == (0, b"")
    assert (tmp_path / "e.csv").read_bytes().splitlines()[1].startswith("0,1,é,".encode())
    assert "\nmsd,é,1,".encode() in (tmp_path / "e.metrics.csv").read_bytes()
    result = dlms("verify", "pair.cfg", "stabilize")
    assert result.returncode in (0, 1)
    assert (result.stderr, "cooperative=é, twin=c\n".encode() in result.stdout) == (b"", True)
    result = dlms("run", "bad.cfg", "--out", "bad.csv")
    assert result.returncode == 2
    assert b"config file 'bad.cfg' is not UTF-8 text: byte 12 (0xff)" in result.stderr


def test_config_with_a_byte_order_mark_runs_like_the_plain_file(tmp_path):
    from dlms.scenarios import builtin, serialize

    text = serialize(replace(builtin("table1"), iterations=20, ensemble=2)).encode()
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    for name in ("plain", "bom"):
        assert run_cli("run", str(tmp_path / f"{name}.cfg"),
                       "--out", str(tmp_path / f"{name}.csv")) == 0
    for suffix in (".csv", ".metrics.csv"):
        plain = (tmp_path / f"plain{suffix}").read_bytes()
        assert (tmp_path / f"bom{suffix}").read_bytes() == plain


def test_counterpart_naming_its_own_agent_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "self.cfg"
    cfg.write_text("[agent]\nid = c\nkind = standalone\ncounterpart = c\n")
    for argv in (("table1", "--set", "c.counterpart=c"), (str(cfg),)):
        assert run_cli("run", *argv, "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == (
            "error: agent c: counterpart must name another agent\n")


def _agent(aid, **fields):
    """A cooperative agent with unit input and no noise, unless ``fields``
    say otherwise."""
    stats = {"input": GaussianParams(0.0, 1.0), "noise": GaussianParams(0.0, 0.0)}
    return AgentConfig(aid, "cooperative", **{"mu": 0.5, "w0": (0.0,), **stats, **fields})


_PAIR = "[agent]\nid = p\nmu = 0.1\n[agent]\nid = q\nmu = 0.2\n"


# The CLI cases are (command, builtin name or config text, further argv) and
# the text of the one stderr line that names the field, agent or line; the
# errors the CLI cannot reach are raised by a call of the Python API.
@pytest.mark.parametrize("case, names", [
    (("run", "table1", ["--iterations", "0"]), "error: iterations must be >= 1, got 0"),
    (("run", "table1", ["--ensemble", "0"]), "error: ensemble must be >= 1, got 0"),
    (("run", "table1", ["--seed", "-1"]),
     "error: seed must be an unsigned 64-bit integer, got -1"),
    (("run", "[network]\niterations = 5\n", []), "error: scenario has no agents"),
    (("run", "[agent]\nid = p\n[agent]\nid = p\n", []),
     "error: duplicate agent ids: ['p', 'p']"),
    (("run", "[agent]\nid = p\n[agent]\nid = e\nkind = averaging\n", []),
     "error: agent e: averaging agents need >= 1 source"),
    (("run", "[agent]\nid = p\n[agent]\nid = e\nkind = averaging\nsources = zz\n", []),
     "error: agent e: source 'zz' is not an adaptive agent"),
    (("run", "table1", ["--set", "d.counterpart=c"]),
     "error: agent d: counterpart chains are not allowed"),
    (("run", "[agent]\nid = p\n[foo]\n", []), "config error: line 3: unknown section [foo]"),
    (("run", "[agent]\nid = p\n[trust]\np p\n", []),
     "config error: line 4: trust entries are 'from to coefficient' triples, got 'p p'"),
    (("run", "[network]\niterations\n", []),
     "config error: line 2: expected key=value, got 'iterations'"),
    (("run", "table1", ["--set", "trust.a.zz=0.5"]),
     "config error: --set 'trust.a.zz=0.5': trust entry names unknown adaptive agent "
     "'a' -> 'zz'"),
    (("run", "table1", ["--set", "a.mu"]), "config error: --set 'a.mu': expected key=value"),
    (("run", "table1", ["--set", "a.b.c=1"]),
     "config error: --set 'a.b.c=1': the key is neither agent.field nor trust.from.to"),
    (("verify", "[agent]\nid = p\n", ["merge"]),
     "error: merge claim needs at least two cooperative agents"),
    (("verify", _PAIR, ["speedup"]),
     "error: claim needs exactly one averaging agent, found 0"),
    (("verify", "[agent]\nid = s\nkind = standalone\n", ["stabilize"]),
     "error: stabilize claim needs a cooperative agent"),
    (("verify", "table5", ["stabilize", "--set", "d.counterpart="]),
     "error: stabilize claim needs a standalone twin of agent 'b'"),
    (lambda: Scenario(agents=(AgentConfig("x", "bogus"),), trust=TrustMatrix(())),
     "agent x: unknown kind 'bogus'"),
    (lambda: Scenario(agents=(_agent("p", input=None),), trust=TrustMatrix(((1.0,),))),
     "agent p: input and noise statistics required"),
    (lambda: Scenario(agents=(_agent("p", sources=("p",)),),
                      trust=TrustMatrix(((1.0,),))),
     "agent p: only averaging agents take sources"),
    (lambda: TrustMatrix(((1.0,), (0.0, 1.0))), "trust row 0 has length 1, expected 2"),
    (lambda: replace(builtin("table1"), w_opt=()), "w_opt must have at least one component"),
    (lambda: verify_claim(builtin("table1"), "bogus"),
     "unknown claim 'bogus'; valid claims: "),
    # the horizon is checked before anything is simulated: this mu diverges at iteration 4
    (("verify", "table1", ["stabilize", "--iterations", "5", "--ensemble", "2",
                           "--set", "a.mu=1e6"]),
     "error: steady-state variance needs iterations >= 6, got 5"),
])
def test_config_error_names_its_field(tmp_path, capsys, case, names):
    if callable(case):
        with pytest.raises(ConfigError, match=re.escape(names)):
            case()
        return
    command, ref, argv = case
    if "\n" in ref:
        (tmp_path / "s.cfg").write_text(ref)
        ref = str(tmp_path / "s.cfg")
    if command == "run":
        argv = [*argv, "--out", str(tmp_path / "x.csv")]
    assert run_cli(command, ref, *argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [names]


# dlms run allocates the record of a group of runs, 355 PiB at this horizon;
# dlms verify streams a block of iterations at a time, so a long horizon
# runs, but a block of every run of this ensemble needs 7.1 PiB
@pytest.mark.parametrize("argv", [("run", "table1", "--out", "x.csv",
                                   "--iterations", "99999999999999"),
                                  ("verify", "table1", "merge",
                                   "--ensemble", "99999999999999")])
def test_scenario_too_large_for_memory_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the first allocation fails at once
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the scenario does not fit in memory: ")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_config_file_roundtrip(tmp_path):
    from dlms.scenarios import builtin, serialize

    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(serialize(builtin("table3")))
    out = tmp_path / "t3.csv"
    assert run_cli("run", str(cfg), "--iterations", "10", "--ensemble", "1",
                   "--out", str(out)) == 0
    assert out.exists()


@pytest.mark.parametrize("name, claim", [("table1", "merge"), ("table2", "speedup"),
                                         ("table3", "speedup"), ("table4", "speedup"),
                                         ("table5", "stabilize")])
def test_a_builtin_runs_as_its_serialized_file(tmp_path, capsys, name, claim):
    """``dlms run NAME`` writes the bytes of ``dlms run FILE``, FILE holding
    serialize(builtin(NAME)), and ``dlms verify`` prints the same line."""
    from dlms.scenarios import serialize

    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(serialize(builtin(name)), encoding="utf-8")
    small = ("--ensemble", "3", "--iterations", "30")
    outputs = []
    for i, ref in enumerate((name, str(cfg))):
        out = tmp_path / f"{i}.csv"
        assert run_cli("run", ref, *small, "--out", str(out)) == 0
        assert run_cli("verify", ref, claim, *small) in (0, 1)
        outputs.append([out.read_bytes(), metrics_path(out).read_bytes(),
                        capsys.readouterr().out.splitlines()[-1]])
    assert outputs[0] == outputs[1]
    assert outputs[0][2].startswith(("PASS", "FAIL"))


TABLE1_CONFIG = """\
[network]
w_opt = 2.0
iterations = 1000
seed = 42
ensemble = 100

[agent]
id = a
kind = cooperative
mu = 0.5
w0 = 0.0
input_mean = 0.0
input_sd = 0.09
noise_mean = 0.0
noise_sd = 0.03

[agent]
id = b
kind = cooperative
mu = 0.5
w0 = 1.0
input_mean = 0.0
input_sd = 0.09
noise_mean = 0.0
noise_sd = 0.03

[agent]
id = c
kind = standalone
mu = 0.5
w0 = 0.0
input_mean = 0.0
input_sd = 0.09
noise_mean = 0.0
noise_sd = 0.03
counterpart = a

[agent]
id = d
kind = standalone
mu = 0.5
w0 = 1.0
input_mean = 0.0
input_sd = 0.09
noise_mean = 0.0
noise_sd = 0.03
counterpart = b

[agent]
id = e
kind = averaging
sources = c,d

[trust]
a a 0.5
a b 0.5
b a 0.5
b b 0.5
c c 1.0
d d 1.0
"""


def test_serialized_table1_is_pinned():
    from dlms.scenarios import serialize

    assert serialize(builtin("table1")) == TABLE1_CONFIG


# table1 without twins, so that one agent's statistics can change alone
NO_TWINS = "".join(line for line in TABLE1_CONFIG.splitlines(True)
                   if not line.startswith("counterpart"))
# option, config key, agent (None for [network]), a good and a bad value
OVERRIDES = [
    ("--w-opt", "w_opt", None, "1.5", "1,,2"),
    ("--iterations", "iterations", None, "20", "2.0"),
    ("--seed", "seed", None, "7", "x"),
    ("--ensemble", "ensemble", None, "3", ""),
    ("--set", "mu", "a", "0.25", "fast"),
    ("--set", "w0", "b", "0.5", "0,"),
    ("--set", "input_mean", "a", "0.1", "nan0"),
    ("--set", "input_sd", "b", "0.2", "-0.2"),
    ("--set", "noise_mean", "a", "-0.1", "0x10"),
    ("--set", "noise_sd", "b", "0.05", "-1"),
    ("--set", "counterpart", "c", "a", None),
]


def config_with(key, agent, value):
    """NO_TWINS with ``key = value`` in [network], or in the section of ``agent``."""
    lines = NO_TWINS.splitlines()
    start = lines.index("[network]" if agent is None else f"id = {agent}")
    end = lines.index("", start)
    lines[start:end] = [line for line in lines[start:end]
                        if not line.startswith(f"{key} =")] + [f"{key} = {value}"]
    return "\n".join(lines) + "\n"


def override(option, key, agent, value):
    return [option, value if agent is None else f"{agent}.{key}={value}"]


def test_every_config_key_has_an_override():
    from dlms.scenarios import AGENT_FIELDS, NETWORK_FIELDS

    assert [key for _, key, *_ in OVERRIDES] == [*NETWORK_FIELDS, *AGENT_FIELDS]


@pytest.mark.parametrize("option, key, agent, good, bad", OVERRIDES)
def test_an_override_builds_what_its_config_key_builds(tmp_path, option, key, agent,
                                                       good, bad):
    from dlms.cli import apply_overrides, build_parser, load_scenario
    from dlms.scenarios import parse

    cfg = tmp_path / "s.cfg"
    cfg.write_text(NO_TWINS)
    args = build_parser().parse_args(["run", str(cfg), "--out", "x.csv",
                                      *override(option, key, agent, good)])
    expected = parse(config_with(key, agent, good))
    assert expected != parse(NO_TWINS)
    assert apply_overrides(load_scenario(str(cfg)), args) == expected


@pytest.mark.parametrize("option, key, agent, good, bad",
                         [case for case in OVERRIDES if case[-1] is not None])
def test_a_bad_override_value_names_its_option(tmp_path, capsys, option, key, agent,
                                               good, bad):
    argv = override(option, key, agent, bad)
    assert run_cli("run", "table1", *argv, "--out", str(tmp_path / "x.csv")) == 2
    where = option if agent is None else f"--set {argv[1]!r}"
    assert capsys.readouterr().err == (
        f"config error: {where}: invalid {key} value {bad!r}\n")


@pytest.mark.parametrize("config, override, error", [
    (TABLE1_CONFIG.replace("a b 0.5", "a b 0.6"), "trust.a.b=0.5",
     "error: trust row sum 1.1 != 1 in row 0\n"),
    (config_with("mu", "a", "fast"), "a.mu=0.5",
     "config error: line 15: invalid mu value 'fast'\n"),
], ids=["trust", "mu"])
def test_a_config_file_is_validated_after_its_overrides(tmp_path, capsys, config,
                                                        override, error):
    """An override replaces a bad value of the file before anything checks
    it; without the override the file's error stands, naming its line."""
    cfg = tmp_path / "s.cfg"
    cfg.write_text(config)
    argv = ["run", str(cfg), *SMALL, "--out", str(tmp_path / "x.csv")]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == error
    assert run_cli(*argv, "--set", override) == 0


def test_an_agent_section_without_id_is_reported_at_its_line(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(TABLE1_CONFIG.replace("id = e\n", ""))
    header = TABLE1_CONFIG.splitlines().index("id = e")  # the line before, from 1
    assert run_cli("run", str(cfg), "--set", "a.mu=0.25",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == (
        f"config error: line {header}: agent section missing id\n")


class TestVerify:
    def test_speedup_passes_on_heterogeneous_mu(self, capsys):
        assert run_cli("verify", "table2", "speedup", "--ensemble", "20") == 0
        assert "PASS" in capsys.readouterr().out

    def test_speedup_incompatible_scenario(self, capsys):
        assert run_cli("verify", "table1", "speedup") == 2
        assert "heterogeneous" in capsys.readouterr().err

    def test_delay_needs_selfish_trust(self, capsys):
        assert run_cli("verify", "table4", "delay") == 2
        assert "selfish" in capsys.readouterr().err

    def test_delay_passes_with_selfish_override(self):
        assert run_cli("verify", "table1", "delay", "--ensemble", "20",
                       "--iterations", "200",
                       "--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
                       "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1") == 0

    def test_delay_counts_a_run_that_never_merges_as_merging_after_the_horizon(
            self, capsys):
        # no selfish run merges within 1 iteration; every balanced run does
        assert run_cli("verify", "table1", "delay", "--iterations", "1",
                       "--ensemble", "3",
                       "--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
                       "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1") == 0
        assert capsys.readouterr().out == (
            "PASS delay: win_fraction=1.0, required=0.9, "
            "median_selfish_merge=2, median_balanced_merge=1\n")

    def test_stabilize_passes_on_table5(self):
        assert run_cli("verify", "table5", "stabilize", "--ensemble", "20") == 0

    @pytest.mark.parametrize("name, claim, w_opt", [("table1", "merge", "0.5"),
                                                    ("table2", "speedup", "0")])
    def test_band_undefined_at_mean_w0(self, capsys, name, claim, w_opt):
        # the adaptive agents' mean w0 equals w_opt: no band to measure against
        assert run_cli("verify", name, claim, "--w-opt", w_opt, *SMALL) == 2
        assert "band undefined" in capsys.readouterr().err

    def test_delay_needs_a_nonzero_w_opt(self, capsys):
        # the merge band is 1% of |w_opt|: at w_opt = 0 no run could merge
        with mock.patch("dlms.engine._simulate") as simulate:
            assert run_cli("verify", "table1", "delay", "--w-opt", "0",
                           "--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
                           "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1") == 2
        simulate.assert_not_called()
        assert capsys.readouterr().err == (
            "error: delay claim needs a nonzero w_opt: its merge band is 1% of |w_opt|\n")

    def test_merge_needs_its_start_iteration(self, capsys):
        with mock.patch("dlms.engine._simulate") as simulate:
            assert run_cli("verify", "table1", "merge", "--iterations", "9",
                           "--ensemble", "4") == 2
        simulate.assert_not_called()
        assert capsys.readouterr().err == (
            "error: merge claim needs iterations >= 10, got 9\n")
        assert run_cli("verify", "table1", "merge", "--iterations", "10",
                       "--ensemble", "4") == 0

    def test_stabilize_needs_a_steady_state_window(self, capsys):
        assert run_cli("verify", "table5", "stabilize", "--iterations", "5",
                       "--ensemble", "2") == 2
        assert capsys.readouterr().err == (
            "error: steady-state variance needs iterations >= 6, got 5\n")
        assert run_cli("verify", "table5", "stabilize", "--iterations", "6",
                       "--ensemble", "2") in (0, 1)

    def test_band_that_overflows_is_a_divergence(self, capsys):
        # the band's squared distance is inf, not an OverflowError; the
        # estimate at 1e155 then diverges in the first iteration
        assert run_cli("verify", "table1", "merge", "--ensemble", "2",
                       "--iterations", "20", "--set", "a.w0=1e155") == 3
        assert capsys.readouterr().err.startswith(
            "error: divergence at run 0, iteration 1, agent a:")

    @pytest.mark.parametrize("name, claim, overrides", [
        ("table1", "merge", ()), ("table2", "speedup", ()),
        ("table1", "delay", ("--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
                             "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1")),
        ("table5", "stabilize", ())])
    def test_claim_details_are_plain_python(self, name, claim, overrides):
        from dlms.cli import apply_overrides, build_parser, load_scenario

        args = build_parser().parse_args(["verify", name, claim, "--ensemble", "4",
                                          "--iterations", "100", *overrides])
        details = verify_claim(apply_overrides(load_scenario(name), args), claim).details
        assert {type(v) for v in details.values()} <= {int, float, str}, details

    def test_merge_passes_on_table1(self):
        assert run_cli("verify", "table1", "merge", "--ensemble", "10") == 0

    def test_fail_exit_code(self, capsys):
        # freezing b and d pins the averaging reference near 1.5 while the
        # cooperative pair still reaches the target: the gap check must fail
        code = run_cli("verify", "table1", "merge", "--ensemble", "5",
                       "--iterations", "2000",
                       "--set", "b.mu=0", "--set", "d.mu=0")
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
