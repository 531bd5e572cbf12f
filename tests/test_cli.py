import csv
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from dlms.cli import error_path, main, metrics_path, write_trajectories
from dlms.errors import DivergenceError
from dlms.scenarios import run
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
        write_trajectories(ours, scenario, record)
        oracle.write_trajectories(ref, scenario, record)
        assert ours.read_bytes() == ref.read_bytes()


def test_metrics_csv_has_convergence_iters(tmp_path):
    out = tmp_path / "t2.csv"
    assert run_cli("run", "table2", "--ensemble", "10", "--out", str(out)) == 0
    with open(metrics_path(out), newline="") as fh:
        rows = list(csv.DictReader(fh))
    conv = {r["agent"]: r["value"] for r in rows
            if r["metric"] == "convergence_iter"}
    for aid in ("a", "b", "e"):
        assert conv[aid] != ""


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert run_cli("run", "missing.cfg", "--out", str(tmp_path / "x.csv")) == 2
    assert "missing.cfg" in capsys.readouterr().err
    assert run_cli("run", str(tmp_path), "--out", str(tmp_path / "x.csv")) == 2
    assert f"cannot read config file {tmp_path}" in capsys.readouterr().err


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
                                         ("a_dir", "Is a directory")])
def test_unwritable_out_is_usage_error(tmp_path, capsys, out, reason):
    (tmp_path / "a_dir").mkdir()
    out = tmp_path / out
    assert run_cli("run", "table1", *SMALL, "--out", str(out)) == 2
    assert f"error: cannot write {out}: {reason}" in capsys.readouterr().err


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
    assert b"config file bad.cfg is not UTF-8 text: byte 12 (0xff)" in result.stderr


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


@pytest.mark.parametrize("argv", [("run", "table1", "--out", "x.csv"),
                                  ("verify", "table1", "merge")])
def test_scenario_too_large_for_memory_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the record alone needs 355 PiB, so the allocation fails at once
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--iterations", "99999999999999") == 2
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
        with mock.patch("dlms.engine.run_ensemble") as simulate:
            assert run_cli("verify", "table1", "delay", "--w-opt", "0",
                           "--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
                           "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1") == 2
        simulate.assert_not_called()
        assert capsys.readouterr().err == (
            "error: delay claim needs a nonzero w_opt: its merge band is 1% of |w_opt|\n")

    def test_merge_needs_its_start_iteration(self, capsys):
        with mock.patch("dlms.claims.run") as simulate:
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
