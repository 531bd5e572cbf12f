import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dlms.cli import main, metrics_path


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


def test_invalid_override_is_usage_error(tmp_path):
    assert run_cli("run", "table1", "--set", "a.noise_sd=-1",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert run_cli("run", "table1", "--set", "nobody.mu=0.1",
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


def test_agent_id_that_breaks_the_format_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "dotted.cfg"
    cfg.write_text("[network]\niterations = 5\nensemble = 1\n"
                   "[agent]\nid = x.y\nkind = standalone\nw0 = 0\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
    assert "agent id 'x.y'" in capsys.readouterr().err


def test_trust_override(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("run", "table1", "--iterations", "5", "--ensemble", "1",
                   "--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
                   "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1",
                   "--out", str(out)) == 0
    # an inconsistent row fails validation
    assert run_cli("run", "table1", "--set", "trust.a.a=0.9",
                   "--out", str(out)) == 2


def test_divergence_exit_code_and_manifest(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = run_cli("run", "table1", "--iterations", "5000", "--ensemble", "1",
                   "--set", "a.mu=2.5", "--set", "c.mu=2.5",
                   "--set", "a.input_sd=1.0", "--set", "b.input_sd=1.0",
                   "--set", "c.input_sd=1.0", "--set", "d.input_sd=1.0",
                   "--out", str(out))
    assert code == 3
    manifest = out.with_name(out.stem + ".error.json")
    assert manifest.exists()
    assert "divergence" in manifest.read_text()


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

    def test_stabilize_passes_on_table5(self):
        assert run_cli("verify", "table5", "stabilize", "--ensemble", "20") == 0

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
