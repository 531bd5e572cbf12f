"""The benchmark's per-layer spans still see the code they time.

perfbench/traced.py wraps the functions named in its TARGETS and skips a
name that no longer exists, which then reports zero calls. So moving or
renaming a timed function would silently zero its per-layer number. Three
small commands that together call every live target run under traced.py
here, each in its own process, and every live target must make a call.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# the TARGETS of perfbench/traced.py that the benchmark's commands call
LIVE = (
    "prng.derive_seed",
    "scenarios.compute_report",
    "metrics.steady_state_variance",
    "metrics.convergence_iteration",
    "metrics.crossing_iteration",
    "claims.verify_claim",
    "claims.merge_iteration",
    "cli.write_trajectories",
    "cli.write_metrics",
    "cli.load_scenario",
    "cli.apply_overrides",
)

SELFISH = ("--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
           "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1")


def _spans():
    """perfbench/spans.py, loaded without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_live_target_makes_calls(tmp_path):
    spans = _spans()
    commands = [
        ("run", "table1", "--ensemble", "2", "--iterations", "20",
         "--out", str(tmp_path / "t.csv")),
        ("verify", "table1", "delay", *SELFISH, "--ensemble", "4", "--iterations", "40"),
        ("verify", "perfbench/long_horizon.cfg", "stabilize", "--iterations", "200"),
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    calls = {}
    for n, argv in enumerate(commands):
        out = tmp_path / f"spans{n}.bin"
        result = subprocess.run([sys.executable, str(PERFBENCH / "traced.py"), str(out), *argv],
                                cwd=ROOT, env=env, capture_output=True, text=True)
        assert result.returncode in (0, 1), result.stderr
        for name, (count, _) in spans.summarize(spans.load(out)).items():
            calls[name] = calls.get(name, 0) + count
    assert {name for name in LIVE if not calls.get(name)} == set()
