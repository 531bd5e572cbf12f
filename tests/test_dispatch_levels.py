"""The pinned outputs at every numpy SIMD dispatch level this host has.

numpy picks the kernels of its ufuncs at import from the CPU's features:
its baseline, then each dispatch target of
``numpy._core._multiarray_umath.__cpu_dispatch__`` that the CPU supports.
Its ``NPY_DISABLE_CPU_FEATURES`` environment variable switches targets off
for one process, so one host can run every level it has: all targets on,
then each target off together with every target above it. Each level runs
in a child process that writes the pinned CSVs of a small ``dlms run`` at
M = 1 and M = 4 and prints the pinned line of ``dlms verify table1 delay``
(perfbench's verify_delay workload), so the engine's loop, the signals'
``gaussian_block`` and the claims are checked with the kernels of that
level. On a host with no dispatch target the baseline is the only level,
and its id says so.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath

from test_golden import REDUCED
from test_pinned_outputs import LONG_HORIZON, LONG_HORIZON_DIGESTS

TARGETS = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
# the targets each level switches off: none, then the top one, the top two, ...
LEVELS = [TARGETS[k:] for k in range(len(TARGETS), -1, -1)]
DELAY = ("PASS delay: win_fraction=1.0, required=0.9, "
         "median_selfish_merge=18, median_balanced_merge=1")

CHILD = """\
import hashlib, sys
from numpy._core import _multiarray_umath as umath
from dlms.cli import main, metrics_path
print(" ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)))
for out, *argv in (("t1.csv", "table1", "--ensemble", "4", "--iterations", "250"),
                   ("lh.csv", sys.argv[1], "--ensemble", "3", "--iterations", "300")):
    assert main(["run", *argv, "--out", out]) == 0
    print(*(hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (out, metrics_path(out))))
sys.exit(main(["verify", "table1", "delay", "--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
               "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1"]))
"""


def _level_id(off):
    if not TARGETS:
        return "baseline-only-no-dispatch-target"
    return "no-" + "-".join(off) if off else "all-targets"


@pytest.mark.parametrize("off", LEVELS, ids=map(_level_id, LEVELS))
def test_pinned_outputs_at_dispatch_level(tmp_path, off):
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if off:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(off)
    result = subprocess.run([sys.executable, "-c", CHILD, str(LONG_HORIZON)], cwd=tmp_path,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        " ".join(t for t in TARGETS if t not in off),
        "wrote t1.csv and t1.metrics.csv", " ".join(REDUCED["table1"]),
        "wrote lh.csv and lh.metrics.csv", " ".join(LONG_HORIZON_DIGESTS), DELAY]
