"""Committed mutation checks: each row breaks the program on purpose, and the
tests it names must then fail.

Usage, from the root of a source checkout:

    python tests/mutants.py            # every row
    python tests/mutants.py 3 7        # rows 3 and 7 (numbers from --list)
    python tests/mutants.py --list

For each row the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, replaces the row's exact text, which must occur
exactly once in its file, and runs only the row's tests there. A mutant is
killed when every test it names fails (a parametrized test fails when any
of its cases does). A row marked equivalent must survive: no test can kill
it, and its entry says why. The script exits 1 if a mutant survives that
should be killed, an equivalent one is killed, or a row's text no longer
occurs once, so that a refactor updates the table instead of dropping a
mutant. pytest does not collect this file. A test this table names that is
moved, renamed or rewritten should be run through it again.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple
    source: str  # where the mutant was first recorded (CHANGES.md)
    equivalent: str = ""  # why no test can kill it, for a mutant that must survive


_WRITER = "the CSV writers' pieces from arrays"
_ENDS = "the trajectory writer's 32-byte fields and one-product interval ends"
_BORROW = "dist_opt from the record; the lower end's borrow"
_LAYOUT = "tests/test_cli.py::test_trajectory_writer_lays_out_every_float_like_the_oracle"
_EDGES = "tests/test_cli.py::test_trajectory_writer_dist_opt_at_the_edges_like_the_oracle"
_METRICS = "tests/test_cli.py::test_metrics_writer_matches_oracle"
_BULK_ENDS = "tests/test_floatfmt.py::test_interval_ends_from_one_product_on_bulk_values"
_BULK_REPR = "tests/test_floatfmt.py::test_bulk_values_read_as_repr"
_BORROW_TEST = "tests/test_floatfmt.py::test_lower_end_borrow_doubles"

MUTANTS = [
    Mutant("src/dlms/cli.py", "np.arange((len(str(iterations)) - 1) // 4, -1, -1)",
           "np.arange((len(str(iterations)) - 2) // 4, -1, -1)", (_METRICS,),
           _WRITER + ": the iteration numbers of five digits a group of four short"),
    Mutant("src/dlms/cli.py", "words = slice(-(-head // 4), -(-head // 4) + len(groups))",
           "words = slice(head // 4, head // 4 + len(groups))",
           (_METRICS, "tests/test_cli.py::test_trajectory_writer_in_small_pieces_matches_oracle",
            "tests/test_golden.py"),
           _WRITER + ": the iteration's words not rounded up past the head"),
    Mutant("src/dlms/cli.py", 'LEADING4.take(quotients, mode="clip")', "LEADING4[-1]",
           (_METRICS, _LAYOUT, "tests/test_golden.py"),
           _WRITER + ": the iteration numbers' leading zeros kept"),
    Mutant("src/dlms/cli.py", 'LEADING4.take(quotients, mode="clip")',
           'LEADING4.take(quotients, mode="wrap")', (_METRICS,),
           _WRITER + ": the zeros of a number's lower groups dropped"),
    Mutant("src/dlms/cli.py",
           "order = sorted(range(len(record.agents)), key=record.agents.__getitem__)",
           "order = list(range(len(record.agents)))",
           (_LAYOUT, _EDGES), _WRITER + ": the trajectory rows in record order, not by id"),
    Mutant("src/dlms/scenarios.py", "ids = sorted(sums.agents)", "ids = list(sums.agents)",
           (_METRICS,), _WRITER + ": the MSD columns in record order, not by id"),
    Mutant("src/dlms/cli.py", "for i, j in zip(*np.nonzero(left)) if left.any() else ():",
           "for i, j in ():",
           (_LAYOUT, _EDGES,
            "tests/test_cli.py::test_metrics_writer_writes_an_overflowing_msd_like_the_oracle"),
           _WRITER + ": no repr for subnormals, infinities and nans"),
    Mutant("src/dlms/floatfmt.py", "i = (bq << 1) | (t == 0)", "i = bq << 1",
           (_BULK_ENDS, _BULK_REPR), _ENDS + ": no narrow-interval index"),
    Mutant("src/dlms/floatfmt.py", "return kk + _K_MIN, vb | ((fl + _M63) >> _U(63)), vbl, vbr",
           "return kk + _K_MIN, vb, vbl, vbr",
           (_BULK_ENDS, _BULK_REPR), _ENDS + ": no sticky bit on vb"),
    Mutant("src/dlms/floatfmt.py", "vbr = (vb + uq.take(i) + (mid >> _U(63)))",
           "vbr = (vb + uq.take(i))", (_BULK_ENDS, _BULK_REPR),
           _ENDS + ": no bit-63 carry into the upper end"),
    Mutant("src/dlms/floatfmt.py", "vbl = (vb - lq.take(i) - (mid >> _U(63)))",
           "vbl = (vb - lq.take(i))", (_BULK_ENDS, _BULK_REPR),
           _ENDS + ": no bit-63 borrow from the lower end"),
    Mutant("src/dlms/floatfmt.py", "shifted(h + _U(1) - narrow.ravel().astype(np.uint64))",
           "shifted(h + _U(1))", (_BULK_ENDS, _BULK_REPR), _ENDS + ": no narrow lower end"),
    Mutant("src/dlms/floatfmt.py", "mid = fl + uh.take(i) + ((low + ul.take(i)) < low)",
           "mid = fl + uh.take(i)", (_BULK_ENDS, _BULK_REPR),
           _ENDS + ": no carry from the low word into the upper end"),
    Mutant("src/dlms/floatfmt.py", "mid = fl - lh.take(i) - (low < ll.take(i))",
           "mid = fl - lh.take(i)", (_BORROW_TEST,),
           _BORROW + ": no borrow from the low word"),
    Mutant("src/dlms/floatfmt.py", "(low < ll.take(i))", "(low + _U(1) < ll.take(i))",
           (_BORROW_TEST, _BULK_ENDS, _BULK_REPR), _BORROW + ": low + 1",
           equivalent="low and ll are multiples of 2^(h+1), so low + 1 < ll is low < ll"),
]


def _failed(output):
    """The node ids that pytest's ``-rf`` summary reports as failed."""
    return [m.group(1) for m in re.finditer(r"^FAILED (\S+)", output, re.M)]


def check(mutant, workdir):
    """``(verdict, detail)``: killed, survived or error for one mutant."""
    shutil.rmtree(workdir, ignore_errors=True)
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", workdir)
    path = workdir / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "error", f"the text occurs {text.count(mutant.old)} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests],
        cwd=workdir, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):
        return "error", f"pytest exited {result.returncode}: {result.stdout[-500:]}"
    failed = _failed(result.stdout)
    passed = [t for t in mutant.tests
              if not any(f == t or f.startswith(t + "[") or f.startswith(t + "::")
                         for f in failed)]
    if not passed:
        return "killed", ""
    return "survived", "passing: " + ", ".join(passed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="*", type=int, help="row numbers (default: all)")
    parser.add_argument("--list", action="store_true", help="list the rows and exit")
    args = parser.parse_args(argv)
    rows = args.rows or range(1, len(MUTANTS) + 1)
    if args.list:
        for n, mutant in enumerate(MUTANTS, 1):
            print(f"{n:2d}  {mutant.file}  {mutant.source}")
        return 0
    bad = 0
    with tempfile.TemporaryDirectory(prefix="dlms-mutants-") as tmp:
        for n in rows:
            mutant = MUTANTS[n - 1]
            start = time.perf_counter()
            verdict, detail = check(mutant, Path(tmp) / "tree")
            expected = "survived" if mutant.equivalent else "killed"
            ok = verdict == expected
            bad += not ok
            note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
            seconds = time.perf_counter() - start
            print(f"{n:2d} {verdict:8s} {'ok' if ok else 'FAIL'}  {seconds:5.1f} s  "
                  f"{mutant.file}: {mutant.source}{note}{'  ' + detail if detail else ''}",
                  flush=True)
    print(f"{len(rows) - bad} of {len(rows)} rows as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
