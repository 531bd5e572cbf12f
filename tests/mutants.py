"""Committed mutation checks: each row breaks the program on purpose, and the
tests it names must then fail.

Usage, from the root of a source checkout:

    python tests/mutants.py            # every row
    python tests/mutants.py 3 7        # rows 3 and 7 (numbers from --list)
    python tests/mutants.py --list

For each row the script copies ``src/``, ``tests/``, ``perfbench/`` (whose
config some tests read) and ``pyproject.toml`` to a temporary directory,
replaces the row's exact text, which must occur exactly once in its file,
and runs only the row's tests there. A mutant is killed when every test it
names fails (a parametrized test fails when any of its cases does). A row
marked equivalent must survive: every test it names passes, and its entry
says why no test can kill it. The script exits 1 if a mutant survives that
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
_ENGINE = "one vectorized CTA ensemble engine (rows rebuilt on today's lines)"
_LOGS = "Box-Muller logarithms without a Python float per value"
_CALLS = "narrow ensembles without numpy's per-call overhead"
_LIBM = "one owner for libm's bits"
_ORACLE = "tests/test_engine.py::test_builtins_match_oracle"
_SIGNED = "tests/test_engine.py::test_signed_zeros_match_oracle"
_SIGNALS = "tests/test_engine.py::test_signals_are_the_oracle_samples_of_each_column_owner"
_TWINS = "tests/test_engine.py::test_twins_before_and_beside_their_owners_match_oracle"
_STREAM = "tests/test_prng.py::test_gaussian_block_is_the_stream_bit_for_bit"
_GOLDEN = "tests/test_golden.py::test_reduced_builtin_digests"
_LOG_BITS = "tests/test_log_bits.py::"
_OWNERS = "one owner each for the engine's record and the steady-state window"
_EXIT = "the program freezes its heap before it exits; windows a batch of runs at a time"
_PATHS = "one path in and one path out for dlms run"
_ONCE = "the squaring batch and the merge band, each stated once"
_PREDICTION = ("a prediction folded from -0.0 or from t0 differs from one folded from 0.0 "
               "only in a zero's sign, and a target y is never -0.0, so y - 0.0 is "
               "y - -0.0 (engine docstring)")
_FOLD = "the CTA loop folds with plain adds, its views made once"
_SHARE = "the delay pair simulates each agent it shares once"
_DRAW = "gaussian_block works in place on its output"
_BATCH = "sq_dist squares a batch of runs per call"
_DENSE = "tests/test_engine.py::test_dense_trio_with_twins_matches_oracle"
_PAIR = "tests/test_engine.py::test_pair_shares_the_agents_whose_rows_are_the_identity_in_both"

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
    Mutant("src/dlms/libm.py", "return _kept(d, lo, 0.47 * 2.0**-52, scratch)",
           "return _kept(d, lo, 0.5 * 2.0**-52, scratch)",
           (_LOG_BITS + "test_residuals_near_the_cut", _LOG_BITS + "test_seeded_uniforms",
            _STREAM),
           _LOGS + ": the log cut at 0.5 ulp, not 0.47"),
    Mutant("src/dlms/libm.py",
           "    kept &= np.bitwise_and(bits, _SIGNIFICAND, out=scratch) != 0\n", "",
           (_LOG_BITS + "test_powers_of_two",
                "tests/test_pow_bits.py::test_significands_next_to_one_root_two_and_two"),
           _LOGS + ": no power-of-two test in _kept"),
    Mutant("src/dlms/libm.py",
           "return glibc, glibc and np.finfo(np.longdouble).nmant == 63", "return True, True",
           (_LOG_BITS + "test_detection_needs_glibc_2_28",
            _LOG_BITS + "test_detection_needs_a_64_bit_significand",
            _LOG_BITS + "test_another_platform_keeps_the_goldens"),
           _LOGS + ": the premises always hold"),
    Mutant("src/dlms/libm.py", "rounded if _premises()[1] else None", "rounded",
           (_LOG_BITS + "test_another_platform_calls_log_on_every_value",
            _LOG_BITS + "test_a_52_bit_long_double_turns_off_only_the_logarithms"),
           _LOGS + ": logs ignores the premise"),
    Mutant("src/dlms/engine.py", "multiply(coef, take(index, 0), terms)",
           "multiply(terms, take(index, 0), coef)", (_ORACLE,),
           _CALLS + ": coef and terms swapped"),
    Mutant("src/dlms/engine.py", "add(psi, t, psi)", "add(psi, t, t)", (_ORACLE,),
           _FOLD + ": the combine's sum written into the later term"),
    Mutant("src/dlms/engine.py", "multiply(psi, xi, products)", "multiply(products, xi, psi)",
           (_ORACLE,), _CALLS + ": psi and products swapped"),
    Mutant("src/dlms/engine.py", "add(pred, p, pred)", "add(pred, p, p)", (_DENSE,),
           _FOLD + ": the prediction's sum written into the later product"),
    Mutant("src/dlms/engine.py", "subtract(yi, pred, pred)", "subtract(pred, yi, pred)",
           (_ORACLE,), _CALLS + ": subtract's inputs swapped"),
    Mutant("src/dlms/engine.py", "subtract(yi, pred, pred)", "subtract(yi, pred, yi)",
           (_ORACLE,), _CALLS + ": the error written into the targets"),
    Mutant("src/dlms/engine.py", "multiply(mu, pred, mu_e)", "multiply(mu_e, pred, mu)",
           (_ORACLE,), _CALLS + ": mu and mu_e swapped"),
    Mutant("src/dlms/engine.py", "multiply(mu_e, xi, step)", "multiply(step, xi, mu_e)",
           (_ORACLE,), _CALLS + ": mu_e and step swapped"),
    Mutant("src/dlms/engine.py", "multiply(mu_e, xi, step)", "multiply(mu_e, step, xi)",
           (_ORACLE,), _CALLS + ": xi and step swapped"),
    Mutant("src/dlms/engine.py", "add(psi, step, w)", "add(w, step, psi)", (_ORACLE,),
           _CALLS + ": psi and w swapped"),
    Mutant("src/dlms/engine.py", "multiply(coef, take(index, 0), terms)\n",
           "multiply(coef, take(index, 0), terms)\n                add(psi, 0.0, psi)\n",
           (_SIGNED,), _FOLD + ": the combine folded from +0.0"),
    Mutant("src/dlms/engine.py", "multiply(coef, take(index, 0), terms)\n",
           "multiply(coef, take(index, 0), terms)\n                add(psi, -0.0, psi)\n",
           (_SIGNED, _ORACLE), _FOLD + ": the combine folded from -0.0",
           equivalent="-0.0 + t0 is t0 bit for bit for every double t0"),
    Mutant("src/dlms/engine.py", "psi, later_terms = terms[0], list(terms[1:])",
           "psi, later_terms = terms[0], list(terms[1:-1])", (_ORACLE,),
           _FOLD + ": the combine drops its last term"),
    Mutant("src/dlms/engine.py", "multiply(psi, xi, products)\n",
           "multiply(psi, xi, products)\n                add(pred, 0.0, pred)\n",
           ("tests/test_engine.py", "tests/test_pinned_outputs.py", _GOLDEN),
           _FOLD + ": the prediction folded from +0.0, as the reference folds it",
           equivalent=_PREDICTION),
    Mutant("src/dlms/engine.py", "multiply(psi, xi, products)\n",
           "multiply(psi, xi, products)\n                add(pred, -0.0, pred)\n",
           ("tests/test_engine.py", "tests/test_pinned_outputs.py", _GOLDEN),
           _FOLD + ": the prediction folded from -0.0", equivalent=_PREDICTION),
    Mutant("src/dlms/libm.py", "_square_is_xx if _premises()[0] else None", "_square_is_xx",
           (_LOG_BITS + "test_another_platform_calls_pow_on_every_value",
            _LOG_BITS + "test_another_platform_keeps_the_goldens"),
           _LIBM + ": square ignores the premise"),
    Mutant("src/dlms/libm.py", "return ok & _premises()[0]", "return ok",
           (_LOG_BITS + "test_another_platform_calls_pow_on_every_value",),
           _LIBM + ": root_square_is_abs ignores the premise"),
    Mutant("src/dlms/libm.py", "_square_is_xx if _premises()[0] else None",
           "_square_is_xx if _premises()[1] else None",
           (_LOG_BITS + "test_a_52_bit_long_double_turns_off_only_the_logarithms",),
           _LIBM + ": square keyed on the log premise"),
    Mutant("src/dlms/prng.py", "np.cos(second, out=first)", "np.sin(second, out=first)",
           (_STREAM, _ORACLE), _ENGINE + ": sin for cos"),
    Mutant("src/dlms/prng.py", "np.sin(second, out=second)", "np.sin(second, out=first)",
           (_STREAM, _ORACLE), _DRAW + ": the sine written into the cosine slots"),
    Mutant("src/dlms/prng.py", "    z += np.uint64(1)\n", "", (_STREAM, _ORACLE),
           _ENGINE + ": uniforms in [0, 1), not (0, 1]"),
    Mutant("src/dlms/prng.py", "steps = np.arange(start + 1, start + 2 * pairs + 1,",
           "steps = np.arange(start, start + 2 * pairs,", (_STREAM, _ORACLE),
           _ENGINE + ": the stream one output early"),
    Mutant("src/dlms/prng.py", "return _mix((base + (index + 1) * _GAMMA) & _MASK64)",
           "return _mix((base + index * _GAMMA) & _MASK64)",
           ("tests/test_prng.py::test_derive_seed_is_the_next_output_of_the_base_stream", _GOLDEN),
           _ENGINE + ": a child seed one output early"),
    Mutant("src/dlms/prng.py", "    r *= -2.0\n", "    r *= 2.0\n    np.negative(r, out=r)\n",
           (_STREAM, _GOLDEN), _ENGINE + ": -(2 log u) for -2 log u",
           equivalent="doubling and negation are exact, so both orders give one double"),
    Mutant("src/dlms/engine.py", "derive_seed(scenario.seed ^ k, owner)",
           "derive_seed(scenario.seed + k, owner)",
           (_ORACLE, "tests/test_scenarios.py::test_run_single_seeding_is_documented_mix"),
           _ENGINE + ": run k seeded from seed + k, not seed XOR k"),
    Mutant("src/dlms/engine.py", "total /= len(rest) + 1", "total /= len(rest) + 2", (_ORACLE,),
           _ENGINE + ": the average over one source too many"),
    Mutant("src/dlms/engine.py", "        xo *= cfg.input.sd\n        xo += cfg.input.mean\n",
           "        xo += cfg.input.mean\n        xo *= cfg.input.sd\n", (_SIGNALS, _TWINS),
           _ENGINE + ": the input shifted before it is scaled"),
    Mutant("src/dlms/engine.py", "yo += cfg.noise.mean + cfg.noise.sd * z[:, :, m]",
           "yo += cfg.noise.sd * z[:, :, m]", (_SIGNALS, _TWINS),
           _ENGINE + ": no noise mean"),
    Mutant("src/dlms/engine.py", "block = max(2, _CHUNK_DRAWS // (n * r * (m + 1)) // 2 * 2)",
           "block = max(2, _CHUNK_DRAWS // (n * r * (m + 1)))", (_DENSE,),
           _ENGINE + ": blocks that start inside a Box-Muller pair"),
    Mutant("src/dlms/engine.py", "                if hit[k].any() and k < failed:",
           "                if hit[k].any():",
           ("tests/test_engine.py::test_divergence_is_that_of_separate_runs_in_variant_order",
            "tests/test_engine.py::test_divergence_in_a_later_block_of_the_scan_matches_oracle"),
           _ENGINE + ": a later block's divergence replaces an earlier run's"),
    Mutant("src/dlms/engine.py", "error.completed = record.head(failed)",
           "error.completed = record.head(failed + 1)",
           ("tests/test_engine.py::test_divergence_matches_oracle",
            "tests/test_engine.py::test_divergent_cli_outputs_match_oracle"),
           _OWNERS + ": the divergent run among the completed ones"),
    Mutant("src/dlms/metrics.py", "if length - first < 2:", "if length - first < 1:",
           ("tests/test_metrics.py::TestSteadyStateVariance::test_window_too_short",
            "tests/test_cli.py::TestVerify::test_stabilize_needs_a_steady_state_window",
            "tests/test_cli.py::test_config_error_names_its_field"),
           _OWNERS + ": a steady-state window of one iteration"),
    Mutant("src/dlms/cli.py", "        if program:\n            gc.freeze()",
           "        gc.freeze()",
           ("tests/test_cli.py::test_main_with_argv_leaves_the_callers_gc_as_it_was",),
           _EXIT + ": an in-process caller's heap frozen too"),
    Mutant("src/dlms/cli.py", "            gc.freeze()", "            pass",
           ("tests/test_cli.py::test_program_freezes_its_heap_before_it_exits",),
           _EXIT + ": no freeze"),
    Mutant("src/dlms/metrics.py", "window = windows[r:r + step]",
           "window = windows[r:r + step - 1]",
           ("tests/test_metrics.py::TestSteadyStateVariance::"
            "test_batches_of_runs_are_the_per_run_fold",),
           _EXIT + ": a batch one run short"),
    Mutant("src/dlms/cli.py", "if path.is_dir() and not path.is_symlink():", "if False:",
           ("tests/test_cli.py::"
            "test_a_directory_at_an_output_leaves_earlier_outputs_as_they_were",),
           _PATHS + ": no check for a directory in the way before the first rename"),
    Mutant("src/dlms/cli.py", "(out, manifest) if exc.run else (manifest,)", "(out, manifest)",
           ("tests/test_cli.py::test_divergence_in_the_first_run_removes_earlier_outputs",),
           _PATHS + ": a divergence in run 0 keeps a CSV of no runs"),
    Mutant("src/dlms/cli.py", "suppress(FileNotFoundError, NotADirectoryError)",
           "suppress(FileNotFoundError)",
           ("tests/test_cli.py::test_unwritable_out_is_usage_error",),
           _PATHS + ": the cleanup of a sibling under a file raises"),
    Mutant("src/dlms/scenarios.py", "for b, coeff in enumerate(row) if coeff != 0.0)]",
           "for b, coeff in enumerate(row) if False)]",
           ("tests/test_cli.py::test_serialized_table1_is_pinned",),
           _PATHS + ": serialize drops the [trust] lines"),
    Mutant("src/dlms/scenarios.py", 'if hasattr(value, "__iter__"):',
           "if isinstance(value, tuple):",
           ("tests/test_scenarios.py::TestConfigFormat::"
            "test_sequence_fields_of_any_type_serialize_as_tuples",),
           _PATHS + ": _text joins only tuples"),
    Mutant("src/dlms/metrics.py",
           "step = max(1, SQUARE_BLOCK // max(1, math.prod(self.ws.shape[2:])))",
           "step = 1 + SQUARE_BLOCK // max(1, math.prod(self.ws.shape[2:]))",
           ("tests/test_metrics.py::TestReductionOrder::"
            "test_square_gets_at_most_a_block_at_a_time",),
           _ONCE + ": sq_dist's pieces an iteration past the block"),
    Mutant("src/dlms/claims.py",
           "scenario.trust.is_identity_row(b) and other.trust.is_identity_row(b)",
           "scenario.trust.is_identity_row(b)", (_PAIR,),
           _SHARE + ": an agent shared whose row is the identity in one network only"),
    Mutant("src/dlms/claims.py", "row[b] and any(row[t] for t in range(b) if t not in shared)",
           "False", (_PAIR,),
           _SHARE + ": an agent shared that a twin's row adds after a twinned agent"),
    Mutant("src/dlms/metrics.py", "runs = max(1, step // max(1, self.iterations))",
           "runs = 1 + step // max(1, self.iterations)",
           ("tests/test_metrics.py::TestReductionOrder::"
            "test_square_gets_at_most_a_block_at_a_time",),
           _BATCH + ": a batch one run too large"),
    Mutant("src/dlms/claims.py", "scenario_band(scenario, MERGE_BAND_FRACTION)",
           "scenario_band(scenario)", ("tests/test_pinned_outputs.py::test_claim_summary",),
           _ONCE + ": the merge threshold at the convergence band"),
]


def _failed(output):
    """The node ids that pytest's ``-rf`` summary reports as failed."""
    return [m.group(1) for m in re.finditer(r"^FAILED (\S+)", output, re.M)]


def check(mutant, workdir):
    """``(verdict, detail)``: killed, survived or error for one mutant."""
    shutil.rmtree(workdir, ignore_errors=True)
    for name in ("src", "tests", "perfbench"):
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
    if mutant.equivalent and failed:  # an equivalent mutant survives every test it names
        return "killed", "failing: " + ", ".join(failed)
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
