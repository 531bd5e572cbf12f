"""Fuzz of the CLI's usage contract.

Mutated configs (the serialized table1 and table5 builtins and the
benchmark's long_horizon config), mutated option values and mutated command
shapes (an argv item dropped, a claim, option or subcommand that does not
exist) run through ``cli.main`` in-process, each option in its one-item
(``--flag=value``) or two-item (``--flag value``) form. Whatever the input,
the exit code is 0, 1, 2 or 3, no exception escapes (SystemExit included),
and a usage error (exit 2) is exactly one line on stderr. Whether an exit 3
is right is not checked here.
"""

from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dlms import engine
from dlms.cli import main
from dlms.engine import blocks
from dlms.scenarios import builtin, serialize

LONG_HORIZON = Path(__file__).resolve().parents[1] / "perfbench" / "long_horizon.cfg"
BASES = (serialize(builtin("table1")), serialize(builtin("table5")),
         LONG_HORIZON.read_text())

# Non-finite, overflowing and signed numbers, spellings that int() or
# float() take or refuse, control and format characters, empty parts and
# config syntax. A value that reads as a count is at most 10, or so large
# (99999999999999) that its record fails to allocate at once, so no example
# runs long or holds much memory. dlms verify streams the horizon, so it
# would run such an --iterations for years rather than fail: an example that
# hands verify more than RUN_ITERATIONS fails at its first block instead.
VALUES = ("nan", "inf", "-inf", "1e400", "1e308", "-1e308", "-0.0", "0", "-1",
          "1", "2", "3", "0.5", "2e12", "99999999999999", "", " ", "0x10", "\u0661",
          "1_0", "\x00", "\ufeff1", "1,,2", "1,", "x", "a", "c,d", "#", "=",
          "[agent]", "a b", "1\n2")
# iterations x runs that a verify example may simulate: long_horizon's
# 20,000 x 2 with room to spare
RUN_ITERATIONS = 10 ** 6
FLAGS = ("--seed", "--iterations", "--ensemble", "--w-opt")
SET_KEYS = ("a.mu", "b.w0", "a.input_mean", "c.input_sd", "b.noise_mean",
            "b.noise_sd", "c.counterpart", "trust.a.a", "trust.b.a")
COMMANDS = (("run",), ("verify", "merge"), ("verify", "speedup"),
            ("verify", "delay"), ("verify", "stabilize"))

# half the examples leave the config alone, so that the overrides are reached
line_edits = st.one_of(st.just([]), st.lists(
    st.tuples(st.sampled_from(("delete", "duplicate", "value")), st.integers(0, 200),
              st.sampled_from(VALUES)), min_size=1, max_size=3))
# each override as one argv item (--flag=value) or as two (--flag value)
overrides = st.lists(st.tuples(st.sampled_from(FLAGS + SET_KEYS), st.sampled_from(VALUES),
                               st.booleans()), max_size=3)
# half the examples keep the command's shape
shapes = st.one_of(st.just(None), st.tuples(
    st.sampled_from(("drop", "claim", "option", "subcommand")), st.integers(0, 30)))


def mutate(text, edits):
    """``text`` with each edit applied to the line its index picks: the line
    deleted or duplicated, or its value (after ``=``, or a trust triple's
    coefficient) replaced."""
    lines = text.splitlines()
    for edit, index, value in edits:
        if not lines:
            break
        i = index % len(lines)
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif "=" in lines[i]:
            lines[i] = lines[i].partition("=")[0] + "= " + value
        else:
            lines[i] = " ".join(lines[i].split()[:2] + [value])
    return "\n".join(lines) + "\n"


def reshape(argv, shape):
    """``argv`` with one item dropped, its claim or subcommand replaced by one
    that does not exist, or an unknown option put in, as ``shape`` picks."""
    if shape is None:
        return argv
    kind, index = shape
    if kind == "drop":
        i = index % len(argv)
        return argv[:i] + argv[i + 1:]
    if kind == "claim":
        return ["verify", argv[1], "bogus", *argv[2 + (argv[0] == "verify"):]]
    if kind == "option":
        i = index % (len(argv) + 1)
        return argv[:i] + ["--bogus"] + argv[i:]
    return ["frob", *argv[1:]]


def budgeted_blocks(scenario):
    """engine.blocks, failing at the first block, once a block of every run
    has been allocated, if the scenario exceeds RUN_ITERATIONS."""
    for start, block in blocks(scenario):
        assert scenario.iterations * scenario.ensemble <= RUN_ITERATIONS, (
            f"{scenario.iterations} iterations x {scenario.ensemble} runs")
        yield start, block


def option(key, value, joined):
    """The argv items of one override: ``--flag=value`` or ``--flag value``,
    ``--set=key=value`` or ``--set key=value``."""
    flag, value = (key, value) if key in FLAGS else ("--set", f"{key}={value}")
    return [f"{flag}={value}"] if joined else [flag, value]


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(base=st.sampled_from(BASES), edits=line_edits, command=st.sampled_from(COMMANDS),
       items=overrides, shape=shapes)
def test_any_config_or_override_keeps_the_exit_contract(tmp_path, capsys, base, edits,
                                                        command, items, shape):
    config = tmp_path / "fuzz.cfg"
    config.write_text(mutate(base, edits), encoding="utf-8")
    verb, *claim = command
    argv = [verb, str(config), *claim, "--iterations", "30", "--ensemble", "3",
            *(item for override in items for item in option(*override))]
    if verb == "run":
        argv += ["--out", str(tmp_path / "fuzz.csv")]
    argv = reshape(argv, shape)
    capsys.readouterr()
    try:
        with mock.patch.object(engine, "blocks", budgeted_blocks):
            code = main(argv)
    except BaseException as exc:  # SystemExit included
        raise AssertionError(f"{argv!r} raised {exc!r}") from exc
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        assert len(err.splitlines()) == 1, (argv, err)
