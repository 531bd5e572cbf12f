"""Command-line front end: run scenarios to CSV, verify claims, list builtins.

Exit codes: 0 success/pass, 1 verification fail, 2 usage/config error or
closed stdout, 3 divergence.
"""

import argparse
import io
import os
import sys
from pathlib import Path

from .claims import CLAIMS, verify_claim
from .errors import ConfigError, DivergenceError, ParseError
from .metrics import EnsembleSums
from .scenarios import (
    AGENT_FIELDS,
    NETWORK_FIELDS,
    build,
    builtin,
    builtin_names,
    builtin_summary,
    compute_report,
    entries,
    read_entries,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3

# Values per formatted piece of the trajectory CSV. Its bytes and their mask
# (123 KB each at M = 1) are allocated once per file: buffers this size
# allocated per piece would be mapped and faulted in again every time.
_WRITE_VALUES = 3 << 10


def load_scenario(ref):
    """The config entries of a builtin name or a UTF-8 config file path (BOM skipped)."""
    if ref in builtin_names():
        return entries(builtin(ref))
    path = Path(ref)
    if not path.exists():
        raise ConfigError(f"no such builtin or config file: {ref!r}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {ref!r} is not UTF-8 text: byte {exc.start} "
                          f"({exc.object[exc.start]:#04x}) does not decode") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {ref!r}: {exc.strerror}") from None
    return read_entries(text)


def _flag(key):
    """The CLI option of a [network] key."""
    return "--" + key.replace("_", "-")


def apply_overrides(config, args):
    """The scenario of config entries (see load_scenario) and the CLI's
    overrides, built once: each option and ``--set`` item is the entry of its
    config key, converted and checked as in a file; a ParseError names it."""
    network, sections, trust = config
    for key in NETWORK_FIELDS:
        if getattr(args, key) is not None:
            network[key] = (getattr(args, key), _flag(key))
    # a section without an id is left for build to report at its line
    by_id = {section["id"][0]: section for section, _ in sections if "id" in section}
    for item in args.set:
        where = f"--set {item!r}"
        key, eq, text = item.partition("=")
        parts = key.strip().split(".")
        if not eq:
            raise ParseError("expected key=value", where)
        if parts[0] == "trust" and len(parts) == 3:
            trust[parts[1], parts[2]] = (text, where)
        elif len(parts) != 2:
            raise ParseError("the key is neither agent.field nor trust.from.to", where)
        elif parts[0] not in by_id:
            raise ParseError(f"unknown agent {parts[0]!r}", where)
        elif parts[1] not in AGENT_FIELDS:
            raise ParseError(f"unknown agent override key {parts[1]!r}", where)
        else:
            by_id[parts[0]][parts[1]] = (text, where)
    return build(network, sections, trust)


def _csv_field(text):
    """``text`` as csv.writer writes it as one field, quoted only if it must be."""
    import csv  # json and csv load only for the files that need them, not at start-up

    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]


def _byte_rows(items):
    """``bytes`` items as a zero-padded uint8 matrix, and the mask of their bytes."""
    import numpy as np

    rows = np.array(items, dtype=bytes)
    return (rows.view(np.uint8).reshape(len(items), rows.itemsize),
            np.arange(rows.itemsize) < np.array([[len(b)] for b in items], dtype=int))


def write_trajectories(path, scenario, records):
    """Write the trajectory CSV of ``records``, records of consecutive runs in
    run order, numbered from 0 on: one row per run, iteration and agent id in
    sorted order, written a record at a time as ``records`` yields them.

    A piece of at most _WRITE_VALUES values is one byte matrix with a row per
    CSV row: the run, then ``,iteration,agent``, each padded, then a 32-byte
    ``floatfmt`` field per value, its comma first, and ``\\r\\n``. A
    boolean mask of the bytes to keep selects them for the file; a field's
    kept bytes are at most two runs, which makes boolean indexing cheaper
    than ``np.compress``. The matrix is laid out anew only when the run
    numbers grow a digit.

    A run's rows of values, ``w0 … e dist_opt``, are gathered agent by agent
    into one buffer allocated once per file."""
    import numpy as np

    from .floatfmt import SLOTS, repr_fields

    m = len(scenario.w_opt)
    width = m + 2
    header = ["run", "iteration", "agent", *(f"w{j}" for j in range(m)), "e", "dist_opt"]
    step = max(1, _WRITE_VALUES // width)
    done, cut = 0, None
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for record in records:
            if cut is None:
                order = np.array(sorted(range(len(record.agents)),
                                        key=record.agents.__getitem__))
                ids = [_csv_field(record.agents[a]) for a in order]
                rows = _byte_rows([f",{i},{aid}".encode()
                                   for i in range(1, record.iterations + 1) for aid in ids])
                values = np.empty((record.iterations * len(order), width))
                grid = values.reshape(record.iterations, len(order), width)
            runs = _byte_rows([str(k).encode() for k in range(done, done + len(record))])
            done += len(record)
            if runs[0].shape[1] != cut:
                cut = runs[0].shape[1]
                end = cut + rows[0].shape[1]
                start = -(-end // 8) * 8  # the fields and the rows are word-aligned
                stop = start + width * SLOTS
                text = np.zeros((step, stop + 8), np.uint8)
                keep = np.zeros((step, stop + 8), bool)
                text[:, stop:stop + 2] = np.frombuffer(b"\r\n", np.uint8)
                keep[:, stop:stop + 2] = True
                fields = text[:, start:stop].reshape(step, width, SLOTS)
                kept = keep[:, start:stop].reshape(step, width, SLOTS)
            for r in range(len(record)):
                text[:, :cut], keep[:, :cut] = runs[0][r], runs[1][r]
                dist = record.dist_opt(r)
                for col, a in enumerate(order):
                    grid[:, col, :m] = record.ws[r, :, a]
                    grid[:, col, m] = record.es[r, :, a]
                    grid[:, col, m + 1] = dist[:, a]
                for first in range(0, len(values), step):
                    x = values[first:first + step]
                    k = len(x)
                    text[:k, cut:end] = rows[0][first:first + k]
                    keep[:k, cut:end] = rows[1][first:first + k]
                    left = repr_fields(x, fields[:k], kept[:k])
                    if left.any():
                        for i, j in zip(*np.nonzero(left)):
                            rep = b"," + repr(float(x[i, j])).encode()
                            fields[i, j, :len(rep)] = np.frombuffer(rep, np.uint8)
                            kept[i, j] = np.arange(SLOTS) < len(rep)
                    fh.write(text[:k][keep[:k]])
            del record  # not held while ``records`` makes the next one


def metrics_path(out):
    out = Path(out)
    return out.with_name(out.stem + ".metrics" + (out.suffix or ".csv"))


def error_path(out):
    out = Path(out)
    return out.with_name(out.stem + ".error.json")


def write_metrics(path, scenario, sums):
    import csv

    rows = compute_report(scenario, sums)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "agent", "iteration", "value"])
        writer.writerows(rows)


def _remove_stale(out, written):
    """Delete the outputs an earlier run left that this outcome does not write."""
    for path in (out, metrics_path(out), error_path(out)):
        if path not in written:
            path.unlink(missing_ok=True)


def cmd_run(args):
    if os.path.basename(args.out) in ("", ".", ".."):
        raise ConfigError(f"--out {args.out!r} names no file")
    scenario = apply_overrides(load_scenario(args.scenario), args)
    out = Path(args.out)
    _run_to(scenario, out)
    print(f"wrote {out} and {metrics_path(out)}")
    return EXIT_OK


def _run_to(scenario, out):
    """Run the scenario and write ``out`` and its sibling outputs.

    Each group of runs (engine.groups) is added to the report's sums on its
    way to the writer. The CSV and metrics go to temporary siblings, renamed
    into place once complete: a failure leaves no partial file and an
    earlier run's outputs as they were. A DivergenceError is raised once its
    manifest is written; an OSError is a ConfigError naming the output."""
    from .engine import groups  # numpy loads with the first run, not at import

    parts = {path: path.with_name(f".{path.name}.{os.getpid()}.part")
             for path in (out, metrics_path(out))}
    sums = EnsembleSums()

    def summed(record):  # map holds no record while the next group is simulated
        sums.add(record)
        return record
    try:
        try:
            write_trajectories(parts[out], scenario, map(summed, groups(scenario)))
        except DivergenceError as exc:
            written = [error_path(out)]
            if exc.run:  # the runs before the divergent one completed
                os.replace(parts[out], out)
                written.append(out)
            _remove_stale(out, written)
            import json

            error_path(out).write_text(json.dumps({
                "error": "divergence",
                "message": str(exc),
                "run": exc.run,
                "agent": exc.agent,
                "iteration": exc.iteration,
                "completed_runs": exc.run,
            }, indent=2) + "\n", encoding="utf-8")
            raise
        write_metrics(parts[metrics_path(out)], scenario, sums)
        for path, part in parts.items():
            os.replace(part, path)
        _remove_stale(out, [out, metrics_path(out)])
    except OSError as exc:  # name the output, not its temporary sibling
        name = {str(part): path for path, part in parts.items()}.get(
            str(exc.filename), exc.filename)
        raise ConfigError(f"cannot write {name or out}: {exc.strerror}") from None
    finally:
        for part in parts.values():
            part.unlink(missing_ok=True)


def cmd_verify(args):
    scenario = apply_overrides(load_scenario(args.scenario), args)
    result = verify_claim(scenario, args.claim)
    print(result.summary())
    return EXIT_OK if result.passed else EXIT_FAIL


def cmd_list(args):
    for name in builtin_names():
        print(f"{name}  {builtin_summary(name)}")
    return EXIT_OK


def _add_overrides(parser):
    for key in NETWORK_FIELDS:
        parser.add_argument(_flag(key), dest=key, help=f"the [network] key {key}")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="agent override (id.field=value) or trust "
                             "override (trust.from.to=value)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error line, not argparse's usage block and exit
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="dlms",
        description="Simulate networks of cooperating LMS adaptive filters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write trajectory CSVs")
    p_run.add_argument("scenario", help="builtin name or config file path")
    p_run.add_argument("--out", required=True, help="trajectory CSV output path")
    _add_overrides(p_run)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check a network-behaviour claim")
    p_verify.add_argument("scenario", help="builtin name or config file path")
    p_verify.add_argument("claim", choices=CLAIMS)
    _add_overrides(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(func=cmd_list)
    return parser


def _join_values(argv):
    """``argv`` with each option that takes a value, or its unique prefix,
    joined to a value that starts with '-', as ``--option=value``: argparse
    reads such a value (``-1e3``, ``-1,2``) as an option unless it is a plain
    negative number."""
    valued = ("--out", "--set", *map(_flag, NETWORK_FIELDS))
    joined = []
    for item in argv:
        option = joined[-1] if joined else ""
        if (item.startswith("-") and option.startswith("--")
                and sum(flag.startswith(option) for flag in valued) == 1):
            joined[-1] += "=" + item
        else:
            joined.append(item)
    return joined


def main(argv=None):
    # dlms makes no BLAS call, but numpy's OpenBLAS would start a spinning worker
    # per further CPU when numpy loads, which comes later, with the first run
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # stdout is UTF-8 like the files, whatever the locale; surrogateescape
    # writes undecodable bytes of argv paths back unchanged
    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_values(argv))
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # nothing more reaches stdout; point it at devnull so that the flush
        # at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: the scenario does not fit in memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
