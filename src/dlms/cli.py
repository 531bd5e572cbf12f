"""Command-line front end: run scenarios to CSV, verify claims, list builtins.

Exit codes: 0 success/pass, 1 verification fail, 2 usage/config error or
closed stdout, 3 divergence.
"""

import argparse
import errno
import gc
import io
import os
import sys
from contextlib import suppress
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
    read_entries,
    serialize,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3

# Values per piece of either CSV; its bytes and mask (123 KB each at M = 1) are allocated once.
_WRITE_VALUES = 3 << 10


def load_scenario(ref):
    """The config entries of a builtin name, read as its serialized config
    text, or of a UTF-8 config file path (BOM skipped)."""
    if ref in builtin_names():
        return read_entries(serialize(builtin(ref)))
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
    csv.writer(buf := io.StringIO()).writerow([text])
    return buf.getvalue()[:-2]


def _byte_rows(items):
    """``bytes`` items as a zero-padded uint8 matrix, and the mask of their bytes."""
    import numpy as np

    rows = np.array(items, dtype=bytes)
    return (rows.view(np.uint8).reshape(len(items), rows.itemsize),
            np.arange(rows.itemsize) < np.array([[len(b)] for b in items], dtype=int))


def _pieces(fh, head, tails, iterations, width):
    """``write(head, columns, order)``, which writes a block of CSV rows to
    ``fh`` a piece of whole iterations, at most _WRITE_VALUES values, at a
    time: per iteration a row per tail and agent ``order`` picks, each ``head``
    (a _byte_rows row and mask), the iteration, the tail and the agent's
    ``columns`` values ([iterations, agents] each) as ``floatfmt`` fields, then
    ``\\r\\n``. A piece is a byte matrix, a padded row per CSV row, and a mask
    of the bytes to keep (boolean indexing beats ``np.compress``); per piece
    only the fields and the iteration, in floatfmt's digit words, are laid out."""
    import numpy as np

    from .floatfmt import DIGITS4, LEADING4, SLOTS, repr_fields

    groups = 10 ** (4 * np.arange((len(str(iterations)) - 1) // 4, -1, -1))  # of four digits
    words = slice(-(-head // 4), -(-head // 4) + len(groups))  # their 4-byte words in a row
    start = -(-(4 * words.stop + tails[0].shape[1]) // 8) * 8  # fields and rows are word-aligned
    stop = start + width * SLOTS
    shape = (max(1, _WRITE_VALUES // (width * len(tails[0]))), len(tails[0]), stop + 8)
    text, keep = np.zeros(shape, np.uint8), np.zeros(shape, bool)
    for rows, tail, crlf in zip((text, keep), tails, (list(b"\r\n"), True)):
        rows[..., start - tail.shape[1]:start], rows[..., stop:stop + 2] = tail, crlf
    values = np.empty((*shape[:2], width))
    fields, kept = (rows[..., start:stop].reshape(-1, width, SLOTS) for rows in (text, keep))

    def write(head_row, columns, order):
        text[..., :head], keep[..., :head] = head_row
        for first in range(0, len(columns[0]), len(values)):
            n = min(len(values), len(columns[0]) - first)
            quotients = np.arange(first + 1, first + n + 1)[:, None, None] // groups
            text.view(np.uint32)[:n, :, words] = DIGITS4.take(quotients, mode="wrap")
            keep.view(np.uint32)[:n, :, words] = LEADING4.take(quotients, mode="clip")
            for j, column in enumerate(columns):
                values[:n, :, j] = column[first:first + n, order]
            x = values[:n].reshape(-1, width)
            left = repr_fields(x, fields[:len(x)], kept[:len(x)])
            for i, j in zip(*np.nonzero(left)) if left.any() else ():
                rep = b"," + repr(float(x[i, j])).encode()
                fields[i, j, :len(rep)] = np.frombuffer(rep, np.uint8)
                kept[i, j] = np.arange(SLOTS) < len(rep)
            fh.write(text[:n][keep[:n]])
    return write


def write_trajectories(path, scenario, records):
    """Write the trajectory CSV of ``records``, records of consecutive runs in
    run order, numbered from 0 on: a row per run, iteration and agent id in
    sorted order, a record at a time as ``records`` yields them. A run is a
    block of _pieces under its number, a tail per agent, its values taken
    from the record a piece at a time; run numbers a digit longer lay the
    pieces out anew."""
    import numpy as np

    m = len(scenario.w_opt)
    header = ["run", "iteration", "agent", *(f"w{j}" for j in range(m)), "e", "dist_opt"]
    done, cut = 0, None
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for record in records:
            order = sorted(range(len(record.agents)), key=record.agents.__getitem__)
            heads = _byte_rows([f"{k},".encode() for k in range(done, done + len(record))])
            done += len(record)
            if heads[0].shape[1] != cut:
                cut = heads[0].shape[1]
                tails = _byte_rows([f",{_csv_field(record.agents[a])}".encode() for a in order])
                write = _pieces(fh, cut, tails, record.iterations, m + 2)
            for r, head in enumerate(zip(*heads)):
                write(head, [*np.moveaxis(record.ws[r], -1, 0), record.es[r],
                             record.dist_opt(r)], order)
            del record  # not held while ``records`` makes the next one


def metrics_path(out):
    out = Path(out)
    return out.with_name(out.stem + ".metrics" + (out.suffix or ".csv"))


def error_path(out):
    out = Path(out)
    return out.with_name(out.stem + ".error.json")


def write_metrics(path, scenario, sums):
    """Write the metrics CSV of compute_report: its MSD, an agent a block of
    _pieces like the trajectory rows, then its other rows through ``csv``."""
    import csv

    msd, rows = compute_report(scenario, sums)
    heads = _byte_rows([f"msd,{_csv_field(aid)},".encode() for aid in sorted(sums.agents)])
    with open(path, "wb") as fh:
        fh.write(b"metric,agent,iteration,value\r\n")
        write = _pieces(fh, heads[0].shape[1], _byte_rows([b""]), len(msd), 1)
        for j, head in enumerate(zip(*heads)):
            write(head, [msd], slice(j, j + 1))
        csv.writer(summary := io.StringIO()).writerows(rows)
        fh.write(summary.getvalue().encode())


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
    way to the writer. The outputs of the outcome (the CSV and metrics, or
    the manifest and the CSV of any completed runs) go to temporary siblings.
    Once all are complete and no output is a directory, one loop renames them
    into place and removes an earlier run's other outputs, so a failure leaves
    no partial file and an earlier run's outputs as they were. A
    DivergenceError is raised after the loop; an OSError is a ConfigError
    naming the output."""
    from .engine import groups  # numpy loads with the first run, not at import

    metrics, manifest = metrics_path(out), error_path(out)
    parts = {path: path.with_name(f".{path.name}.{os.getpid()}.part")
             for path in (out, metrics, manifest)}
    sums = EnsembleSums()

    def summed(record):  # map holds no record while the next group is simulated
        sums.add(record)
        return record
    try:
        try:
            write_trajectories(parts[out], scenario, map(summed, groups(scenario)))
            write_metrics(parts[metrics], scenario, sums)
            error, kept = None, (out, metrics)
        except DivergenceError as exc:
            import json

            parts[manifest].write_text(json.dumps(dict(
                error="divergence", message=str(exc), run=exc.run, agent=exc.agent,
                iteration=exc.iteration, completed_runs=exc.run), indent=2) + "\n",
                encoding="utf-8")
            # the CSV holds the runs before the divergent one, if any completed
            error, kept = exc, (out, manifest) if exc.run else (manifest,)
        for path in parts:  # os.replace replaces a symlink, not the directory it names
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path in parts:
            if path in kept:
                os.replace(parts[path], path)
            else:
                path.unlink(missing_ok=True)
        if error:
            raise error
    except OSError as exc:  # name the output, not its temporary sibling
        name = {str(part): path for path, part in parts.items()}.get(
            str(exc.filename), exc.filename)
        raise ConfigError(f"cannot write {name or out}: {exc.strerror}") from None
    finally:
        for part in parts.values():
            with suppress(FileNotFoundError, NotADirectoryError):
                part.unlink()


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
    program = argv is None
    argv = sys.argv[1:] if program else argv
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
    finally:
        # the command is done: the collections at exit skip a frozen heap, so
        # they no longer walk numpy's ~21,000 import-time objects. Only the
        # program freezes, so a caller of main(argv) keeps its heap and GC
        # state, and only now: import garbage frozen would never be freed
        if program:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
