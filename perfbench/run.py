"""Benchmark of the dlms command-line tool.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each workload is one dlms command, run as a child process in a closed loop
(one client; the next command starts when the previous one has exited) for
at least --seconds and at least MIN_COMMANDS times. The program is the
checkout's own ``src/`` tree; nothing is installed. Every command's exit
code, stdout and output files are checked: at the default seed against
pinned values, at any seed for a pass line and for identical outputs
across the repetitions of one run.

--trace 0 reports the end-to-end metrics; their times are in reference
seconds (see REF_S), and the unscaled wall times are printed as well.
--trace 1 alternates untraced commands with the same command run in-process
under perfbench/traced.py (at least one pair) and reports, per traced dlms
function, its calls and self time, plus the tracing overhead (traced minus
untraced wall time); these times are unscaled.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The full result, with every sample and the host description, is
also written to .perfbench-work/results/.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import traced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Reference speed. On a shared host the CPU speed this process gets swings
# by up to 2x over tens of seconds (other tenants' load), which no number of
# repetitions within one run averages out. So every timed child runs between
# two runs of a fixed pure-Python loop on the same CPU, and its wall time is
# scaled to reference seconds: seconds at the speed at which that loop takes
# REF_S. REF_S is about the loop's time on an uncontended 2-vCPU Xeon (KVM)
# host, so reference and wall seconds agree there; it is only a scale.
REF_LOOP = 1_500_000
REF_S = 0.085

DEFAULT_SEED = 42
MIN_COMMANDS = 3
SETUP_SAMPLES = 24  # spread over the first MIN_COMMANDS commands
# Hard limit on one invocation; a child still running then is killed.
DEADLINE_S = 170.0

OUT = ".perfbench-work/out/trajectories.csv"
OUT_METRICS = ".perfbench-work/out/trajectories.metrics.csv"
STDOUT = WORK / "stdout.txt"
STDERR = WORK / "stderr.txt"
SPANS = WORK / "spans.bin"

CLI_MAIN = "import sys; from dlms.cli import main; sys.exit(main())"
SETUP_PROBE = ("from dlms.cli import apply_overrides, build_parser, load_scenario; "
               "args = build_parser().parse_args(); "
               "apply_overrides(load_scenario(args.scenario), args)")

# Fixed child environment: nothing is inherited, so DLMS_WORKERS (which
# switches on the process pool) can never reach a child.
CHILD_ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C",
}


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    iterations: int  # simulated network iterations (runs x iterations) per command
    ok_prefix: str  # stdout of a successful command starts with this
    golden: dict  # at DEFAULT_SEED: exact stdout and sha256 of each output file
    outputs: tuple = ()


# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="run_table1",
        args=("run", "table1", "--out", OUT),
        iterations=100 * 1000,
        ok_prefix="wrote ",
        outputs=(OUT, OUT_METRICS),
        golden={
            "stdout": f"wrote {OUT} and {OUT_METRICS}\n",
            OUT: "dd98c82532f3961c1525acd34a1a203443ce1c0231b09e48ec8036fa7338ee80",
            OUT_METRICS: "41871d50a7027d41f14e851fb6882e424b4435ed6584ae676831c4bf9decf56a",
        },
    ),
    Workload(
        name="verify_delay",
        args=("verify", "table1", "delay",
              "--set", "trust.a.a=0.9", "--set", "trust.a.b=0.1",
              "--set", "trust.b.b=0.9", "--set", "trust.b.a=0.1"),
        iterations=2 * 100 * 1000,
        ok_prefix="PASS ",
        golden={"stdout": "PASS delay: win_fraction=1.0, required=0.9, "
                          "median_selfish_merge=18, median_balanced_merge=1\n"},
    ),
    Workload(
        name="long_horizon",
        args=("verify", "perfbench/long_horizon.cfg", "stabilize"),
        iterations=2 * 20000,
        ok_prefix="PASS ",
        golden={"stdout": "PASS stabilize: win_fraction=1.0, required=0.95, "
                          "cooperative=c, twin=f\n"},
    ),
)}


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mb: float


@dataclass
class Tally:
    """Commands attempted and the problems found in them."""

    attempted: int = 0
    problems: list = field(default_factory=list)
    reference: dict = None

    @property
    def failed(self):
        return len({n for n, _ in self.problems if n})

    def record(self, workload, seed, child, observed):
        """Check one command; the first one of a run is the reference."""
        self.attempted += 1
        n = self.attempted
        found = check(workload, seed, child.code, observed, self.reference)
        self.problems += [(n, p) for p in found]
        if self.reference is None:
            self.reference = observed


def check(workload, seed, code, observed, reference):
    """Problems with one command's exit code and outputs, as strings."""
    found = []
    if code != 0:
        found.append(f"exit code {code}")
    if not observed["stdout"].startswith(workload.ok_prefix):
        found.append(f"stdout {observed['stdout'][:120]!r}")
    if seed == DEFAULT_SEED:
        found += [f"{key} differs from the pinned value"
                  for key, want in workload.golden.items() if observed.get(key) != want]
    if reference is not None and observed != reference:
        found.append("outputs differ from the first command of this run")
    return found


def spawn(args, deadline):
    """Run python3 ARGS to completion; wall time from spawn to exit.

    Peak RSS comes from this child's own wait4 rusage. A child still
    running at ``deadline`` (perf_counter seconds) is killed.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(STDOUT), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(STDERR), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    argv = [sys.executable, *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, CHILD_ENV, file_actions=actions)

    def kill(*_):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        kill()
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return Child(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)


def sha256_file(path):
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


def run_command(workload, seed, deadline, traced_run=False):
    """Run the workload's command once; returns (Child, observed outputs)."""
    for path in workload.outputs:
        Path(path).unlink(missing_ok=True)
    cli_args = [*workload.args, "--seed", str(seed)]
    if traced_run:
        args = [str(BENCH_DIR / "traced.py"), str(SPANS), *cli_args]
    else:
        args = ["-c", CLI_MAIN, *cli_args]
    child = spawn(args, deadline)
    observed = {"stdout": STDOUT.read_text(errors="replace")}
    observed.update({path: sha256_file(path) for path in workload.outputs})
    return child, observed


def reference_time():
    """Wall time of a fixed pure-Python loop: the CPU speed available now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    return time.perf_counter() - start


def at_reference_speed(run):
    """Call ``run()`` between two reference loops on this CPU.

    Returns its result and the factor that converts wall seconds measured
    during the call into reference seconds.
    """
    before = reference_time()
    result = run()
    return result, 2 * REF_S / (before + reference_time())


class SetupProbe:
    """Fresh interpreters that only load the workload's scenario, then exit.

    Probes run in batches between commands so that they sample the whole
    run. The first probe compiles the package's bytecode and is not counted.
    """

    def __init__(self, workload, seed, deadline):
        self.args = ["-c", SETUP_PROBE, *workload.args, "--seed", str(seed)]
        self.deadline = deadline
        self.walls, self.raw = [], []
        self.ok = spawn(self.args, deadline).code == 0

    def batch(self, count):
        children, scale = at_reference_speed(
            lambda: [spawn(self.args, self.deadline) for _ in range(count)])
        for child in children:
            self.ok &= child.code == 0
            self.walls.append(child.wall_s * scale)
            self.raw.append(child.wall_s)


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics with tracing off, in reference seconds."""
    probe = SetupProbe(workload, seed, deadline)
    tally, walls, raw, rss = Tally(), [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        if len(probe.walls) < SETUP_SAMPLES:
            probe.batch(SETUP_SAMPLES // MIN_COMMANDS)
        (child, observed), scale = at_reference_speed(
            lambda: run_command(workload, seed, deadline))
        tally.record(workload, seed, child, observed)
        walls.append(child.wall_s * scale)
        raw.append(child.wall_s)
        rss.append(child.rss_mb)
        if time.perf_counter() >= deadline:
            break
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "iters_per_s": (workload.iterations / wall, "1/s"),
        "setup_s": (statistics.median(probe.walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"wall_s": walls, "setup_s": probe.walls, "peak_rss_mb": rss,
               "unscaled wall_s": raw, "unscaled setup_s": probe.raw}
    if not probe.ok:
        tally.problems.append((0, "a setup probe exited with an error"))
    return tally, metrics, samples


def layer_metrics(rec):
    """Calls and self time of every traced function (0 if never called)."""
    summary = spans.summarize(rec)
    metrics = {}
    for target in traced.TARGETS:
        name = spans.span_name(target)
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for attr in traced.WRITERS:
        key = f"cli.{attr}.bytes"
        metrics[key] = (rec.counters.get(key, 0), "bytes")
    return metrics


def measure_traced(workload, seed, seconds, deadline):
    """Per-layer metrics: pairs of an untraced and a traced command."""
    tally, plain, traced_walls, runs = Tally(), [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        child, observed = run_command(workload, seed, deadline)
        tally.record(workload, seed, child, observed)
        plain.append(child.wall_s)
        SPANS.unlink(missing_ok=True)
        child, observed = run_command(workload, seed, deadline, traced_run=True)
        tally.record(workload, seed, child, observed)
        traced_walls.append(child.wall_s)
        # A traced command that died before writing spans reports zeros;
        # it has already been counted as failed.
        runs.append(layer_metrics(spans.load(SPANS) if SPANS.exists() else spans.Recorder()))
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    for key, (value, unit) in runs[0].items():
        values = [r[key][0] for r in runs]
        if unit == "s":
            metrics[key] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                tally.problems.append((0, f"{key} differs between traced runs: {values}"))
            metrics[key] = (values[0], unit)
    metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain), "s")
    samples = {"unscaled wall_s": plain, "trace.wall_s": traced_walls}
    return tally, metrics, samples


def git_commit():
    """Commit of the checkout read from .git, or None outside a git clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def host_record():
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "reference_loop_s": reference_time(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
        "child_env": CHILD_ENV,
    }


def tail_percentile(values):
    """(p, value) for the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    n = len(values)
    for p, cuts in ((99.9, 1000), (99, 100), (90, 10)):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=cuts)[-1]
    return None


def describe(values, unit):
    text = f"median of {len(values)}, max {max(values):.6g} {unit}"
    tail = tail_percentile(values)
    if tail is None:
        return text + "; no percentile above the median has 10 samples beyond it"
    return text + f", p{tail[0]:g} {tail[1]:.6g} {unit}"


def report(result):
    """Human-readable lines for one workload's result."""
    lines = [f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}: "
             f"{result['attempted']} commands, {result['failed']} failed, "
             f"fail_ratio {result['fail_ratio']:.6g}"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        line = f"  {name:<36} {shown} {metric['unit']}"
        if name in result["samples"]:
            line += f"  ({describe(result['samples'][name], metric['unit'])})"
        lines.append(line)
    for name, values in result["samples"].items():
        if name not in result["metrics"]:
            lines.append(f"  {name:<36} {statistics.median(values):>14.6g} s  "
                         f"({describe(values, 's')})")
    lines += [f"  problem in command {n}: {p}" for n, p in result["problems"]]
    return lines


def bench(workload, seed, seconds, trace, deadline, host):
    run = measure_traced if trace else measure
    tally, metrics, samples = run(workload, seed, seconds, deadline)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "host": host,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "correct": not tally.problems,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "dlms" / "cli.py").is_file():
        print(f"error: no dlms source tree at {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through spawn(), which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # The reference loop runs in this process, so it and every child share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    host = host_record()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench(WORKLOADS[n], args.seed, args.seconds, args.trace, deadline, host)
               for n in names]

    print("host: " + json.dumps(host))
    for result in results:
        print("\n".join(report(result)))
        path = WORK / "results" / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
