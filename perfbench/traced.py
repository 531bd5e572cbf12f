"""Run one dlms CLI command in this process with a span around each layer.

Usage: python3 perfbench/traced.py SPANS_FILE DLMS_ARG...

Exits with the CLI's exit code and writes the spans to SPANS_FILE at exit.
The dlms package must be importable (PYTHONPATH=src).
"""

import os
import sys

import spans

# The public functions whose calls and self time the benchmark reports.
TARGETS = (
    "prng.RandomStream.next_gaussian",
    "prng.derive_seed",
    "signals.generate_sample",
    "filters.lms_step",
    "network.combine",
    "network.averaging_update",
    "network.cta_iteration",
    "scenarios.run",
    "scenarios.run_single",
    "scenarios.compute_report",
    "scenarios.mean_record",
    "metrics.msd_series",
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

# CLI writers whose output size is counted as "<span name>.bytes".
WRITERS = ("write_trajectories", "write_metrics")


def count_bytes(rec, module, attr):
    """Wrap ``module.attr(path, ...)`` to add the size of ``path`` after it returns."""
    fn = getattr(module, attr, None)
    if fn is None:
        return

    def counted(path, *args, **kwargs):
        result = fn(path, *args, **kwargs)
        rec.add(f"cli.{attr}.bytes", os.path.getsize(path))
        return result

    setattr(module, attr, counted)


def main(argv):
    spans_file, cli_args = argv[0], argv[1:]
    import dlms.cli

    rec = spans.Recorder()
    spans.install(rec, "dlms", TARGETS)
    for attr in WRITERS:
        count_bytes(rec, dlms.cli, attr)
    try:
        return dlms.cli.main(cli_args)
    finally:
        rec.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
