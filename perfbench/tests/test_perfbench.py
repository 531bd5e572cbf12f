"""Tests of the benchmark itself: span self time, the output checks and the
committed long_horizon config. Run from the repository root with
PYTHONPATH=src, like the package's own tests."""

import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import spans  # noqa: E402


def test_self_time_on_synthetic_span_tree(tmp_path):
    ticks = iter([0, 10, 20, 30, 40, 50, 90, 100])
    rec = spans.Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap(lambda: None, "leaf")
    mid = rec.wrap(lambda: leaf(), "mid")

    def body():
        mid()  # mid [10, 40] holding leaf [20, 30]
        leaf()  # leaf [50, 90]

    rec.wrap(body, "root")()  # root [0, 100]
    want = {"root": (1, 30e-9), "mid": (1, 20e-9), "leaf": (2, 50e-9)}
    assert spans.summarize(rec) == pytest.approx(want)

    rec.add("bytes", 7)
    rec.dump(tmp_path / "spans.bin")
    loaded = spans.load(tmp_path / "spans.bin")
    assert spans.summarize(loaded) == pytest.approx(want)
    assert list(loaded.parents) == [-1, 0, 1, 0]
    assert loaded.counters == {"bytes": 7}


def test_install_wraps_every_binding_and_skips_missing(monkeypatch):
    import dlms.filters
    import dlms.network

    for module in (dlms.filters, dlms.network):
        monkeypatch.setattr(module, "lms_step", module.lms_step)
    rec = spans.Recorder()
    spans.install(rec, "dlms", ("filters.lms_step", "filters.no_such_function"))
    assert dlms.network.lms_step is dlms.filters.lms_step
    dlms.network.cta_iteration(
        [dlms.network.AgentState(w=[0.0], psi=[0.0], e=0.0)],
        dlms.network.TrustMatrix.identity(1),
        [dlms.signals.SignalSample(x=(1.0,), y=2.0, q=0.0)], [0.5])
    assert spans.summarize(rec) == {"filters.lms_step": (1, pytest.approx(0, abs=1))}


@pytest.fixture
def tiny(monkeypatch):
    """run_table1 at 2 runs x 20 iterations, with a wrong pinned digest."""
    monkeypatch.chdir(bench.ROOT)
    monkeypatch.setattr(bench, "SETUP_SAMPLES", bench.MIN_COMMANDS)
    (bench.WORK / "out").mkdir(parents=True, exist_ok=True)
    base = bench.WORKLOADS["run_table1"]
    return replace(base, args=(*base.args, "--iterations", "20", "--ensemble", "2"),
                   golden={bench.OUT: "0" * 64})


@pytest.mark.parametrize("seed, fail_ratio", [(bench.DEFAULT_SEED, 1.0), (7, 0.0)])
def test_wrong_golden_digest_fails_every_command(tiny, seed, fail_ratio):
    """At the default seed a wrong pinned digest fails every command; at
    another seed pinned values do not apply and the same command passes."""
    result = bench.bench(tiny, seed, 0, 0, time.perf_counter() + 60, host={})
    assert result["attempted"] == bench.MIN_COMMANDS
    assert result["fail_ratio"] == fail_ratio
    assert result["correct"] is (fail_ratio == 0.0)


def test_times_are_scaled_to_reference_speed(tiny, monkeypatch):
    # a reference loop twice as slow as REF_S halves every reported time
    monkeypatch.setattr(bench, "reference_time", lambda: 2 * bench.REF_S)
    result = bench.bench(tiny, 7, 0, 0, time.perf_counter() + 60, host={})
    samples, metrics = result["samples"], result["metrics"]
    for name in ("wall_s", "setup_s"):
        assert samples[name] == pytest.approx([t / 2 for t in samples[f"unscaled {name}"]])
        assert metrics[name]["value"] == pytest.approx(statistics.median(samples[name]))
    assert metrics["iters_per_s"]["value"] == pytest.approx(
        tiny.iterations / metrics["wall_s"]["value"])


def test_long_horizon_config_parses_validates_and_round_trips():
    from dlms.scenarios import parse, serialize, validate

    scenario = parse((BENCH_DIR / "long_horizon.cfg").read_text())
    validate(scenario)
    assert parse(serialize(scenario)) == scenario
    assert (scenario.ensemble, scenario.iterations, len(scenario.w_opt)) == (2, 20000, 4)
    assert [cfg.kind for cfg in scenario.agents].count("cooperative") == 3


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    layer = bench.layer_metrics(spans.Recorder())
    layer.update({"trace.wall_s": (0.0, "s"), "trace.overhead_s": (0.0, "s")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
