"""Memory budgets of the largest in-process simulations.

tracemalloc sees numpy's array buffers as well as Python objects, so a
traced peak is a deterministic stand-in for the peak resident size of the
matching command, without timing noise or interpreter start-up. Measured
peaks with numpy 2.4.6, in the order of the tests: 25.56 MB, 17.53 MB,
12.48 MB, 8.18 MB and 24.81 MB.
"""

import tracemalloc

import dlms.engine  # numpy and the engine load before tracing
import dlms.prng
from dlms.claims import verify_delay
from dlms.scenarios import builtin, run, with_trust
from strategies import dense_trio_with_twins

MB = 1e6


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_delay_peak():
    """Both 100 x 1000 networks of the selfish table1 are held at once."""
    s = builtin("table1")
    selfish = with_trust(s, [(0.9, 0.1, 0.0, 0.0), (0.1, 0.9, 0.0, 0.0),
                             *s.trust.rows[2:]])
    assert _traced_peak(verify_delay, selfish) <= 27 * MB


def test_run_table1_peak():
    assert _traced_peak(run, builtin("table1")) <= 23 * MB


def test_run_table1_in_blocks_peak(monkeypatch):
    """table1's signals in four blocks of iterations, at most 2^17 draws
    each: the records and one block's signals, with no room for a second
    block or a temporary the size of the records."""
    monkeypatch.setattr(dlms.engine, "_CHUNK_DRAWS", 1 << 17)
    assert _traced_peak(run, builtin("table1")) <= 13 * MB


def test_run_table1_fill_and_scan_peak(monkeypatch):
    """With blocks of 10 iterations and of 4096 draws in the generator the
    signals are small, so the peak is table1's 8.0 MB of records plus the
    largest temporary: the averaging fill and the divergence scan may not
    hold one agent's trajectories of every run at once."""
    monkeypatch.setattr(dlms.engine, "_CHUNK_DRAWS", 1 << 12)
    monkeypatch.setattr(dlms.prng, "_BLOCK_DRAWS", 1 << 12)
    assert _traced_peak(run, builtin("table1")) <= 8.5 * MB


def test_long_horizon_peak():
    """2 x 20,000 iterations with vector weights: the records and one block's
    signals, with no room for a second copy of the signals."""
    assert _traced_peak(run, dense_trio_with_twins(iterations=20000, ensemble=2)) <= 27 * MB
