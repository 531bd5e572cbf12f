"""Memory budgets of the largest in-process simulations.

tracemalloc sees numpy's array buffers as well as Python objects, so a
traced peak is a deterministic stand-in for the peak resident size of the
matching command, without timing noise or interpreter start-up. Measured
peaks with numpy 2.4.6, in the order of the tests: 25.50 MB, 17.49 MB and
24.81 MB.
"""

import tracemalloc

import dlms.engine  # noqa: F401  numpy and the engine load before tracing
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


def test_long_horizon_peak():
    """2 x 20,000 iterations with vector weights: the records and one chunk's
    signals, with no room for a second copy of the signals."""
    assert _traced_peak(run, dense_trio_with_twins(iterations=20000, ensemble=2)) <= 27 * MB
