import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlms.errors import ConfigError
from dlms.metrics import (
    EnsembleRecord,
    convergence_iteration,
    crossing_iteration,
    default_band,
    msd_series,
    square,
    steady_state_variance,
    sum_in_order,
)
from oracle import RandomStream, weighted_sum_variance


def _record(*runs, w_opt=(2.0,)):
    """Record of the given runs, each a dict {agent: [w(1), w(2), ...]}; an
    estimate is a number (M = 1) or a list of M components."""
    agents = sorted(runs[0]) if runs else []
    length = len(runs[0][agents[0]]) if runs else 0
    ws = np.array([[[run[a][i] for a in agents] for i in range(length)] for run in runs],
                  dtype=np.float64)
    ws = ws.reshape(len(runs), length, len(agents), len(w_opt))
    return EnsembleRecord(w_opt=tuple(w_opt), agents=agents, ws=ws,
                          es=np.zeros(ws.shape[:3]))


class TestReductionOrder:
    # each 1.0 is lost against 1e16 when added in order; a pairwise or
    # compensated sum keeps some of them
    VALUES = [1e16] + [1.0] * 18 + [-1e16]
    # mean 0.0 in any order; the squares are 2^54 twice and 1.0 eighteen
    # times, which a pairwise sum of them keeps some of
    SQUARES = [2.0 ** 27, -2.0 ** 27] + [1.0, -1.0] * 9

    def test_sum_in_order_of_floats(self):
        assert sum_in_order(self.VALUES) == 0.0

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_sum_in_order_along_axis(self, axis):
        a = np.moveaxis(np.broadcast_to(np.array(self.VALUES)[:, None, None], (20, 2, 3)),
                        0, axis)
        total = sum_in_order(a, axis)
        assert total.shape == (2, 3)
        assert (total == 0.0).all()

    @pytest.mark.parametrize("window", [VALUES, SQUARES, [-0.0] * 20],
                             ids=["cancelling", "squares", "negative-zeros"])
    def test_steady_state_variance_is_the_fold(self, window):
        # 100 iterations leave a window of 20; two runs, scalar weights
        ws = np.array([[0.5] * 80 + window] * 2).reshape(2, 100, 1, 1)
        rec = EnsembleRecord(w_opt=(0.0,), agents=["a"], ws=ws, es=np.zeros(ws.shape[:3]))
        w = ws[:, 80:, 0]
        mean = sum_in_order(w, axis=1) / 20
        fold = sum_in_order(sum_in_order(square(w - mean[:, None]), axis=1) / 19, axis=-1)
        assert repr(steady_state_variance(rec, "a")) == repr(fold.tolist())

    def test_square_is_python_float_power(self):
        x = [-0.03189758691792563, 0.26540267816087765, 0.1764687496000844, -0.0, 3.0]
        assert square(np.array(x).reshape(5, 1)).tolist() == [[v ** 2] for v in x]


class TestMsdSeries:
    def test_zero_deviation(self):
        rec = _record({"a": [2.0, 2.0, 2.0]})
        assert msd_series(rec, "a") == [0.0, 0.0, 0.0]

    def test_squared_distance(self):
        rec = _record({"a": [0.5]})
        assert msd_series(rec, "a") == [2.25]

    def test_ensemble_mean(self):
        r1 = {"a": [0.0]}
        r2 = {"a": [1.0]}
        assert msd_series(_record(r1, r2, w_opt=(1.0,)), "a") == [0.5]

    def test_reorder_invariant(self):
        r1 = {"a": [0.1, 0.4]}
        r2 = {"a": [0.9, 1.3]}
        assert msd_series(_record(r1, r2), "a") == msd_series(_record(r2, r1), "a")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            msd_series(_record(), "a")


class TestSteadyStateVariance:
    def test_constant_trajectory(self):
        rec = _record({"a": [1.0] * 20})
        assert steady_state_variance(rec, "a")[0] == 0.0

    def test_alternating_window(self):
        # the last 20% of 20 iterations is 0,1,0,1: sample variance 1/3
        rec = _record({"a": [5.0] * 16 + [0.0, 1.0, 0.0, 1.0]})
        assert steady_state_variance(rec, "a")[0] == pytest.approx(1 / 3)

    def test_window_too_short(self):
        # the last 20% of 4 iterations is a single sample
        rec = _record({"a": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(ConfigError):
            steady_state_variance(rec, "a")


class TestConvergenceIteration:
    def test_immediate(self):
        rec = _record({"a": [2.0, 2.01, 1.99]})
        assert convergence_iteration(rec, "a", 0.1)[0] == 1

    def test_never(self):
        rec = _record({"a": [0.0, 0.5, 1.0]})
        assert convergence_iteration(rec, "a", 0.1)[0] is None

    def test_reentry(self):
        # inside at 10, out at 12, inside for good at 30
        traj = [0.0] * 9 + [2.0, 2.0, 0.0] + [0.0] * 17 + [2.0] * 11
        assert len(traj) == 40
        rec = _record({"a": traj})
        assert convergence_iteration(rec, "a", 0.1)[0] == 30

    def test_band_must_be_positive(self):
        rec = _record({"a": [2.0]})
        with pytest.raises(ConfigError):
            convergence_iteration(rec, "a", 0.0)


class TestCrossingIteration:
    def test_identical_trajectories(self):
        rec = _record({"p": [0.0, 1.0], "q": [0.0, 1.0]})
        assert crossing_iteration(rec, "p", "q")[0] is None

    def test_order_preserved(self):
        rec = _record({"p": [1.9, 1.95], "q": [0.0, 0.5]})
        assert crossing_iteration(rec, "p", "q")[0] is None

    def test_crossing_at_five(self):
        p = [0.0, 0.4, 0.8, 1.2, 1.8, 1.9]
        q = [1.0, 1.2, 1.4, 1.5, 1.6, 1.7]
        rec = _record({"p": p, "q": q})
        assert crossing_iteration(rec, "p", "q")[0] == 5

    def test_vector_weights_rejected(self):
        rec = _record({"p": [[0.0, 0.0]], "q": [[1.0, 1.0]]}, w_opt=(1.0, 1.0))
        with pytest.raises(ConfigError):
            crossing_iteration(rec, "p", "q")


class TestWeightedSumVariance:
    def test_table_values(self):
        # balanced weights on variances 0.01^2 and 0.2^2
        assert weighted_sum_variance(0.5, 0.5, 0.01**2, 0.2**2) == \
            pytest.approx(0.010025)

    def test_degenerate_weights(self):
        assert weighted_sum_variance(1.0, 0.0, 0.7, 0.3) == 0.7

    def test_averaging_halves_equal_variance(self):
        v = 0.4
        assert weighted_sum_variance(0.5, 0.5, v, v) == pytest.approx(v / 2)

    @given(
        st.floats(0, 1),
        st.floats(0, 10), st.floats(0, 10),
    )
    def test_dominance(self, s, var_x, var_y):
        """With independent inputs and convex weights the combined variance
        never exceeds the larger input variance."""
        z = weighted_sum_variance(s, 1.0 - s, var_x, var_y)
        assert z <= max(var_x, var_y) + 1e-12

    def test_empirical_match(self):
        s1, s2 = RandomStream(21), RandomStream(22)
        n = 100_000
        zs = [0.5 * s1.next_gaussian(0, 0.01) + 0.5 * s2.next_gaussian(0, 0.2)
              for _ in range(n)]
        mean = sum(zs) / n
        var = sum((z - mean) ** 2 for z in zs) / (n - 1)
        assert abs(var - 0.010025) / 0.010025 < 0.05


def test_default_band():
    assert default_band([(0.0,), (1.0,)], (2.0,)) == pytest.approx(0.15)
    with pytest.raises(ConfigError):
        default_band([(2.0,)], (2.0,))
