import dataclasses
import math
import sys
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dlms.claims import DELAY_BAND_FRACTION, merge_iteration
from dlms.errors import ConfigError
from dlms.libm import SQUARE_BLOCK, root_square_is_abs, square
from dlms.metrics import (
    EnsembleRecord,
    EnsembleSums,
    convergence_iteration,
    crossing_iteration,
    default_band,
    first_iteration,
    steady_state_start,
    steady_state_variance,
    sum_in_order,
)
from dlms.network import TrustMatrix
from dlms.scenarios import AgentConfig, Scenario, compute_report, run, scenario_band
from dlms.signals import GaussianParams
from oracle import RandomStream, weighted_sum_variance
from strategies import dense_trio_with_twins


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
        w = ws[:, 80:, 0]
        mean = sum_in_order(w, axis=1) / 20
        fold = sum_in_order(sum_in_order(square(w - mean[:, None]), axis=1) / 19, axis=-1)
        assert steady_state_start(100) == 80
        assert repr(steady_state_variance(w)) == repr(fold.tolist())

    def test_square_is_python_float_power(self):
        # with signed zero, the smallest subnormal, a square that underflows,
        # and values that are not finite
        x = [-0.03189758691792563, 0.26540267816087765, 0.1764687496000844, -0.0, 3.0,
             5e-324, 1e-200, float("nan"), float("inf"), -float("inf")]
        assert repr(square(np.array(x).reshape(10, 1)).tolist()) == repr([[v ** 2] for v in x])
        assert square(np.empty((0, 3))).shape == (0, 3)

    def test_square_that_overflows_is_inf(self):
        # as libm's pow returns; Python's float power raises OverflowError
        x = np.array([[3.0, -1e155], [1e155, 5e-324]])
        assert repr(square(x).tolist()) == repr([[9.0, float("inf")], [float("inf"), 0.0]])

    # around sqrt(DBL_MAX) = 1.3407807929942596e154 the squares go from the
    # largest finite ones to overflow; below 1.5e-154 they go subnormal
    ROOT_MAX = math.sqrt(sys.float_info.max)
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-154, 1e-162,
             math.inf, -math.inf, math.nan, -math.nan, ROOT_MAX, -ROOT_MAX,
             math.nextafter(ROOT_MAX, 0.0), math.nextafter(ROOT_MAX, math.inf),
             -math.nextafter(ROOT_MAX, math.inf), 1e155, sys.float_info.max]

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)), max_size=40))
    @example([3.0, -1e155, 0.5, math.nextafter(ROOT_MAX, math.inf), -0.0, math.nan])
    def test_square_is_float_power_bit_for_bit(self, values):
        def float_power(v):
            try:
                return v ** 2
            except OverflowError:  # libm's pow returns inf
                return math.inf

        a = np.array(values, dtype=np.float64)
        a = a.reshape(-1, 2) if len(values) % 2 == 0 else a
        got = square(a)
        assert got.shape == a.shape
        want = np.array([float_power(v) for v in values], dtype=np.float64)
        assert got.ravel().view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("runs", [3, 0])
    def test_sq_dist_is_the_whole_array_expression(self, runs):
        record = run(dense_trio_with_twins(iterations=50, ensemble=3)).head(runs)
        d = record.ws - np.array(record.w_opt)
        assert d.shape == (runs, 50, 7, 4)
        whole = sum_in_order(np.array([v ** 2 for v in d.ravel().tolist()])
                             .reshape(d.shape), axis=-1)
        assert record.sq_dist.shape == whole.shape == (runs, 50, 7)
        assert record.sq_dist.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("shape", [(1, 20000, 7, 4), (2, 3000, 3, 1), (1, 4, 3000, 3),
                                       (100, 80, 5, 1)])
    def test_square_gets_at_most_a_block_at_a_time(self, shape):
        """sq_dist and steady_state_variance pass ``square`` at most
        libm.SQUARE_BLOCK values at once, and every value once, unless one
        iteration (one run's window) alone holds more. Where whole runs fit,
        sq_dist squares as many at a time as fit, and its rows are those of
        each run squared alone, bit for bit."""
        import dlms.libm

        rng = np.random.default_rng(3)
        record = EnsembleRecord(w_opt=(2.0,) * shape[-1], agents=list(map(str, range(shape[2]))),
                                ws=rng.standard_normal(shape), es=None)
        sizes = []

        def counted(a):
            sizes.append(np.size(a))
            return square(a)
        with mock.patch.object(dlms.libm, "square", counted):
            assert record.sq_dist.shape == shape[:3]
            per_call = max(SQUARE_BLOCK, shape[2] * shape[3])
            assert max(sizes) <= per_call and sum(sizes) == record.ws.size
            runs = SQUARE_BLOCK // math.prod(shape[1:])  # per call, where whole runs fit
            if runs:
                assert len(sizes) == -(-shape[0] // runs)
            for r in range(shape[0]):
                alone = dataclasses.replace(record, ws=record.ws[r:r + 1]).sq_dist
                assert alone.tobytes() == record.sq_dist[r:r + 1].tobytes()
            sizes.clear()
            windows = record.ws[:, -1000:, 0]
            steady_state_variance(windows)
            assert max(sizes) <= max(SQUARE_BLOCK, windows[0].size)
            assert sum(sizes) == windows.size


# powers of two, the ends of root_square_is_abs's set and their neighbours,
# subnormals, squares that underflow or overflow, 1.5, zeros, inf and nan,
# of either sign
_ENDS = [2.0**e for e in (-1074, -600, -512, -511, -510, -450, 0, 1, 500, 510, 511, 512,
                          1023)]
_DISTANCE_EDGES = [*_ENDS, *(math.nextafter(v, 0.0) for v in _ENDS),
                   *(math.nextafter(v, math.inf) for v in _ENDS), 0.0, 5e-324, 1.5,
                   math.inf, math.nan]
_DISTANCE_EDGES += [-v for v in _DISTANCE_EDGES]


def _bits(values):
    return np.asarray(values, np.float64).view(np.uint64).tolist()


def _edge_record(m, w_opt):
    """Two runs of three agents, the edge values (reversed in run 1) spread
    over their estimates' m components."""
    values = np.array(_DISTANCE_EDGES)
    ws = np.resize(values, (2, -(-len(values) // (3 * m)), 3, m))
    ws[1] = ws[1][::-1]
    return EnsembleRecord((w_opt,) * m, ["c", "a", "b"], ws, np.zeros(ws.shape[:3]))


class TestDistOpt:
    """``EnsembleRecord.dist_opt``, the trajectory CSV's distances: the bits
    of ``pow(s, 0.5)`` of each squared distance s."""

    @pytest.mark.parametrize("m, w_opt", [(1, 0.0), (1, -1.5), (3, 0.0), (3, 0.75)])
    def test_per_value_pow_of_sq_dist(self, m, w_opt):
        record = _edge_record(m, w_opt)
        for r in range(len(record)):
            with np.errstate(over="ignore"):  # finite squares that sum to inf
                got = record.dist_opt(r)
            assert got.shape == record.sq_dist[r].shape
            assert _bits(got) == _bits([[pow(s, 0.5) for s in row]
                                        for row in record.sq_dist[r].tolist()])

    def test_sq_dist_past_overflow_is_inf(self):
        """Three components of 1.5 2^511 square to finite 1.125 2^1023 each,
        whose sum passes the largest double: ``inf`` with no warning, which
        the suite's filter would raise."""
        ws = np.full((1, 1, 1, 3), 1.5 * 2.0**511)
        record = EnsembleRecord((0.0,) * 3, ["a"], ws, np.zeros((1, 1, 1)))
        assert np.isfinite(square(ws)).all()
        assert record.sq_dist.tolist() == [[[math.inf]]]

    def test_m1_on_root_square_is_abs_leaves_sq_dist_uncomputed(self):
        """At M = 1, with every distance on ``root_square_is_abs``'s set, the
        distances are |w - w_opt| and the squared distances stay uncomputed,
        so the writer holds none of them."""
        values = np.array(_DISTANCE_EDGES)
        values = values[root_square_is_abs(np.abs(values))]
        assert len(values) > len(_DISTANCE_EDGES) // 3
        ws = values.reshape(1, -1, 1, 1)
        record = EnsembleRecord((0.0,), ["a"], ws, np.zeros(ws.shape[:3]))
        got = record.dist_opt(0)
        assert "sq_dist" not in record.__dict__
        assert _bits(got) == _bits(np.abs(ws[0, :, :, 0]))
        assert _bits(got) == _bits([[pow(s, 0.5)] for s in record.sq_dist[0, :, 0].tolist()])

    def test_dist_and_dist_opt_round_apart(self):
        """The detectors read ``dist``, the IEEE ``sqrt`` of the squared
        distance; the CSV writes ``dist_opt``, libm's ``pow(s, 0.5)``. They
        differ on about 1 in 1,100 random doubles. A seeded search finds such
        an s for an M = 2 estimate: merging the two distances would move
        convergence or crossing iterations, or the CSV's bytes."""
        rng = np.random.default_rng(1100)
        for w in rng.uniform(-4.0, 4.0, (100_000, 2)).tolist():
            s = 0.0 + w[0] ** 2 + w[1] ** 2
            if math.sqrt(s) != s ** 0.5:
                break
        else:
            pytest.fail("no squared distance whose sqrt and pow(s, 0.5) differ")
        ws = np.array([w, [0.0, 0.0]]).reshape(1, 1, 2, 2)  # b at w_opt
        record = EnsembleRecord((0.0, 0.0), ["a", "b"], ws, np.zeros((1, 1, 2)))
        assert record.sq_dist[0, 0, 0] == s
        assert record.dist("a").tolist() == [[math.sqrt(s)]]
        assert record.dist_opt(0).tolist() == [[s ** 0.5, 0.0]]


def msd_series(record, agent):
    return EnsembleSums().add(record).msd([agent])[:, 0].tolist()


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
    @staticmethod
    def _variance(trajectory):
        rec = _record({"a": trajectory})
        return steady_state_variance(rec.w("a")[:, steady_state_start(rec.iterations):])

    def test_constant_trajectory(self):
        assert self._variance([1.0] * 20)[0] == 0.0

    def test_alternating_window(self):
        # the last 20% of 20 iterations is 0,1,0,1: sample variance 1/3
        assert self._variance([5.0] * 16 + [0.0, 1.0, 0.0, 1.0])[0] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("shape", [(100, 200, 1), (7, 600, 3)])
    def test_batches_of_runs_are_the_per_run_fold(self, shape):
        # 2^13 values a batch: 40 + 40 + 20 runs of 200 x 1, and 4 + 3 of 600 x 3
        rng = np.random.default_rng(7)
        w = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, (shape[0], 1, 1))
        n = shape[1]
        want = [sum_in_order(sum_in_order(square(run - sum_in_order(run) / n)) / (n - 1))
                for run in w]
        got = steady_state_variance(w)
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_window_too_short(self):
        # the last 20% of at most 5 iterations is a single sample
        for length in (1, 4, 5):
            with pytest.raises(ConfigError, match=f"^steady-state variance needs "
                                                  f"iterations >= 6, got {length}$"):
                steady_state_start(length)
        assert steady_state_start(6) == 4


class TestConvergenceIteration:
    def test_immediate(self):
        rec = _record({"a": [2.0, 2.01, 1.99]})
        assert convergence_iteration(rec, "a", 0.1)[0] == 1

    def test_never(self):
        rec = _record({"a": [0.0, 0.5, 1.0]})
        assert convergence_iteration(rec, "a", 0.1)[0] == 4

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
        assert crossing_iteration(rec, "p", "q")[0] == 3

    def test_order_preserved(self):
        rec = _record({"p": [1.9, 1.95], "q": [0.0, 0.5]})
        assert crossing_iteration(rec, "p", "q")[0] == 3

    def test_crossing_at_five(self):
        p = [0.0, 0.4, 0.8, 1.2, 1.8, 1.9]
        q = [1.0, 1.2, 1.4, 1.5, 1.6, 1.7]
        rec = _record({"p": p, "q": q})
        assert crossing_iteration(rec, "p", "q")[0] == 5

    # distances to w_opt = 2.0
    @pytest.mark.parametrize("p, q, expected", [
        ([0.0], [1.0], 2),
        ([0.0, 1.9], [1.0, 1.0], 2),
        ([1.0, 0.0, 1.9], [3.0, 1.0, 1.0], 4),
        ([math.inf, 3.0, 1.9], [1.0, 1.0, 1.0], 3),
        ([math.inf, 1.9], [-math.inf, 1.0], 3),
    ], ids=["one_iteration", "flip_at_two", "tie_at_one", "inf_at_one", "nan_diff_at_one"])
    def test_short_horizons_and_start_values(self, p, q, expected):
        """One or two iterations; a tie at the start never flips; from an
        infinite distance at the start, the first iteration closer than q
        flips (inf * 0.0 at a tie is NaN, not a flip); both infinite at the
        start is a NaN difference, which never flips."""
        rec = _record({"p": p, "q": q})
        assert crossing_iteration(rec, "p", "q").tolist() == [expected]

    def test_vector_weights_rejected(self):
        rec = _record({"p": [[0.0, 0.0]], "q": [[1.0, 1.0]]}, w_opt=(1.0, 1.0))
        with pytest.raises(ConfigError):
            crossing_iteration(rec, "p", "q")


# Around w_opt = 2.0: inside and outside the convergence band (0.2 for agents
# that start at 0.0) and the merge band (0.02), ties, and NaN distances.
DETECTOR_VALUES = (2.0, 2.005, 2.1, 1.85, 2.2, 1.0, 0.0, 3.5, math.nan)


@st.composite
def detector_records(draw):
    """A record of 1-4 runs of agents p, q and r over 1-30 iterations; each
    trajectory takes its values from DETECTOR_VALUES, or stays at one of them
    (all inside or all outside a band)."""
    length = draw(st.integers(1, 30))
    trajectory = st.one_of(
        st.lists(st.sampled_from(DETECTOR_VALUES), min_size=length, max_size=length),
        st.sampled_from(DETECTOR_VALUES).map(lambda v: [v] * length))
    runs = draw(st.lists(st.fixed_dictionaries({a: trajectory for a in "pqr"}),
                         min_size=1, max_size=4))
    return _record(*runs)


def first_hit(hits, never):
    return next((i + 1 for i, hit in enumerate(hits) if hit), never)


def converged_at(dist, band):
    """The smallest i, 1 to len(dist) + 1, with no distance from i on outside the band."""
    return next(i + 1 for i in range(len(dist) + 1) if not any(d > band for d in dist[i:]))


def crossed_at(dp, dq):
    return next((i + 1 for i in range(1, len(dp)) if (dp[0] - dq[0]) * (dp[i] - dq[i]) < 0),
                len(dp) + 1)


def merged_at(ws, threshold):
    """The first iteration where every pair of the trajectories ``ws`` is closer
    than ``threshold``."""
    return next((i + 1 for i in range(len(ws[0]))
                 if all(math.sqrt((a[i] - b[i]) * (a[i] - b[i])) < threshold
                        for a, b in combinations(ws, 2))), len(ws[0]) + 1)


class TestDetectorsAgainstScans:
    """Every detector against a scan in plain Python, "never" as iterations + 1."""

    @given(st.integers(1, 30).flatmap(lambda n: st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=4)))
    def test_first_iteration(self, rows):
        never = len(rows[0]) + 1
        assert first_iteration(np.array(rows), never).tolist() == \
            [first_hit(row, never) for row in rows]

    @settings(deadline=None)
    @given(detector_records())
    def test_detectors(self, record):
        band = 0.2
        for aid in "pqr":
            assert convergence_iteration(record, aid, band).tolist() == \
                [converged_at(d, band) for d in record.dist(aid).tolist()]
        for p, q in combinations("pqr", 2):
            assert crossing_iteration(record, p, q).tolist() == \
                [crossed_at(dp, dq) for dp, dq in
                 zip(record.dist(p).tolist(), record.dist(q).tolist())]
        threshold = DELAY_BAND_FRACTION * 2.0
        for ids in (["p", "q"], ["p", "q", "r"]):
            assert merge_iteration(record, ids).tolist() == \
                [merged_at([record.w(aid)[r, :, 0].tolist() for aid in ids], threshold)
                 for r in range(len(record))]

    @settings(deadline=None)
    @given(detector_records())
    def test_report_writes_never_as_empty(self, record):
        agents = tuple(AgentConfig(aid, "standalone", mu=0.1, w0=(0.0,),
                                   input=GaussianParams(0.0, 1.0),
                                   noise=GaussianParams(0.0, 0.1)) for aid in "pqr")
        scenario = Scenario(agents=agents, trust=TrustMatrix.identity(3),
                            iterations=record.iterations, ensemble=len(record))
        sums = EnsembleSums().add(record)
        _, rows = compute_report(scenario, sums)
        mean = sums.mean()
        never = record.iterations + 1

        def expected(iteration):
            return "" if iteration == never else iteration

        band = scenario_band(scenario)
        assert band == 0.2
        assert [row for row in rows if row[0] == "convergence_iter"] == [
            ["convergence_iter", aid, "", expected(converged_at(mean.dist(aid)[0].tolist(), band))]
            for aid in "pqr"]
        assert [row for row in rows if row[0] == "crossing_iter"] == [
            ["crossing_iter", f"{p}:{q}", "",
             expected(crossed_at(mean.dist(p)[0].tolist(), mean.dist(q)[0].tolist()))]
            for p, q in combinations("pqr", 2)]
        values = [row[3] for row in rows if row[0] in ("convergence_iter", "crossing_iter")]
        assert {type(v) for v in values} <= {int, str}


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
    # a squared distance that overflows is inf, as libm's pow returns
    assert default_band([(1e155,)], (0.0,)) == float("inf")
