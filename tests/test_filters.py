import math
import random

import pytest

from dlms.errors import ConfigError, DivergenceError
from dlms.filters import check_weights, lms_step, predict
from oracle import batch_gd_step, cost


class TestPredict:
    def test_zero_weights(self):
        assert predict([0.0], [5.0]) == 0.0

    def test_dot_product(self):
        assert predict([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_adds_left_to_right(self):
        # a compensated sum (Python 3.12's builtin sum) would return 1.0
        assert predict([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            predict([1.0], [1.0, 2.0])


class TestCost:
    def test_single_sample(self):
        assert cost([0.0], [[1.0]], [1.0]) == 0.5

    def test_zero_at_fit(self):
        assert cost([2.0], [[1.0], [3.0]], [2.0, 6.0]) == 0.0

    def test_hand_arithmetic(self):
        # residuals 1 and 3 -> (1+9)/4 = 2.5
        assert cost([0.0], [[1.0], [1.0]], [1.0, 3.0]) == 2.5

    def test_empty_dataset(self):
        with pytest.raises(ConfigError):
            cost([0.0], [], [])


class TestBatchGdStep:
    def test_single_sample_exact(self):
        assert batch_gd_step([0.0], [[1.0]], [1.0], 1.0) == [1.0]

    def test_stationary_at_optimum(self):
        xs, ys = [[1.0], [2.0]], [3.0, 6.0]
        assert batch_gd_step([3.0], xs, ys, 0.5) == [3.0]

    def test_hand_arithmetic(self):
        # w=0, mu=0.5, samples ([1],1),([2],1): w' = 0.5*(1+2)/2 = 0.75
        assert batch_gd_step([0.0], [[1.0], [2.0]], [1.0, 1.0], 0.5) == [0.75]

    def test_matches_finite_difference_gradient(self):
        """Update direction equals -grad(cost) within 1e-5 relative error."""
        rng = random.Random(1234)
        for _ in range(100):
            m = rng.randint(1, 3)
            ell = rng.randint(1, 10)
            w = [rng.uniform(-2, 2) for _ in range(m)]
            xs = [[rng.uniform(-2, 2) for _ in range(m)] for _ in range(ell)]
            ys = [rng.uniform(-2, 2) for _ in range(ell)]
            stepped = batch_gd_step(w, xs, ys, 1.0)
            update = [sj - wj for sj, wj in zip(stepped, w)]
            h = 1e-6
            for j in range(m):
                wp = list(w)
                wm = list(w)
                wp[j] += h
                wm[j] -= h
                fd = (cost(wp, xs, ys) - cost(wm, xs, ys)) / (2 * h)
                scale = max(abs(update[j]), abs(fd), 1e-8)
                assert abs(update[j] + fd) / scale < 1e-5

    def test_monotone_descent_small_mu(self):
        rng = random.Random(7)
        for _ in range(20):
            m = rng.randint(1, 3)
            ell = rng.randint(2, 10)
            xs = [[rng.uniform(-1, 1) for _ in range(m)] for _ in range(ell)]
            ys = [rng.uniform(-1, 1) for _ in range(ell)]
            # mu below 1/lambda_max(X X^T / L); trace bound is sufficient
            trace = sum(x[j] ** 2 for x in xs for j in range(m)) / ell
            mu = 0.9 / trace
            w = [rng.uniform(-1, 1) for _ in range(m)]
            before = cost(w, xs, ys)
            after = cost(batch_gd_step(w, xs, ys, mu), xs, ys)
            assert after <= before + 1e-12


class TestLmsStep:
    def test_direct_arithmetic(self):
        w, e = lms_step([0.0], [1.0], 1.0, 0.5)
        assert e == 1.0
        assert w == [0.5]

    def test_fixed_point_at_optimum(self):
        w, e = lms_step([2.0], [0.7], 1.4, 0.3)
        assert e == 0.0
        assert w == [2.0]

    def test_hand_oracle(self):
        # psi=0.5, mu=0.2, x=2, y=0.8: e=-0.2, w=0.42
        w, e = lms_step([0.5], [2.0], 0.8, 0.2)
        assert e == pytest.approx(-0.2)
        assert w[0] == pytest.approx(0.42)

    def test_mu_zero_freezes(self):
        rng = random.Random(5)
        for _ in range(50):
            psi = [rng.uniform(-3, 3)]
            w, _ = lms_step(psi, [rng.uniform(-3, 3)], rng.uniform(-3, 3), 0.0)
            assert w == psi

    def test_non_finite_input_raises(self):
        with pytest.raises(DivergenceError):
            lms_step([math.inf], [1.0], 1.0, 0.5)

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigError):
            lms_step([0.0], [1.0], 1.0, -0.1)


def test_check_weights_bound():
    check_weights([1e11])
    with pytest.raises(DivergenceError):
        check_weights([1e13])
    with pytest.raises(DivergenceError):
        check_weights([math.nan])


def test_scalar_mean_stability():
    """The deterministic recursion E[w] contracts iff 0 < mu*E[x^2] < 2."""
    rng = random.Random(99)

    def simulate(mu, sd, steps=2000):
        w = 0.0
        for _ in range(steps):
            x = rng.gauss(0.0, sd)
            try:
                [w], _ = lms_step([w], [x], 2.0 * x, mu)
            except DivergenceError:
                return None
        return w

    # mu*sigma_x^2 = 0.5: converges
    assert abs(simulate(0.5, 1.0) - 2.0) < 0.2
    # mu*sigma_x^2 = 2.5: diverges and is detected
    assert simulate(2.5, 1.0) is None
