import random

import pytest
from hypothesis import given, strategies as st

from dlms.errors import ConfigError
from dlms.network import (
    AgentState,
    TrustMatrix,
    combine,
    cta_iteration,
)
from dlms.signals import SignalSample
from oracle import averaging_update, pairwise_combine


def _sample(x, y):
    return SignalSample(x=(x,), y=y, q=0.0)


class TestTrustMatrix:
    def test_valid(self):
        t = TrustMatrix(((0.5, 0.5), (0.1, 0.9)))
        assert t.size == 2

    def test_row_sum_enforced(self):
        with pytest.raises(ConfigError, match="row sum"):
            TrustMatrix(((0.6, 0.6), (0.5, 0.5)))

    def test_entry_range_enforced(self):
        with pytest.raises(ConfigError):
            TrustMatrix(((1.5, -0.5), (0.5, 0.5)))

    def test_identity(self):
        t = TrustMatrix.identity(3)
        assert all(t.is_identity_row(a) for a in range(3))


class TestCombine:
    def test_balanced_average(self):
        assert combine([0.5, 0.5], [[0.0], [1.0]]) == [0.5]

    def test_identity_trust_is_bit_exact(self):
        w = [0.12345678901234567]
        assert combine([1.0, 0.0], [w, [9.9]]) == w

    def test_selfish_row(self):
        assert combine([0.9, 0.1], [[0.0], [1.0]]) == [pytest.approx(0.1)]

    def test_convexity(self):
        rng = random.Random(2)
        for _ in range(200):
            s = rng.random()
            row = [s, 1.0 - s]
            ws = [[rng.uniform(-5, 5)], [rng.uniform(-5, 5)]]
            out = combine(row, ws)[0]
            lo = min(w[0] for w in ws)
            hi = max(w[0] for w in ws)
            assert lo - 1e-12 <= out <= hi + 1e-12


class TestPairwiseCombine:
    def test_no_trust(self):
        assert pairwise_combine([0.3], [0.9], 0.0) == [0.3]

    def test_full_trust(self):
        assert pairwise_combine([0.3], [0.9], 1.0) == [0.9]

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            pairwise_combine([0.0], [1.0], 1.5)

    @given(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(0, 1),
    )
    def test_equivalent_to_combine(self, wa, wb, s):
        """w_a + s*(w_b - w_a) equals the convex combination row [1-s, s]."""
        direct = pairwise_combine([wa], [wb], s)
        via_row = combine([1.0 - s, s], [[wa], [wb]])
        assert abs(direct[0] - via_row[0]) < 1e-14 * max(1.0, abs(wa), abs(wb))


class TestAveragingUpdate:
    def test_two_point_mean(self):
        assert averaging_update([[0.0], [1.0]]) == [0.5]

    def test_single_source_identity(self):
        assert averaging_update([[0.7]]) == [0.7]

    def test_three_sources(self):
        assert averaging_update([[0.2], [0.4], [0.9]]) == [pytest.approx(0.5)]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            averaging_update([])


class TestCtaIteration:
    def _two_agent_states(self, w0_a, w0_b):
        return [AgentState([w0_a], [w0_a], 0.0), AgentState([w0_b], [w0_b], 0.0)]

    def test_hand_trace(self):
        """Fixed-input two-iteration trace, executed by hand:

        iteration 1: psi_a = psi_b = 0.5, e = 0.5, w = 0.75
        iteration 2: psi = 0.75, e = 0.25, w = 0.875
        """
        trust = TrustMatrix(((0.5, 0.5), (0.5, 0.5)))
        states = self._two_agent_states(0.0, 1.0)
        samples = [_sample(1.0, 1.0), _sample(1.0, 1.0)]
        states = cta_iteration(states, trust, samples, [0.5, 0.5])
        for st_ in states:
            assert st_.psi == [0.5]
            assert st_.e == 0.5
            assert st_.w == [0.75]
        states = cta_iteration(states, trust, samples, [0.5, 0.5])
        for st_ in states:
            assert st_.psi == [0.75]
            assert st_.e == 0.25
            assert st_.w == [0.875]

    def test_symmetric_trust_equal_psi(self):
        trust = TrustMatrix(((0.5, 0.5), (0.5, 0.5)))
        states = self._two_agent_states(0.1, 0.9)
        rng = random.Random(4)
        for _ in range(50):
            samples = [_sample(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
            states = cta_iteration(states, trust, samples, [0.3, 0.7])
            assert states[0].psi == states[1].psi

    def test_identity_trust_reduces_to_lms(self):
        from dlms.filters import lms_step

        trust = TrustMatrix.identity(2)
        states = self._two_agent_states(0.0, 1.0)
        expected = [[0.0], [1.0]]
        rng = random.Random(6)
        for _ in range(100):
            samples = [_sample(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
            states = cta_iteration(states, trust, samples, [0.5, 0.5])
            for a in range(2):
                w, _ = lms_step(expected[a], samples[a].x, samples[a].y, 0.5)
                expected[a] = w
                assert states[a].w == w

    def test_update_order_invariance(self):
        """Permuting agents (with trust, samples, mus permuted to match)
        leaves every trajectory bit-identical: psi only reads i-1 weights."""
        rng = random.Random(8)
        trust = TrustMatrix(((0.7, 0.3), (0.2, 0.8)))
        trust_p = TrustMatrix(((0.8, 0.2), (0.3, 0.7)))
        states = self._two_agent_states(0.0, 1.0)
        states_p = [states[1], states[0]]
        mus = [0.4, 0.6]
        for _ in range(50):
            samples = [_sample(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
            states = cta_iteration(states, trust, samples, mus)
            states_p = cta_iteration(states_p, trust_p, samples[::-1], mus[::-1])
            assert states[0].w == states_p[1].w
            assert states[1].w == states_p[0].w

    def test_averaging_follows_current_iteration(self):
        trust = TrustMatrix.identity(2)
        states = self._two_agent_states(0.0, 1.0)
        samples = [_sample(1.0, 2.0), _sample(1.0, 2.0)]
        states = cta_iteration(states, trust, samples, [0.5, 0.5])
        follower = averaging_update([st.w for st in states])
        assert follower == [(states[0].w[0] + states[1].w[0]) / 2]

    def test_misaligned_inputs_rejected(self):
        trust = TrustMatrix.identity(2)
        states = self._two_agent_states(0.0, 1.0)
        with pytest.raises(ConfigError):
            cta_iteration(states, trust, [_sample(1.0, 1.0)], [0.5, 0.5])
