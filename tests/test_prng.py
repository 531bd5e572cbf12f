import math

import pytest

from dlms import prng
from dlms.errors import ConfigError
from dlms.prng import derive_seed, gaussian_block
from oracle import RandomStream


def test_splitmix64_seed0_golden():
    # reference value of the published SplitMix64 recurrence
    assert RandomStream(0).next_u64() == 0xE220A8397B1DCDAF


def test_generator_not_constant():
    s = RandomStream(0)
    assert s.next_u64() != s.next_u64()


def test_same_seed_same_sequence():
    s1, s2 = RandomStream(42), RandomStream(42)
    assert [s1.next_u64() for _ in range(1000)] == [s2.next_u64() for _ in range(1000)]


def test_uniform_range_strict():
    s = RandomStream(123)
    for _ in range(10_000):
        u = s.next_uniform()
        assert 0.0 < u <= 1.0


def test_uniform_mapping_extremes():
    # ((u64 >> 11) + 1) / 2^53 maps all-zero top bits to 2^-53 and
    # all-one top bits to exactly 1.0
    assert ((0 >> 11) + 1) / 2**53 == 2.0**-53
    assert (((2**64 - 1) >> 11) + 1) / 2**53 == 1.0


def test_uniform_mean():
    s = RandomStream(1)
    n = 100_000
    mean = sum(s.next_uniform() for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.005


def test_gaussian_known_uniforms():
    # u1 = e^-2, u2 = 1 gives z0 = sqrt(4)*cos(2*pi) = 2
    # (uniforms lie in (0, 1], so the cos(0) case appears as u2 = 1)
    class Fixed(RandomStream):
        def __init__(self, values):
            super().__init__(0)
            self._values = list(values)

        def next_uniform(self):
            return self._values.pop(0)

    s = Fixed([math.exp(-2), 1.0])
    assert s.next_gaussian(0.0, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_gaussian_zero_sd_is_degenerate():
    s = RandomStream(9)
    assert s.next_gaussian(0.7, 0.0) == 0.7


def test_gaussian_negative_sd_rejected():
    with pytest.raises(ConfigError):
        RandomStream(0).next_gaussian(0.0, -1.0)


def test_gaussian_moments():
    s = RandomStream(7)
    n = 100_000
    draws = [s.next_gaussian(0.0, 0.09) for _ in range(n)]
    mean = sum(draws) / n
    sd = math.sqrt(sum((d - mean) ** 2 for d in draws) / (n - 1))
    assert abs(mean) < 4 * 0.09 / math.sqrt(n)
    assert abs(sd - 0.09) / 0.09 < 0.01


def test_box_muller_consumes_two_uniforms_per_pair():
    """The cached sine deviate halves uniform consumption."""
    s = RandomStream(5)
    ref = RandomStream(5)
    s.next_gaussian()
    s.next_gaussian()
    ref.next_uniform()
    ref.next_uniform()
    assert s.state == ref.state
    # a third gaussian starts a new pair
    s.next_gaussian()
    ref.next_uniform()
    ref.next_uniform()
    assert s.state == ref.state


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seeds = {derive_seed(42, k) for k in range(16)}
    assert len(seeds) == 16


@pytest.mark.parametrize("base", [0, 1, 42, (1 << 64) - 1, 0x9C4F2B1D3E5A7F61])
def test_derive_seed_is_the_next_output_of_the_base_stream(base):
    stream = RandomStream(base)
    assert [derive_seed(base, k) for k in range(257)] == \
        [stream.next_u64() for _ in range(257)]


@pytest.mark.parametrize("count", [0, 1, 2, 7, 2000])
def test_gaussian_block_is_the_stream_bit_for_bit(monkeypatch, count):
    seeds = [0, 1, 42, (1 << 64) - 1, derive_seed(7, 3)]
    streams = [RandomStream(seed) for seed in seeds]
    draws = [[s.next_gaussian() for _ in range(count)] for s in streams]
    # at 16 draws per block, count 7 (8 draws a seed) runs blocks of 2, 2 and
    # a ragged 1 seeds and count 2000 one seed per block; at 3, every count
    # but 0 runs one seed per block
    for block_draws in (prng._BLOCK_DRAWS, 16, 3):
        monkeypatch.setattr(prng, "_BLOCK_DRAWS", block_draws)
        block = gaussian_block(seeds, count)
        assert block.shape == (len(seeds), count)
        assert repr(block.tolist()) == repr(draws)
        # a block that starts at an even offset is that slice of the streams;
        # offset 18 starts past the first 16 (or 3) draws
        for start in (k for k in (2, 18, 1000) if k <= count):
            tail = gaussian_block(seeds, count - start, start)
            assert repr(tail.tolist()) == repr([d[start:] for d in draws])
