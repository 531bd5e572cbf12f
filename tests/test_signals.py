import math

import pytest

from dlms.errors import ConfigError
from dlms.signals import GaussianParams, SignalSample
from oracle import RandomStream, generate_sample


def test_negative_sd_rejected():
    with pytest.raises(ConfigError):
        GaussianParams(0.0, -0.1)


def test_sample_arithmetic():
    # w_opt=[1], x=0.5, q=0.1 -> y=0.6
    s = SignalSample(x=(0.5,), y=0.6, q=0.1)
    assert s.y == pytest.approx(1.0 * s.x[0] + s.q)


def test_noiseless_model():
    stream = RandomStream(3)
    sample = generate_sample(stream, (2.0,), GaussianParams(0.0, 0.09),
                             GaussianParams(0.0, 0.0))
    assert sample.q == 0.0
    assert sample.y == 2.0 * sample.x[0]


def test_reconstruction_invariant():
    stream = RandomStream(11)
    w_opt = (1.5, -0.3, 0.7)
    for _ in range(1000):
        s = generate_sample(stream, w_opt, GaussianParams(0.1, 1.0),
                            GaussianParams(0.0, 0.5))
        dot = sum(wi * xi for wi, xi in zip(w_opt, s.x))
        assert abs(s.y - (dot + s.q)) <= 8 * abs(s.y) * 2.0**-52 + 1e-300


def test_stream_budget():
    """Exactly M+1 Gaussians consumed per sample."""
    m = 3
    stream = RandomStream(8)
    ref = RandomStream(8)
    generate_sample(stream, (1.0,) * m, GaussianParams(), GaussianParams())
    for _ in range(m + 1):
        ref.next_gaussian()
    assert stream.state == ref.state
    assert stream.cached_gaussian == ref.cached_gaussian


def test_y_variance():
    # w_opt=[2], input sd 0.09, noise sd 0.03:
    # Var[y] = 4*0.09^2 + 0.03^2 = 0.0333
    stream = RandomStream(17)
    n = 100_000
    ys = [
        generate_sample(stream, (2.0,), GaussianParams(0.0, 0.09),
                        GaussianParams(0.0, 0.03)).y
        for _ in range(n)
    ]
    mean = sum(ys) / n
    var = sum((y - mean) ** 2 for y in ys) / (n - 1)
    expected = 4 * 0.09**2 + 0.03**2
    assert abs(var - expected) / expected < 0.05


def test_distinct_streams_uncorrelated():
    s1, s2 = RandomStream(100), RandomStream(101)
    n = 10_000
    xs1 = [s1.next_gaussian() for _ in range(n)]
    xs2 = [s2.next_gaussian() for _ in range(n)]
    m1, m2 = sum(xs1) / n, sum(xs2) / n
    cov = sum((a - m1) * (b - m2) for a, b in zip(xs1, xs2)) / n
    v1 = sum((a - m1) ** 2 for a in xs1) / n
    v2 = sum((b - m2) ** 2 for b in xs2) / n
    assert abs(cov / math.sqrt(v1 * v2)) < 0.05


def test_empty_w_opt_rejected():
    with pytest.raises(ConfigError):
        generate_sample(RandomStream(0), (), GaussianParams(), GaussianParams())
