"""The package's public names: only what the simulator's users call."""

import dlms


def test_public_names_are_pinned_and_resolve():
    assert sorted(dlms.__all__) == [
        "AgentConfig",
        "ConfigError",
        "DivergenceError",
        "EnsembleRecord",
        "GaussianParams",
        "MetricsReport",
        "ParseError",
        "Scenario",
        "TrustMatrix",
        "builtin",
        "parse",
        "run",
        "serialize",
    ]
    for name in dlms.__all__:
        assert getattr(dlms, name).__module__.startswith("dlms.")
