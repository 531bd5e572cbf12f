"""The package's public names: only what the simulator's users call."""

import re
from pathlib import Path

import dlms


def test_public_names_are_pinned_and_resolve():
    assert sorted(dlms.__all__) == [
        "AgentConfig",
        "ConfigError",
        "DivergenceError",
        "EnsembleRecord",
        "GaussianParams",
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


def test_readme_names_every_public_name():
    """The README's "From Python" paragraph names exactly ``dlms.__all__``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^From Python,.*?(?=\n\n)", readme, re.M | re.S).group()
    assert sorted(re.findall(r"`([^`]+)`", paragraph)) == sorted(dlms.__all__)
