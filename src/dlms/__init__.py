"""Deterministic simulator for networks of cooperating LMS adaptive filters
using the combine-then-adapt diffusion strategy."""

from .errors import ConfigError, DivergenceError, ParseError
from .metrics import EnsembleRecord
from .network import TrustMatrix
from .scenarios import AgentConfig, Scenario, builtin, parse, run, serialize
from .signals import GaussianParams

__all__ = [
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

__version__ = "0.1.0"
