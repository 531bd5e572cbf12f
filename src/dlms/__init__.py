"""Deterministic simulator for networks of cooperating LMS adaptive filters
using the combine-then-adapt diffusion strategy."""

from .errors import ConfigError, DivergenceError, ParseError
from .metrics import EnsembleRecord, MetricsReport
from .network import AgentState, TrustMatrix
from .prng import RandomStream
from .scenarios import AgentConfig, Scenario, builtin, parse, run, serialize
from .signals import GaussianParams, SignalSample

__all__ = [
    "AgentConfig",
    "AgentState",
    "ConfigError",
    "DivergenceError",
    "EnsembleRecord",
    "GaussianParams",
    "MetricsReport",
    "ParseError",
    "RandomStream",
    "Scenario",
    "SignalSample",
    "TrustMatrix",
    "builtin",
    "parse",
    "run",
    "serialize",
]

__version__ = "0.1.0"
