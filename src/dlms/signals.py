"""Per-agent signal model y = w_opt . x + q with Gaussian x and q.

The ensemble engine synthesizes whole runs of samples at once; SignalSample
is one time instant, as ``network.cta_iteration`` consumes it.
"""

from dataclasses import dataclass

from .errors import ConfigError, check_real


@dataclass(frozen=True)
class GaussianParams:
    """Mean and standard deviation of a Gaussian source."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        check_real("Gaussian mean and sd", (self.mean, self.sd))
        if self.sd < 0:
            raise ConfigError(f"negative standard deviation: {self.sd}")


@dataclass(frozen=True)
class SignalSample:
    """One time instant of an agent's perception.

    ``q`` is the noise realization, retained for diagnostics only; agents
    never read it.
    """

    x: tuple
    y: float
    q: float

