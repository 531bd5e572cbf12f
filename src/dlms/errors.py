"""Exception types shared across the simulator, and the type check of real fields."""

# A weight component beyond this magnitude counts as divergence.
DIVERGENCE_BOUND = 1e12


class ConfigError(ValueError):
    """Invalid scenario, agent, or trust configuration."""


class ParseError(ConfigError):
    """Malformed scenario config text, or a bad value of a CLI override.

    ``where`` is the line number of the config text, or the CLI option, that
    gave the value; the message starts with it.
    """

    def __init__(self, message, where=None):
        if where is not None:
            message = f"{'line ' if isinstance(where, int) else ''}{where}: {message}"
        super().__init__(message)
        self.where = where


class DivergenceError(RuntimeError):
    """A weight estimate became non-finite or exceeded the divergence bound.

    Carries enough context to identify the offending run/agent/iteration.
    ``completed`` is the EnsembleRecord of the runs simulated with it that
    finished before the divergent one (from ``dlms.run``, the first ``run``
    runs, possibly none); the divergent run's partial trajectory is
    discarded. A claim streams its ensemble and keeps no record, so its
    error's ``completed`` is None.
    """

    def __init__(self, message, agent=None, iteration=None, run=None, completed=None):
        super().__init__(message)
        self.agent = agent
        self.iteration = iteration
        self.run = run
        self.completed = completed


def check_real(name, values):
    """A ConfigError naming the field unless all ``values`` are real numbers, not ``bool``."""
    if odd := [v for v in values if type(v) not in (int, float)]:  # keeps numbers off start-up
        from numbers import Real
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in odd):
            raise ConfigError(f"{name} must be real, got {', '.join(map(repr, values))}")
