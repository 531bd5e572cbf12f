"""Exception types shared across the simulator."""

# A weight component beyond this magnitude counts as divergence.
DIVERGENCE_BOUND = 1e12


class ConfigError(ValueError):
    """Invalid scenario, agent, or trust configuration."""


class ParseError(ConfigError):
    """Malformed scenario config text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DivergenceError(RuntimeError):
    """A weight estimate became non-finite or exceeded the divergence bound.

    Carries enough context to identify the offending run/agent/iteration.
    ``completed`` is the EnsembleRecord of the ensemble runs that finished
    before the divergent one (the first ``run`` runs, possibly none); the
    divergent run's partial trajectory is discarded.
    """

    def __init__(self, message, agent=None, iteration=None, run=None, completed=None):
        super().__init__(message)
        self.agent = agent
        self.iteration = iteration
        self.run = run
        self.completed = completed
