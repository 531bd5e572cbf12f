"""Single-agent estimation math: the LMS adaptation of the diffusion loop."""

import math

from .errors import DIVERGENCE_BOUND, ConfigError, DivergenceError


def predict(w, x):
    """Linear prediction w . x, added left to right from 0.0."""
    if len(w) != len(x):
        raise ConfigError(f"length mismatch: weights {len(w)}, input {len(x)}")
    total = 0.0
    for wi, xi in zip(w, x):
        total += wi * xi
    return total


def lms_step(psi, x, y, mu):
    """Instantaneous-gradient LMS update.

    Returns (w, e) with e = y - psi.x and w = psi + mu*e*x. The error is
    returned so trajectories can log it without recomputation.
    """
    if mu < 0:
        raise ConfigError(f"negative learning rate: {mu}")
    e = y - predict(psi, x)
    if not math.isfinite(e):
        raise DivergenceError(f"non-finite prediction error {e}")
    w = [pj + mu * e * xj for pj, xj in zip(psi, x)]
    check_weights(w)
    return w, e


def check_weights(w):
    """Raise DivergenceError on non-finite or absurdly large components."""
    for wj in w:
        if not math.isfinite(wj) or abs(wj) > DIVERGENCE_BOUND:
            raise DivergenceError(f"weight estimate diverged: {w}")
