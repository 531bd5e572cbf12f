"""Diffusion layer: trust topology and the combine-then-adapt iteration."""

from dataclasses import dataclass

from .errors import ConfigError, DivergenceError, check_real
from .filters import lms_step

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TrustMatrix:
    """Row-stochastic matrix of trust coefficients.

    rows[a][b] is the trust agent a places in agent b's estimate; a zero
    encodes non-adjacency. Any sequence of rows is stored as tuples of
    tuples. Validated once at construction, not per iteration.
    """

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        n = len(self.rows)
        for a, row in enumerate(self.rows):
            if len(row) != n:
                raise ConfigError(f"trust row {a} has length {len(row)}, expected {n}")
            check_real(f"trust row {a}", row)
            for s in row:
                if not 0.0 <= s <= 1.0:
                    raise ConfigError(f"trust coefficient {s} outside [0, 1] in row {a}")
            total = sum(row)
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ConfigError(f"trust row sum {total} != 1 in row {a}")

    @property
    def size(self):
        return len(self.rows)

    @staticmethod
    def identity(n):
        return TrustMatrix(tuple(
            tuple(1.0 if a == b else 0.0 for b in range(n)) for a in range(n)
        ))

    def is_identity_row(self, a):
        return all(
            (s == 1.0 if a == b else s == 0.0) for b, s in enumerate(self.rows[a])
        )


@dataclass
class AgentState:
    """Estimate w, combined intermediate psi, and last instantaneous error."""

    w: list
    psi: list
    e: float


def combine(trust_row, previous_weights):
    """Convex combination sum_b s_ab * w_b(i-1) over the neighbourhood.

    Zero coefficients are skipped, so an identity row returns the agent's own
    previous weight bit-exactly. The row is not rechecked here: TrustMatrix
    validates its rows once.
    """
    out = None
    for s, w in zip(trust_row, previous_weights):
        if s == 0.0:
            continue
        if out is None:
            out = [s * wj for wj in w] if s != 1.0 else list(w)
        else:
            for j, wj in enumerate(w):
                out[j] += s * wj
    return out


def cta_iteration(states, trust, samples, mus):
    """One synchronous combine-then-adapt iteration over the adaptive agents.

    ``states``, ``samples`` and ``mus`` are parallel to the trust rows.

    Two-phase barrier semantics: every psi is computed from iteration i-1
    weights before any adaptation happens, so the result is independent of
    agent update order.
    """
    n = trust.size
    if len(states) != n or len(samples) != n or len(mus) != n:
        raise ConfigError("states/samples/mus must align with trust rows")

    prev = [st.w for st in states]
    psis = [combine(trust.rows[a], prev) for a in range(n)]

    new_states = []
    for a in range(n):
        try:
            w, e = lms_step(psis[a], samples[a].x, samples[a].y, mus[a])
        except DivergenceError as exc:
            raise DivergenceError(str(exc), agent=a) from exc
        new_states.append(AgentState(w=w, psi=psis[a], e=e))
    return new_states
