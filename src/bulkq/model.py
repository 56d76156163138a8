"""Queue parameterization and the truncated generator matrix.

The model is the single-server bulk-service queue: customers arrive one at a
time after independent Exp(lambda) gaps, and whenever at least ``m`` customers
are present a service completion (after an Exp(mu) time) removes exactly ``m``
of them at once.  The state is the number of waiting customers, so the
generator acts on sequences indexed by 0, 1, 2, ... with three bands:

* every state ``i`` feeds ``i + 1`` at rate lambda,
* states ``i >= m`` feed ``i - m`` at rate mu,
* the diagonal balances the row.

Everything downstream (polynomials, spectral functionals, oracles) is a
different route to the matrix exponential of this one operator.  The
Poisson tail helpers at the bottom set the truncations of both the engine's
checks and the oracles.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebraic import AlgebraicConfig
from .errors import NonPositiveRate, TruncationTooSmall, ZeroBatchSize

__all__ = [
    "QueueParams",
    "branch_config",
    "require_int",
    "validate_params",
    "build_generator",
    "poisson_tail",
    "poisson_quantile",
]


@dataclass(frozen=True, slots=True)
class QueueParams:
    """Arrival rate, batch-service rate, and batch size of the queue.

    Parameters
    ----------
    lam : float
        Arrival rate, must be positive and finite.
    mu : float
        Batch-service rate, must be positive and finite.
    m : int
        Batch size (number of customers removed per service), at least 1.
    """

    lam: float
    mu: float
    m: int

    @property
    def is_critical(self) -> bool:
        """Whether arrivals exactly balance the service drain (lam == m*mu)."""
        return math.isclose(self.lam, self.m * self.mu, rel_tol=1e-12)


def branch_config(p: QueueParams) -> AlgebraicConfig:
    """The queue's branch equation: ``c = mu/lam``, in ``zeta = (x + lam + mu)/lam``."""
    return AlgebraicConfig(c=p.mu / p.lam, m=p.m)


def require_int(label: str, k, low: int, high: int | None = None) -> None:
    """Raise ValueError naming ``label`` unless ``k`` is an integer in ``low..high``.

    An integer is a :class:`numbers.Integral` other than ``bool``; a float
    such as 2.0 is refused.  ``high=None`` leaves the range open above.
    """
    if not (
        isinstance(k, numbers.Integral) and not isinstance(k, bool)
        and low <= k and (high is None or k <= high)
    ):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{label} must be an integer {span}, got {k!r}")


def validate_params(p: QueueParams) -> None:
    """Check the model invariants, raising on the first violation.

    Raises
    ------
    NonPositiveRate
        If ``lam`` or ``mu`` is not a positive finite number.
    ZeroBatchSize
        If ``m`` is not an integer >= 1 (a float or a bool is refused).
    """
    if not (math.isfinite(p.lam) and p.lam > 0):
        raise NonPositiveRate(f"arrival rate must be positive and finite, got {p.lam}")
    if not (math.isfinite(p.mu) and p.mu > 0):
        raise NonPositiveRate(f"service rate must be positive and finite, got {p.mu}")
    try:
        require_int("batch size", p.m, 1)
    except ValueError as exc:
        raise ZeroBatchSize(str(exc)) from None


def build_generator(p: QueueParams, N: int) -> np.ndarray:
    """Assemble the N x N section of the generator, as a read-only array.

    Row ``i < m`` holds (-lam, lam) on the diagonal/superdiagonal; row
    ``i >= m`` holds mu at column ``i - m``, ``-(lam + mu)`` on the diagonal
    and lam on the superdiagonal.  Interior rows sum to zero exactly.  Bands
    that stick out of the section are simply dropped, which makes the last
    row's sum negative; oracles compensate by taking N large.

    Raises
    ------
    TruncationTooSmall
        If ``N < m + 2`` (no complete interior row would exist).
    """
    validate_params(p)
    if N < p.m + 2:
        raise TruncationTooSmall(f"need N >= m + 2 = {p.m + 2}, got {N}")
    lam, mu, m = p.lam, p.mu, p.m
    a = np.zeros((N, N))
    idx = np.arange(N)
    a[idx[:-1], idx[:-1] + 1] = lam
    a[idx[:m], idx[:m]] = -lam
    a[idx[m:], idx[m:]] = -(lam + mu)
    a[idx[m:], idx[m:] - m] = mu
    a.flags.writeable = False
    return a


def poisson_tail(k: int, a: float) -> float:
    """P[Poisson(a) > k] for integer k (1.0 when k < 0)."""
    from scipy.special import gammainc  # deferred: scipy is heavy to import
    if k < 0:
        return 1.0
    return float(gammainc(k + 1, a))


def poisson_quantile(a: float, level: float) -> int:
    """Smallest k with P[Poisson(a) > k] < level."""
    k = max(0, int(a))
    while poisson_tail(k, a) >= level:
        k += 1
    return k
