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
from itertools import accumulate

import numpy as np

from .algebraic import AlgebraicConfig
from .errors import NonPositiveRate, TruncationTooSmall, ZeroBatchSize

__all__ = [
    "QueueParams",
    "branch_config",
    "require_int",
    "require_state",
    "require_time",
    "validate_params",
    "generator_bands",
    "band_section",
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


def require_state(label: str, k, high: int | None = None) -> int:
    """``k`` as an int; ValueError naming ``label`` unless it is an integer in 0..``high``.

    An integral float counts, a bool does not; ``high=None`` leaves the
    range open above.  int and float are tested before the slow ``numbers``.
    """
    if isinstance(k, bool) or not (
        (isinstance(k, (int, float)) or isinstance(k, numbers.Real)) and k >= 0 and k % 1 == 0
    ):
        raise ValueError(f"{label} must be an integer >= 0, got {k}")
    if high is not None and k > high:
        raise ValueError(f"{label} must be <= {high}, got {k}")
    return int(k)


def require_time(label: str, t) -> float:
    """``t`` as a float; ValueError naming ``label`` unless it is a finite real >= 0, not a bool."""
    if isinstance(t, bool) or not (
        (isinstance(t, (int, float)) or isinstance(t, numbers.Real)) and 0.0 <= t < math.inf
    ):
        raise ValueError(f"{label} must be finite and >= 0, got {t}")
    return float(t)


def validate_params(p: QueueParams) -> None:
    """Check the model invariants, raising on the first violation.

    Raises
    ------
    NonPositiveRate
        If ``lam`` or ``mu`` is a bool or not a positive finite real.
    ZeroBatchSize
        If ``m`` is not an integer >= 1 (a float or a bool is refused).
    """
    for name, rate in (("arrival", p.lam), ("service", p.mu)):
        if isinstance(rate, bool) or not (isinstance(rate, numbers.Real) and 0.0 < rate < math.inf):
            raise NonPositiveRate(f"{name} rate must be positive and finite, got {rate}")
    try:
        require_int("batch size", p.m, 1)
    except ValueError as exc:
        raise ZeroBatchSize(str(exc)) from None


def generator_bands(p: QueueParams) -> tuple[float, float, float, float]:
    """Validate p and return the generator's bands ``(lam, lam, mu, lam + mu)``."""
    validate_params(p)
    return (p.lam, p.lam, p.mu, p.lam + p.mu)


def band_section(m: int, bands: tuple, N: int) -> np.ndarray:
    """Dense N x N section of the three-band operator with lower band m.

    ``bands = (gamma, iota, eta, xi)`` puts -gamma on the first m diagonal
    entries and -xi after them, iota on the superdiagonal and eta m below
    the diagonal; the bands that stick out of the section are dropped.
    Raises ValueError naming N unless it is an integer >= 1, and
    :class:`TruncationTooSmall` if ``N < m + 2``.
    """
    require_int("N", N, 1)
    if N < m + 2:
        raise TruncationTooSmall(f"need N >= m + 2 = {m + 2}, got {N}")
    gamma, iota, eta, xi = bands
    a = np.zeros((N, N))
    idx = np.arange(N)
    a[idx[:-1], idx[:-1] + 1] = iota
    a[idx[:m], idx[:m]] = -gamma
    a[idx[m:], idx[m:]] = -xi
    a[idx[m:], idx[m:] - m] = eta
    return a


def build_generator(p: QueueParams, N: int) -> np.ndarray:
    """The N x N :func:`band_section` of the generator, as a read-only array.

    Interior rows sum to zero exactly; the last row's sum is negative, as
    its superdiagonal is cut off, and oracles compensate by taking N large.
    Raises :class:`TruncationTooSmall` if ``N < m + 2`` (no complete
    interior row would exist).
    """
    a = band_section(p.m, generator_bands(p), N)
    a.flags.writeable = False
    return a


def _pmf(a: float, i: int) -> float:
    """P[Poisson(a) = i] for a > 0, as exp(-a + i log a - lgamma(i + 1))."""
    return math.exp(-a + i * math.log(a) - math.lgamma(i + 1))


def _poisson_terms(a: float, j: int, step: int, floor: float) -> list[float]:
    """P[Poisson(a) = i] for i = j, j + step, ..., walking away from the mode.

    ``j`` must lie on the side of the mode that ``step`` (+1 or -1) walks
    away from, so the ratio r of consecutive terms stays below 1 and falls.
    The first term comes from :func:`_pmf`, each next one is the last times
    r, and the walk stops at i = 0 or once ``term * r / (1 - r)``, a bound
    on all it leaves out, is at most ``floor``.
    """
    terms, i = [_pmf(a, j)], j
    while True:
        r = a / (i + 1) if step > 0 else i / a
        if terms[-1] * r <= floor * (1.0 - r):
            return terms
        terms.append(terms[-1] * r)
        i += step


def poisson_tail(k: int, a: float) -> float:
    """P[Poisson(a) > k] for integer k (1.0 when k < 0).

    Sums the terms on the short side of k, down to a remainder below 1e-17
    of the first: those above k when k + 1 >= a, else one minus those up
    to k, so neither sum holds much more than half the mass.
    """
    if k < 0:
        return 1.0
    if a == 0.0:
        return 0.0
    j, step = (k + 1, 1) if k + 1 >= a else (k, -1)
    total = math.fsum(_poisson_terms(a, j, step, 1e-17 * _pmf(a, j)))
    return total if step > 0 else 1.0 - total


def poisson_quantile(a: float, level: float) -> int:
    """Smallest k >= floor(a) with P[Poisson(a) > k] < level.

    One walk over the terms above floor(a), down to a remainder below
    1e-17 of ``level``; their suffix sums are the tails.
    """
    k0 = max(0, int(a))
    if a == 0.0:
        return k0
    terms = _poisson_terms(a, k0 + 1, 1, 1e-17 * level)
    tails = list(accumulate(reversed(terms)))[::-1]  # tails[i] = P[Poisson(a) > k0 + i]
    return k0 + next((i for i, tail in enumerate(tails) if tail < level), len(tails))
