"""Polynomial families attached to the bulk-service queue.

Every family here but the dual vectors obeys one banded recurrence, the
higher-order three-term recurrence of Aptekarev, Kalyagin & Saff (Constr.
Approx. 30, 2009), with band values ``(gamma, iota, eta, xi)``:

    P_n = ((gamma + x)/iota)**n                    for n <= m,
    iota P_{n+1} = (xi + x) P_n - eta P_{n-m}      after that.

:func:`band_poly` builds it.  The named families are its views:

* ``Q_n``  — eigenvector polynomials of the queue generator, bands
  ``(lam, lam, mu, lam + mu)``, with exact rational coefficients.
* ``T_n``  — the monic normalization, bands ``(0, 1, c, 0)``; the
  second-kind members ``T_{n,j}`` are its shifts ``T_{n-j}``, and the
  zeros of ``h_n``, where ``T_n(z) = z**(n mod (m+1)) h_n(z**(m+1))``,
  generate the star quadrature (:func:`h_zeros`).
* ``L_n``  — the shifted monic frame ``L_n(z) = lam**n * Q_n(z - lam - mu)``,
  bands ``(-mu, 1, mu*lam**m, 0)``.

The dual vectors ``q_r`` (``m`` components, the same band pattern read
along rows instead of columns) keep their own recurrence,
``mu q_{r+m} = (x + s_r) q_r - lam q_{r-1}``.

Two things come from each recurrence.  The coefficients, exact over
Fractions for ``Q`` and ``q`` and rounded once to doubles, serve the
operator identities and the Fraction-oracle tests.  Values at a point come
from running the recurrence itself at that point in floats, which stays
accurate where the monomial basis cancels heavily; no value comes from the
coefficients.

Closed forms for ``Q_n`` and ``q_{j,r}`` in terms of the algebraic branches
are provided alongside the recurrences so each route can audit the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# fractions costs resident memory the transition engine never needs; the
# exact tables import it where they use it

from .algebraic import AlgebraicConfig, solve_branches
from .errors import NearSingularConfiguration, ZeroFindingFailure
from .model import QueueParams, branch_config, require_int, validate_params

__all__ = [
    "Poly",
    "VectorPoly",
    "ExplicitCoefficients",
    "band_poly",
    "q_poly",
    "q_explicit",
    "dual_vector",
    "dual_explicit",
    "explicit_coefficients",
    "t_poly",
    "l_poly",
    "second_kind",
    "h_zeros",
]

#: threshold below which a closed-form denominator counts as singular
EPS_SING = 1e-8
#: Newton polish of h_n's zeros: most steps, largest relative last step, and
#: the complex step h, with P(x (1 + i h)) = P(x) + i h x P'(x) to rounding
NEWTON_STEPS, NEWTON_TOL, COMPLEX_STEP = 8, 1e-13, 1e-30


@dataclass(frozen=True)
class Poly:
    """A real polynomial, a member of one of the recurrence families.

    Coefficients are stored ascending (``coeffs[k]`` multiplies ``x**k``),
    rounded to doubles, with no trailing zeros except for the zero
    polynomial itself.  The member carries its recurrence as
    ``recurrence(x)`` and is evaluated by running it at x; it takes no part
    in equality.
    """

    coeffs: tuple[float, ...]
    recurrence: Callable = field(compare=False, repr=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return self.recurrence(x)

    @staticmethod
    def from_exact(c, recurrence: Callable) -> "Poly":
        """Round coefficients (Fractions or floats) to doubles and trim trailing zeros."""
        c = list(c)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return Poly(coeffs=tuple(float(x) for x in c), recurrence=recurrence)


@dataclass(frozen=True)
class VectorPoly:
    """The m-component dual polynomial vector ``q_r = (q_{0,r},...,q_{m-1,r})``."""

    components: tuple[Poly, ...]
    r: int

    def __call__(self, x):
        return np.array([c(x) for c in self.components])


@dataclass(frozen=True, eq=False)
class ExplicitCoefficients:
    """Per-branch data for the closed-form evaluations at one point z.

    ``a[j]`` multiplies ``omega[j]**n`` in the closed form of ``Q_n``; the
    ``a`` always sum to 1.  ``vandermonde_inv[j, k]`` is the (power j,
    branch k) entry of the inverse of the branch-power matrix
    ``W[l, j] = omega[l]**(-j)`` (rows run over branches, columns over
    powers ``0..m``), so ``vandermonde_inv @ W = W @ vandermonde_inv = I``.

    ``b[j, k]`` expands the dual components in branch powers:
    ``q_{j,r}(z) = sum_k b[j, k] * omega[k]**(m - r)`` for every
    ``r >= m - 1`` (all ``m + 1`` branches participate; the top-branch
    column decays like ``omega[0]**(j - m - 1)`` for large z but does not
    vanish pointwise).  ``d[j]`` closes the band system ``B W = D``:
    it is the last column of ``b @ W``, whose first m columns are the
    initial-condition band ``(z + lam)/mu`` / ``-lam/mu``.
    """

    z: complex
    omega: tuple[complex, ...]
    a: tuple[complex, ...]
    vandermonde_inv: np.ndarray
    b: np.ndarray
    d: tuple[complex, ...]


# --------------------------------------------------------------------------
# values at a point: each member runs its own recurrence there, vectorised
# over x, a scalar out for a scalar in
# --------------------------------------------------------------------------


def _run_band(m: int, bands: tuple, n: int, x):
    """``P_n(x)`` by running the band recurrence at x, in floats (complex for complex x)."""
    gamma, iota, eta, xi = bands
    x = np.asarray(x) + 0.0
    w = [((gamma + x) / iota) ** k for k in range(min(n, m) + 1)]
    for _ in range(m, n):
        w = w[1:] + [((xi + x) * w[-1] - eta * w[0]) / iota]
    return w[-1]


def _run_dual(p: QueueParams, j: int, r: int, x):
    """``q_{j,r}(x)`` by running ``mu q_{k+m} = (x + s_k) q_k - lam q_{k-1}`` at x.

    ``s_k`` is lam for k < m and lam + mu after; the window starts at
    ``q_{-1} = 0`` and the unit initials ``q_k = [k == j]``, k < m.
    """
    lam, mu, m = p.lam, p.mu, p.m
    x = np.asarray(x) + 0.0
    w = [0.0 * x] + [(k == j) + 0.0 * x for k in range(m)]
    for k in range(r - m + 1):
        w = w[1:] + [((x + (lam if k < m else lam + mu)) * w[1] - lam * w[0]) / mu]
    return w[min(r + 1, m)]


# --------------------------------------------------------------------------
# coefficient tables (ascending powers), one per band or parameter set; each
# grows to the largest index asked of it and serves every smaller one
# --------------------------------------------------------------------------


def _exact_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_axpy(a, scale, b):
    """a - scale*b with ragged lengths, over Fractions or floats."""
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [x - scale * y for x, y in zip(a, b)]


@functools.lru_cache(maxsize=64)
def _band_table(m: int, bands: tuple) -> list[list]:
    """The growing coefficient table of P_0, P_1, ... for the bands ``(gamma, iota, eta, xi)``.

    :func:`band_poly` extends it in place, in the arithmetic of the band
    values.  Over Fractions the coefficients are exact before their one
    rounding to doubles, which is what the operator identities and the
    Fraction-oracle tests read; no value at a point comes from them.
    """
    return [[1]]


def band_poly(m: int, bands: tuple, n: int) -> Poly:
    """The degree-n member of the band recurrence with values ``(gamma, iota, eta, xi)``.

    ``P_n = ((gamma + x)/iota)**n`` for ``n <= m``, then
    ``iota P_{n+1} = (xi + x) P_n - eta P_{n-m}``.  The coefficients come
    from the cached table (exact for Fraction bands); the member is
    evaluated by running the recurrence at the point, in floats.
    """
    require_int("n", n, 0)
    gamma, iota, eta, xi = bands
    table = _band_table(m, tuple(bands))
    for k in range(len(table) - 1, n):
        if k < m:
            c = _exact_mul(table[k], [gamma, 1])
        else:
            c = _exact_axpy(_exact_mul(table[k], [xi, 1]), eta, table[k - m])
        table.append([x / iota for x in c])
    run = functools.partial(_run_band, m, tuple(float(b) for b in bands), n)
    return Poly.from_exact(table[n], run)


@functools.lru_cache(maxsize=64)
def _dual_table(p: QueueParams) -> list[list[list]]:
    """The growing table of the dual vectors' rows, exact; each row has m lists.

    :func:`dual_vector` extends it in place.
    """
    from fractions import Fraction

    return [[[Fraction(int(j == r))] for j in range(p.m)] for r in range(p.m)]


def q_poly(p: QueueParams, n: int) -> Poly:
    """The degree-n member of the ``Q`` family, by recurrence.

    Parameters
    ----------
    p : QueueParams
    n : int
        Index, ``n >= 0``.

    Returns
    -------
    Poly
        Exact real coefficients; degree n, leading coefficient ``lam**(-n)``.
    """
    from fractions import Fraction

    validate_params(p)
    lam, mu = Fraction(p.lam), Fraction(p.mu)
    return band_poly(p.m, (lam, lam, mu, lam + mu), n)


def dual_vector(p: QueueParams, r: int) -> VectorPoly:
    """The dual vector ``q_r`` for ``r >= -1`` (the zero vector at -1)."""
    from fractions import Fraction

    validate_params(p)
    require_int("r", r, -1)
    lam, mu = Fraction(p.lam), Fraction(p.mu)
    rows = _dual_table(p)
    for k in range(len(rows) - p.m, r - p.m + 1):
        before = rows[k - 1] if k >= 1 else [[0]] * p.m  # q_{-1} = 0
        shift = [lam, 1] if k < p.m else [lam + mu, 1]
        rows.append([
            [x / mu for x in _exact_axpy(_exact_mul(prev, shift), lam, old)]
            for prev, old in zip(rows[k], before)
        ])
    comps = tuple(
        Poly.from_exact(c, functools.partial(_run_dual, p, j, r))
        for j, c in enumerate(rows[r] if r >= 0 else [[0]] * p.m)  # q_{-1} = 0
    )
    return VectorPoly(components=comps, r=r)


# --------------------------------------------------------------------------
# closed forms via the branches of the reduced equation
# --------------------------------------------------------------------------


def explicit_coefficients(p: QueueParams, z: complex) -> ExplicitCoefficients:
    """Branch data for closed-form evaluation at the (generator-frame) point z.

    Solves the reduced equation (constant term ``mu/lam``) at
    ``zeta = (z + lam + mu)/lam`` and assembles the Lagrange coefficients
    ``a[j]`` of ``Q_n`` together with the inverse of the negative-power
    Vandermonde matrix of the branches.

    Raises
    ------
    NearSingularConfiguration
        If some branch has ``|omega**m - 1|`` or ``|omega**(m+1) - m*mu/lam|``
        below the safety threshold (z too close to an exceptional point);
        callers should fall back to the recurrence path.
    """
    validate_params(p)
    lam, mu, m = p.lam, p.mu, p.m
    cfg = branch_config(p)
    zeta = (z + lam + mu) / lam
    omega = np.array(solve_branches(cfg, zeta).omega)
    top = omega ** (m + 1) - m * cfg.c
    side = omega**m - 1.0
    if np.any(np.abs(top) <= EPS_SING) or np.any(np.abs(side) <= EPS_SING):
        raise NearSingularConfiguration(
            f"branch denominator below {EPS_SING:g} at z={z} (lam={lam}, mu={mu}, m={m})"
        )
    y = (z + lam) / lam
    a = (y**m - 1.0) * omega ** (m + 1) / (side * top)
    vinv = np.empty((m + 1, m + 1), dtype=complex)
    vinv[0] = omega ** (m + 1) / top
    for j in range(1, m + 1):
        vinv[j] = -cfg.c * omega**j / top
    b = np.empty((m, m + 1), dtype=complex)
    for j in range(m):
        b[j] = cfg.c * side / (omega ** (m - j) * top)
    d = b @ omega ** (-m)
    return ExplicitCoefficients(
        z=complex(z),
        omega=tuple(omega.tolist()),
        a=tuple(a.tolist()),
        vandermonde_inv=vinv,
        b=b,
        d=tuple(d.tolist()),
    )


def q_explicit(p: QueueParams, n: int, z: complex) -> complex:
    """Closed-form value of ``Q_n(z)`` as a branch-power combination.

    ``Q_n(z) = sum_j a_j * omega_j**n`` with the branches of the reduced
    equation at ``(z + lam + mu)/lam``.  Agrees with ``q_poly(p, n)(z)``
    away from the guarded denominators.
    """
    require_int("n", n, 0)
    ec = explicit_coefficients(p, z)
    om = np.array(ec.omega)
    return complex(np.sum(np.array(ec.a) * om**n))


def dual_explicit(p: QueueParams, r: int, j: int, z: complex) -> complex:
    """Closed-form value of the dual component ``q_{j,r}(z)``.

    ``q_{j,r}(z) = (mu/lam) * sum_k (omega_k**m - 1) /
    (omega_k**(r-j) * (omega_k**(m+1) - m*mu/lam))`` over all m+1 branches.
    Valid for ``r >= m - 1``; the recurrence route covers smaller r.  This
    is row j of :attr:`ExplicitCoefficients.b` against ``omega**(m - r)``.
    """
    m = p.m
    require_int("j", j, 0, m - 1)
    require_int("r", r, m - 1)
    ec = explicit_coefficients(p, z)
    return complex(np.sum(ec.b[j] * np.array(ec.omega) ** (m - r)))


# --------------------------------------------------------------------------
# monic frames T, L and the zeros of the symmetry reduction h
# --------------------------------------------------------------------------


def t_poly(cfg: AlgebraicConfig, n: int) -> Poly:
    """Monic family with unit super-diagonal: ``z T_n = T_{n+1} + c T_{n-m}``."""
    return band_poly(cfg.m, (0.0, 1.0, cfg.c, 0.0), n)


def l_poly(p: QueueParams, n: int) -> Poly:
    """Shifted monic family: ``L_n(z) = lam**n * Q_n(z - lam - mu)``.

    Its own bands (initials ``(z - mu)**n``, then
    ``z L_n = L_{n+1} + mu*lam**m L_{n-m}``) in floats, through the routine
    that builds ``Q`` exactly.  The identity with ``q_poly`` stays a real
    check: the tests hold independent Fraction oracles of both families.
    """
    validate_params(p)
    return band_poly(p.m, (-p.mu, 1.0, p.mu * p.lam**p.m, 0.0), n)


def second_kind(cfg: AlgebraicConfig, n: int, j: int) -> Poly:
    """Second-kind member ``T_{n,j}``: the shift ``T_{n-j}``, zero for n < j."""
    require_int("j", j, 1, cfg.m)
    require_int("n", n, 0)
    if n < j:
        return Poly.from_exact([0], functools.partial(np.multiply, 0.0))  # zeros shaped like x
    return t_poly(cfg, n - j)


def h_zeros(cfg: AlgebraicConfig, n: int) -> np.ndarray:
    """Ascending zeros of ``h_n``, where ``T_n(z) = z**(n mod (m+1)) h_n(z**(m+1))``.

    There are ``d = n // (m+1)``, real, simple and positive.  Their (m+1)-th
    roots are the d largest eigenvalues on the positive arm of T's n x n
    section, ones on the superdiagonal and c on the m-th subdiagonal (Golub
    & Welsch, Math. Comp. 23, 1969; Coussement & Van Assche, J. Comput.
    Appl. Math. 178, 2005), polished by Newton's method on ``T_n``'s
    recurrence, run at a complex step for ``T_n'``.

    Raises
    ------
    ZeroFindingFailure
        Unless d distinct positive zeros come out, each with a last Newton
        step below ``NEWTON_TOL`` relative.
    """
    require_int("n", n, 0)
    m = cfg.m
    d = n // (m + 1)
    if d == 0:
        return np.empty(0)
    eig = np.linalg.eigvals(np.eye(n, k=1) + cfg.c * np.eye(n, k=-m))
    zeta = np.sort(eig[np.abs(np.angle(eig)) < np.pi / (m + 1)].real)[::-1][:d]
    t_n = t_poly(cfg, n)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            val = t_n(zeta * (1.0 + COMPLEX_STEP * 1j))
            step = val.real * COMPLEX_STEP * zeta / val.imag
            zeta = zeta - step
            last = np.max(np.abs(step / zeta), initial=0.0)
            if last < NEWTON_TOL:
                break
        xs = np.sort(zeta ** (m + 1))
        gap = np.min(np.diff(xs) / xs[1:], initial=np.inf)
    if len(xs) < d or not (last < NEWTON_TOL and gap > NEWTON_TOL and np.all(zeta > 0.0)):
        raise ZeroFindingFailure(
            f"no {d} distinct positive zeros of h_{n} for {cfg}: {len(xs)} on the arm, "
            f"last Newton step {last:.1e} and smallest gap {gap:.1e}, relative"
        )
    return xs
