"""Polynomial families attached to the bulk-service queue.

Every family here but the dual vectors obeys one banded recurrence, the
higher-order three-term recurrence of Aptekarev, Kalyagin & Saff (Constr.
Approx. 30, 2009), with band values ``(gamma, iota, eta, xi)``:

    P_n = ((gamma + x)/iota)**n                    for n <= m,
    iota P_{n+1} = (xi + x) P_n - eta P_{n-m}      after that.

:func:`band_poly` builds it, exactly over Fractions or in floats.  The
named families are its views:

* ``Q_n``  — eigenvector polynomials of the queue generator, bands
  ``(lam, lam, mu, lam + mu)``, exact rational.
* ``T_n``  — the monic normalization, bands ``(0, 1, c, 0)``; the
  second-kind members ``T_{n,j}`` are its shifts ``T_{n-j}``.
* ``L_n``  — the shifted monic frame ``L_n(z) = lam**n * Q_n(z - lam - mu)``,
  bands ``(-mu, 1, mu*lam**m, 0)``.

Two tables keep their own recurrences: the dual vectors ``q_r`` (``m``
components, the same band pattern read along rows instead of columns) and
``h_n``, the (m+1)-fold symmetry reduction ``T_n(z) = z**(n mod (m+1)) *
h_n(z**(m+1))`` whose positive real zeros generate the star quadrature.

Closed forms for ``Q_n`` and ``q_{j,r}`` in terms of the algebraic branches
are provided alongside the recurrences so each route can audit the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

from .algebraic import AlgebraicConfig, solve_branches
from .errors import NearSingularConfiguration, ZeroFindingFailure
from .model import QueueParams, validate_params

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
    "h_poly",
    "second_kind",
    "h_zeros",
]

#: threshold below which a closed-form denominator counts as singular
EPS_SING = 1e-8

#: Dekker splitting constant for float64 (2**27 + 1)
_SPLITTER = 134217729.0


def _two_sum(a, b):
    """Error-free sum: returns (fl(a+b), exact rounding error)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    """Error-free product via Dekker splitting (no FMA required)."""
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _comp_horner(coeffs, x):
    """Horner evaluation with compensated products and sums.

    Tracks the exact rounding error of every multiply-add and folds it back
    in at the end, which keeps values trustworthy even where the monomial
    basis is badly conditioned (large |x| with heavy cancellation, the
    regime the n <= 40 desk scale routinely visits).
    """
    xa = np.asarray(x)
    if np.iscomplexobj(xa):
        xr = np.asarray(xa.real, dtype=float)
        xi = np.asarray(xa.imag, dtype=float)
        sr = np.full_like(xr, coeffs[-1])
        si = np.zeros_like(xr)
        er = np.zeros_like(xr)
        ei = np.zeros_like(xr)
        for ck in coeffs[-2::-1]:
            # complex product split into four real error-free products
            p1, d1 = _two_prod(sr, xr)
            p2, d2 = _two_prod(si, xi)
            p3, d3 = _two_prod(sr, xi)
            p4, d4 = _two_prod(si, xr)
            pr, f1 = _two_sum(p1, -p2)
            pi, f2 = _two_sum(p3, p4)
            sr, f3 = _two_sum(pr, ck)
            si = pi
            dr = d1 - d2 + f1 + f3
            di = d3 + d4 + f2
            er, ei = er * xr - ei * xi + dr, er * xi + ei * xr + di
        out = (sr + er) + 1j * (si + ei)
        return out[()] if out.ndim == 0 else out
    xf = np.asarray(xa, dtype=float)
    s = np.full_like(xf, coeffs[-1])
    e = np.zeros_like(xf)
    for ck in coeffs[-2::-1]:
        p, dp = _two_prod(s, xf)
        s, ds = _two_sum(p, ck)
        e = e * xf + (dp + ds)
    out = s + e
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class Poly:
    """A real polynomial.

    Coefficients are stored ascending (``coeffs[k]`` multiplies ``x**k``)
    with no trailing zeros except for the zero polynomial itself.  Families
    built from exact rational recurrences also carry the residual
    ``coeffs_lo`` (the part of each exact coefficient that did not fit in
    one double), so evaluation keeps full working precision even when the
    rounded coefficients alone could not reproduce the value.
    """

    coeffs: tuple[float, ...]
    coeffs_lo: tuple[float, ...] = field(default=(), repr=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        val = _comp_horner(self.coeffs, x)
        if self.coeffs_lo:
            val = val + P.polyval(np.asarray(x), np.asarray(self.coeffs_lo))
        return val

    @staticmethod
    def from_array(c) -> "Poly":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        c = np.trim_zeros(c, "b")
        if c.size == 0:
            c = np.zeros(1)
        return Poly(coeffs=tuple(c.tolist()))

    @staticmethod
    def from_exact(c) -> "Poly":
        """Split rational coefficients into hi + lo double pairs.

        Float coefficients have no residual and come through unchanged.
        """
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        hi = [float(x) for x in c]
        lo = [float(x - Fraction(h)) if isinstance(x, Fraction) else 0.0 for x, h in zip(c, hi)]
        if not any(lo):
            lo = []
        return Poly(coeffs=tuple(hi), coeffs_lo=tuple(lo))


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
# coefficient tables (ascending powers), cached per band or parameter set
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
def _band_table(m: int, bands: tuple, nmax: int) -> tuple[tuple, ...]:
    """Coefficients of P_0..P_nmax for the bands ``(gamma, iota, eta, xi)``.

    Runs in the arithmetic of the band values.  Over Fractions the table is
    exact, which is what keeps ``Q_n`` accurate at n ~ 20-40: the
    recurrence has heavy coefficient growth, and rounding inside it would
    cost ~n*eps times the (often huge) monomial condition number.
    """
    gamma, iota, eta, xi = bands
    table = [[1]]
    for _ in range(min(m, nmax)):
        table.append([c / iota for c in _exact_mul(table[-1], [gamma, 1])])
    for n in range(m, nmax):
        c = _exact_axpy(_exact_mul(table[n], [xi, 1]), eta, table[n - m])
        table.append([x / iota for x in c])
    return tuple(tuple(row) for row in table[: nmax + 1])


def band_poly(m: int, bands: tuple, n: int) -> Poly:
    """The degree-n member of the band recurrence with values ``(gamma, iota, eta, xi)``.

    ``P_n = ((gamma + x)/iota)**n`` for ``n <= m``, then
    ``iota P_{n+1} = (xi + x) P_n - eta P_{n-m}``.  Fraction bands give an
    exact table, whose residuals past one double go to ``coeffs_lo``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return Poly.from_exact(_band_table(m, tuple(bands), n)[n])


@functools.lru_cache(maxsize=64)
def _dual_table(p: QueueParams, rmax: int) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Rows r = 0..rmax of the dual vectors, exact; each row has m lists."""
    lam, mu, m = Fraction(p.lam), Fraction(p.mu), p.m
    zero = [Fraction(0)]
    rows = [[[Fraction(1)] if j == r else zero for j in range(m)] for r in range(min(m - 1, rmax) + 1)]
    for r in range(rmax - m + 1):
        prev = rows[r]
        before = rows[r - 1] if r >= 1 else [zero] * m  # q_{-1} = 0
        shift = [lam, Fraction(1)] if r < m else [lam + mu, Fraction(1)]
        row = []
        for j in range(m):
            c = _exact_axpy(_exact_mul(prev[j], shift), lam, before[j])
            row.append([x / mu for x in c])
        rows.append(row)
    return tuple(tuple(tuple(c) for c in row) for row in rows[: rmax + 1])


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
    validate_params(p)
    lam, mu = Fraction(p.lam), Fraction(p.mu)
    return band_poly(p.m, (lam, lam, mu, lam + mu), n)


def dual_vector(p: QueueParams, r: int) -> VectorPoly:
    """The dual vector ``q_r`` for ``r >= -1`` (the zero vector at -1)."""
    validate_params(p)
    if r < -1:
        raise ValueError("r must be >= -1")
    if r == -1:
        comps = tuple(Poly.from_array([0.0]) for _ in range(p.m))
        return VectorPoly(components=comps, r=-1)
    row = _dual_table(p, r)[r]
    return VectorPoly(
        components=tuple(Poly.from_exact(c) for c in row), r=r
    )


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
    cred = mu / lam
    zeta = (z + lam + mu) / lam
    cfg = AlgebraicConfig(c=cred, m=m, frame="A")
    omega = np.array(solve_branches(cfg, zeta).omega)
    top = omega ** (m + 1) - m * cred
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
        vinv[j] = -cred * omega**j / top
    b = np.empty((m, m + 1), dtype=complex)
    for j in range(m):
        b[j] = cred * side / (omega ** (m - j) * top)
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
    if n < 0:
        raise ValueError("n must be >= 0")
    ec = explicit_coefficients(p, z)
    om = np.array(ec.omega)
    return complex(np.sum(np.array(ec.a) * om**n))


def dual_explicit(p: QueueParams, r: int, j: int, z: complex) -> complex:
    """Closed-form value of the dual component ``q_{j,r}(z)``.

    ``q_{j,r}(z) = (mu/lam) * sum_k (omega_k**m - 1) /
    (omega_k**(r-j) * (omega_k**(m+1) - m*mu/lam))`` over all m+1 branches.
    Valid for ``r >= m - 1``; the recurrence route covers smaller r.
    """
    m = p.m
    if not 0 <= j <= m - 1:
        raise ValueError(f"j must be in [0, {m - 1}], got {j}")
    if r < m - 1:
        raise ValueError(f"closed form needs r >= m - 1 = {m - 1}, got {r}")
    ec = explicit_coefficients(p, z)
    om = np.array(ec.omega)
    cred = p.mu / p.lam
    terms = (om**m - 1.0) / (om ** (r - j) * (om ** (m + 1) - m * cred))
    return complex(cred * np.sum(terms))


# --------------------------------------------------------------------------
# monic frames T, L and the symmetry reduction h
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


@functools.lru_cache(maxsize=64)
def _h_table(cfg: AlgebraicConfig, nmax: int) -> tuple[np.ndarray, ...]:
    m, c = cfg.m, cfg.c
    table = [np.array([1.0]) for _ in range(min(m, nmax) + 1)]
    for n in range(m, nmax):
        lower = table[n - m]
        if n % (m + 1) == m:
            nxt = P.polysub(P.polymul(table[n], [0.0, 1.0]), c * lower)
        else:
            nxt = P.polysub(table[n], c * lower)
        table.append(np.atleast_1d(nxt))
    return tuple(table[: nmax + 1])


def h_poly(cfg: AlgebraicConfig, n: int) -> Poly:
    """The reduced polynomial with ``T_n(z) = z**(n mod (m+1)) h_n(z**(m+1))``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Poly.from_array(_h_table(cfg, n)[n])


def second_kind(cfg: AlgebraicConfig, n: int, j: int) -> Poly:
    """Second-kind member ``T_{n,j}``: the shift ``T_{n-j}``, zero for n < j."""
    if not 1 <= j <= cfg.m:
        raise ValueError(f"j must be in [1, {cfg.m}], got {j}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return t_poly(cfg, n - j) if n >= j else Poly.from_array([0.0])


def h_zeros(cfg: AlgebraicConfig, n: int) -> np.ndarray:
    """Ascending real zeros of ``h_n`` (empty for ``n <= m``).

    The zeros are eigenvalues of the companion matrix, polished by two
    Newton steps.  They are provably real, simple and positive; the checks
    here enforce that numerically.

    Raises
    ------
    ZeroFindingFailure
        If a zero refuses to polish to residual ``1e-10 * max|coeff|``, or
        drifts off the real axis.
    """
    coeffs = np.asarray(h_poly(cfg, n).coeffs)
    d = len(coeffs) - 1
    if d == 0:
        return np.empty(0)
    scale = np.max(np.abs(coeffs))
    roots = np.roots(coeffs[::-1])
    dcoeffs = P.polyder(coeffs)
    for _ in range(2):
        val = P.polyval(roots, coeffs)
        der = P.polyval(roots, dcoeffs)
        roots = roots - np.where(der != 0, val / np.where(der != 0, der, 1.0), 0.0)
    if np.max(np.abs(roots.imag)) > 1e-8 * max(1.0, np.max(np.abs(roots))):
        raise ZeroFindingFailure(f"complex zero among h_{n} roots for {cfg}")
    roots = np.sort(roots.real)
    res = np.abs(P.polyval(roots, coeffs))
    if np.max(res) > 1e-10 * scale * max(1.0, np.max(np.abs(roots)) ** d):
        raise ZeroFindingFailure(f"unpolished zero of h_{n}: residual {np.max(res):.3e}")
    return roots
