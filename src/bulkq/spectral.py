"""Spectral data on the star: weights, linear functionals, quadrature.

Everything in this module lives on the (m+1)-armed star that carries the
spectrum of the shifted operator frame.  Three layers:

* boundary weights -- the jump of (negative powers of) the dominant branch
  across an open arm gives a family of real densities; the base one is a
  probability density once summed over arms;
* spectral functionals ``sigma_j`` -- realised as contour integrals of the
  closed-form resolvent over a thin tube around the star, plus residue
  atoms at the resolvent poles that escape the tube.  This avoids ever
  differentiating the argument function: every pole is simple;
* Gaussian-type quadrature -- nodes are the (m+1)-th roots of the zeros of
  the reduced polynomials, spread over the arms, with classical
  second-kind-over-derivative weights.

The tube machinery at the bottom serves ``sigma_apply`` and ``bulkq
validate``; the transition module integrates resolvent rows on Talbot's
contour instead and borrows only the poles and residues of ``_atoms``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .algebraic import (
    AlgebraicConfig, boundary_values, dominant_roots, solve_branches, star_geometry,
)
from .errors import (
    InsideSupport,
    QuadratureNotConverged,
    ZeroFindingFailure,
)
from .model import QueueParams, validate_params
from .polynomials import h_poly, h_zeros

__all__ = [
    "WeightFunction",
    "SpectralFunctional",
    "QuadratureRule",
    "weight_rho",
    "weight_rho_j",
    "markov_residual",
    "sigma_apply",
    "star_quadrature",
]

GL_ORDER = 20
BASE_PANELS = 12
SIGMA_TOL = 1e-9
MARKOV_TOL = 1e-10
#: relative guard band around the star for Markov evaluation points
SUPPORT_GUARD = 0.1


# --------------------------------------------------------------------------
# boundary weights


def weight_rho(cfg: AlgebraicConfig, t: float) -> float:
    """Base spectral weight at ``t`` on the open arm (0, a).

    This is the boundary jump of the reciprocal dominant branch,
    ``(1/2 pi i)(1/omega_minus - 1/omega_plus)``, which collapses to
    ``Im(omega_plus) / (pi |omega_plus|**2)`` and is strictly positive on
    the open arm.  Summed over all m+1 arms the weight has total mass 1.

    Raises
    ------
    NotOnOpenArm
        If ``t`` is not strictly inside (0, a).
    NoConjugatePair
        Propagated from the branch solve at degenerate points.
    """
    plus, minus = boundary_values(cfg, t)
    val = (1.0 / minus - 1.0 / plus) / (2j * math.pi)
    return float(val.real)


def weight_rho_j(cfg: AlgebraicConfig, j: int, t: float) -> float:
    """Symmetric boundary-branch combination for the index-j weight.

    Returns ``sum_{k=0}^{j-1} omega_plus**-(j-1-k) * omega_minus**-k``,
    which is real and positive on the open arm; the index-j spectral
    density is this times :func:`weight_rho`, because the telescoping
    ``x**-j - y**-j = (x**-1 - y**-1) sum x**-(j-1-k) y**-k`` turns the
    product into the boundary jump of ``omega_0**-j``.

    Requires ``2 <= j <= m`` (for j = 1 the combination is identically 1).
    """
    if not 2 <= j <= cfg.m:
        raise ValueError(f"j must be in 2..{cfg.m}, got {j}")
    plus, minus = boundary_values(cfg, t)
    acc = 0j
    for k in range(j):
        acc += plus ** -(j - 1 - k) * minus**-k
    return float(acc.real)


@dataclass(frozen=True)
class WeightFunction:
    """One member of the weight family on the arm (0, a).

    ``j = 0`` is the base weight; ``j >= 1`` is the density paired with
    the j-th spectral functional, i.e. the base weight times the index
    ``j+1`` symmetric combination.  All members are positive on the open
    arm, finite as t -> 0+ and vanish like a square root at the tip.
    """

    cfg: AlgebraicConfig
    j: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.j <= self.cfg.m - 1:
            raise ValueError(f"j must be in 0..{self.cfg.m - 1}, got {self.j}")

    @property
    def support(self) -> tuple[float, float]:
        """The open arm (0, a) the density lives on."""
        return (0.0, star_geometry(self.cfg).arm_length)

    def __call__(self, t: float) -> float:
        base = weight_rho(self.cfg, t)
        if self.j == 0:
            return base
        return base * weight_rho_j(self.cfg, self.j + 1, t)


# --------------------------------------------------------------------------
# Markov / Stieltjes representation


@lru_cache(maxsize=128)
def _arm_density(cfg: AlgebraicConfig, j: int, panels: int, order: int):
    """Graded Gauss-Legendre nodes on (0, a) with the index-j jump density.

    The density is the boundary jump of ``omega_0**-j``; grading is the
    sin^2 map, clustering points at both the origin and the square-root
    tip of the weight.
    """
    a = star_geometry(cfg).arm_length
    s = np.linspace(0.0, 1.0, panels + 1)
    brk = a * np.sin(0.5 * math.pi * s) ** 2
    gx, gw = np.polynomial.legendre.leggauss(order)
    ts, ws = [], []
    for lo, hi in zip(brk[:-1], brk[1:]):
        ts.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * gx)
        ws.append(0.5 * (hi - lo) * gw)
    t_all = np.concatenate(ts)
    w_all = np.concatenate(ws)
    dens = np.empty_like(t_all)
    for i, t in enumerate(t_all):
        plus, minus = boundary_values(cfg, float(t))
        dens[i] = ((minus**-j - plus**-j) / (2j * math.pi)).real
    return t_all, w_all, dens


def _dist_to_star(m: int, c: float, z: complex) -> float:
    """Euclidean distance from z to the closed star (all m+1 arms)."""
    a = ((m + 1) / m) * (m * c) ** (1.0 / (m + 1))
    best = math.inf
    for k in range(m + 1):
        d = cmath.exp(2j * math.pi * k / (m + 1))
        t = min(max((z * d.conjugate()).real, 0.0), a)
        best = min(best, abs(z - t * d))
    return best


def markov_residual(cfg: AlgebraicConfig, j: int, z: complex, *, tol: float = MARKOV_TOL) -> float:
    """Defect of the Markov representation of ``omega_0(z)**-j``.

    Compares the j-th reciprocal power of the dominant branch with the
    star integral ``sum_k d_k**(1-j) int rho_j(t) dt / (z - t d_k)``
    (``d_k`` the rotations, ``rho_j`` the index-j jump density) and
    returns the absolute difference.  The integral is computed with
    panel-doubled graded quadrature.

    Raises
    ------
    InsideSupport
        If ``z`` is closer to the star than a tenth of the arm length.
    QuadratureNotConverged
        If doubling panels never stabilizes the integral to ``tol``.
    """
    m = cfg.m
    if not 1 <= j <= m:
        raise ValueError(f"j must be in 1..{m}, got {j}")
    z = complex(z)
    a = star_geometry(cfg).arm_length
    if _dist_to_star(m, cfg.c, z) <= SUPPORT_GUARD * a:
        raise InsideSupport(
            f"z={z} is within {SUPPORT_GUARD:.0%} of the arm length from the star"
        )
    lhs = 1.0 / solve_branches(cfg, z).omega[0] ** j
    rots = [cmath.exp(2j * math.pi * k / (m + 1)) for k in range(m + 1)]

    prev = None
    for panels in (16, 32, 64, 128, 256, 512):
        ts, ws, dens = _arm_density(cfg, j, panels, 24)
        rhs = 0j
        for d in rots:
            rhs += d ** (1 - j) * np.sum(dens * ws / (z - ts * d))
        if prev is not None and abs(rhs - prev) <= tol * max(1.0, abs(rhs)):
            return abs(lhs - rhs)
        prev = rhs
    raise QuadratureNotConverged(
        f"Markov integral at z={z}, j={j} still moving after 512 panels"
    )


# --------------------------------------------------------------------------
# tube contour around the star


@lru_cache(maxsize=64)
def _tube_nodes(m: int, c: float, eps: float, panels: int, order: int):
    """Counterclockwise boundary of the eps-tube around the star.

    Per arm: lower side outward, half-circle cap around the tip, upper
    side inward.  The sides start at ``tmin = eps / tan(theta/2)`` which
    places the junctions of consecutive arms exactly on the bisectors, so
    the union is one closed curve enclosing the star (and its center).
    Returns ``(nodes, dz * gauss_weight)``.
    """
    a = ((m + 1) / m) * (m * c) ** (1.0 / (m + 1))
    theta = 2 * math.pi / (m + 1)
    tmin = eps / math.tan(theta / 2)
    gx, gw = np.polynomial.legendre.leggauss(order)
    zs, ws = [], []

    def seg(f, df, lo, hi, n):
        s = np.linspace(0.0, 1.0, n + 1)
        brk = lo + (hi - lo) * np.sin(0.5 * math.pi * s) ** 2
        for aa, bb in zip(brk[:-1], brk[1:]):
            t = 0.5 * (aa + bb) + 0.5 * (bb - aa) * gx
            zs.append(f(t))
            ws.append(df(t) * 0.5 * (bb - aa) * gw)

    for k in range(m + 1):
        d = cmath.exp(2j * math.pi * k / (m + 1))
        seg(lambda t, d=d: (t - 1j * eps) * d, lambda t, d=d: d * np.ones_like(t), tmin, a, panels)
        seg(
            lambda al, d=d: a * d + eps * d * np.exp(1j * al),
            lambda al, d=d: 1j * eps * d * np.exp(1j * al),
            -math.pi / 2,
            math.pi / 2,
            max(2, panels // 3),
        )
        seg(lambda t, d=d: (t + 1j * eps) * d, lambda t, d=d: d * np.ones_like(t), a, tmin, panels)
    return np.concatenate(zs), np.concatenate(ws)


def _pick_eps(p: QueueParams) -> float:
    """Tube radius keeping every resolvent pole clearly off the curve."""
    c = p.mu * p.lam**p.m
    a = ((p.m + 1) / p.m) * (p.m * c) ** (1.0 / (p.m + 1))
    eps = 0.08 * a
    for _ in range(3):
        for l in range(p.m):
            zp = p.mu + p.lam * cmath.exp(2j * math.pi * l / p.m)
            d = _dist_to_star(p.m, c, zp)
            if d / 1.4 < eps < d / 0.6:
                eps = d / 1.4
    return eps


def _division_rows(m: int, c: float, zs: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Coefficient rows of P_z(w) / (w - omega_0), synthetic division.

    ``P_z(w) = w**(m+1) - z w**m + c``; returns r of shape (m+1, len(zs))
    with the deflated polynomial ``R(w) = sum_k r[k] w**k``.
    """
    r = np.zeros((m + 1, len(zs)), dtype=complex)
    r[m] = 1.0
    for k in range(m, 0, -1):
        r[k - 1] = (-zs if k == m else 0.0) + w0 * r[k]
    return r


def _fhat_block(p: QueueParams, zs: np.ndarray) -> np.ndarray:
    """Closed-form resolvent samples ``fhat_j(z)`` for j = 1..m, vectorized.

    ``fhat_j(z) = Q_{j-1}(z - mu) / R(z - mu)`` where R is the algebraic
    polynomial deflated by its dominant root and Q_{j-1} collects the
    coefficients of R above degree j-1.
    """
    m, mu = p.m, p.mu
    c = p.mu * p.lam**m
    cfg = AlgebraicConfig(c=c, m=m)
    w0 = dominant_roots(cfg, zs)
    r = _division_rows(m, c, zs, w0)
    wv = zs - mu
    pw = wv[None, :] ** np.arange(m + 1)[:, None]
    rv = np.sum(r * pw, axis=0)
    out = np.empty((m, len(zs)), dtype=complex)
    for j in range(1, m + 1):
        qj = np.zeros_like(zs)
        for deg in range(j, m + 1):
            qj = qj + r[deg] * wv ** (deg - j)
        out[j - 1] = qj / rv
    return out


def _atoms(p: QueueParams, eps: float) -> tuple[tuple[complex, np.ndarray], ...]:
    """Resolvent poles outside the eps-tube with their residue vectors.

    The poles sit at ``z = mu + lam zeta`` over the m-th roots of unity
    ``zeta``; one is skipped when it falls inside the tube (the contour
    already captures it) or when it coincides with the dominant branch
    (removable).  Residue of fhat_j: ``-Q_{j-1}(lam zeta) (lam zeta -
    omega_0) / (m mu (lam zeta)**(m-1))``.
    """
    m, lam, mu = p.m, p.lam, p.mu
    c = mu * lam**m
    cfg = AlgebraicConfig(c=c, m=m)
    out = []
    for l in range(m):
        zeta = cmath.exp(2j * math.pi * l / m)
        zp = mu + lam * zeta
        if _dist_to_star(m, c, zp) <= eps:
            continue
        w0 = solve_branches(cfg, zp).omega[0]
        lz = lam * zeta
        if abs(lz - w0) < 1e-8 * lam:
            continue
        r = _division_rows(m, c, np.array([zp]), np.array([w0]))[:, 0]
        res = np.empty(m, dtype=complex)
        for j in range(1, m + 1):
            qj = sum(r[deg] * lz ** (deg - j) for deg in range(j, m + 1))
            res[j - 1] = -qj * (lz - w0) / (m * mu * lz ** (m - 1))
        out.append((zp, res))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class _TubePack:
    """Cached contour data for one parameter set and one resolution."""

    eps: float
    z: np.ndarray
    w: np.ndarray
    fhat: np.ndarray  # (m, K)
    atoms: tuple[tuple[complex, np.ndarray], ...]


@lru_cache(maxsize=32)
def _tube_pack(p: QueueParams, panels: int, order: int) -> _TubePack:
    c = p.mu * p.lam**p.m
    eps = _pick_eps(p)
    zs, ws = _tube_nodes(p.m, c, eps, panels, order)
    return _TubePack(eps=eps, z=zs, w=ws, fhat=_fhat_block(p, zs), atoms=_atoms(p, eps))


def _eval_f(f: Callable, z: np.ndarray) -> np.ndarray:
    """Apply f to a complex array, falling back to a scalar loop."""
    if z.size == 1:
        return np.array([complex(f(complex(z.ravel()[0])))]).reshape(z.shape)
    try:
        out = np.asarray(f(z))
        if out.shape == z.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(complex(v))) for v in z.ravel()]).reshape(z.shape)


# --------------------------------------------------------------------------
# spectral functionals


def _sigma_from_pack(p: QueueParams, j: int, f: Callable, pack: _TubePack) -> complex:
    shift = p.lam + p.mu
    gx = _eval_f(f, pack.z - shift)
    val = np.sum(gx * pack.fhat[j] * pack.w) / (2j * math.pi)
    for zp, res in pack.atoms:
        gp = _eval_f(f, np.array([zp - shift]))[0]
        val = val + res[j] * gp
    return p.lam**j * val


def sigma_apply(p: QueueParams, j: int, f: Callable, *, tol: float = SIGMA_TOL) -> float:
    """Apply the j-th spectral functional to an analytic function.

    ``sigma_0(1) = 1`` and ``sigma_j(1) = 0`` for j >= 1; applied to
    monomials the family reproduces the generator's moment table row by
    row.  ``f`` must accept a complex numpy array (a scalar-only callable
    is tolerated but slower).  The evaluation integrates ``f`` against
    the closed-form resolvent on a tube around the star and adds residue
    atoms for the poles left outside; panels are doubled until two
    successive values agree to ``tol``.

    Raises
    ------
    QuadratureNotConverged
        If two doublings never stabilize the value.
    """
    validate_params(p)
    if not 0 <= j <= p.m - 1:
        raise ValueError(f"j must be in 0..{p.m - 1}, got {j}")
    prev = None
    for panels in (BASE_PANELS, 2 * BASE_PANELS, 4 * BASE_PANELS):
        val = _sigma_from_pack(p, j, f, _tube_pack(p, panels, GL_ORDER))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return float(val.real)
        prev = val
    raise QuadratureNotConverged(
        f"sigma_{j} not stable after {4 * BASE_PANELS} panels (last delta "
        f"{abs(val - prev):.2e})"
    )


@dataclass(frozen=True)
class SpectralFunctional:
    """The j-th member of the functional family for one parameter set.

    Continuous part: the index-j weight spread over the m+1 arms of the
    (shifted) star.  Atomic part: finitely many point masses at the
    resolvent poles; both are realised jointly by the tube contour of
    :func:`sigma_apply`, which this object simply binds to (p, j).
    """

    p: QueueParams
    j: int

    def __post_init__(self) -> None:
        validate_params(self.p)
        if not 0 <= self.j <= self.p.m - 1:
            raise ValueError(f"j must be in 0..{self.p.m - 1}, got {self.j}")

    def __call__(self, f: Callable, *, tol: float = SIGMA_TOL) -> float:
        return sigma_apply(self.p, self.j, f, tol=tol)


# --------------------------------------------------------------------------
# star quadrature


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-type rule on the star built from reduced-polynomial zeros.

    ``nodes[i, k] = zeros[i]**(1/(m+1)) * e**(2 pi i k/(m+1))`` and
    ``weights[i, k]`` is the classical ratio (previous polynomial over
    derivative) at ``zeros[i]``, independent of the arm k; when the index
    residue ``s = n mod (m+1)`` is zero the ratio additionally carries a
    factor ``zeros[i]`` (the previous polynomial then sits in the top
    residue class and contributes its argument), which is what makes the
    total mass come out to ``(m+1) c`` for every index.

    Writing ``n = d(m+1) + s``, the rule computes the operator moments
    ``moment(T, nu, 1)`` as ``(1/(m+1)) sum weights * node**(nu - m - 1)``
    exactly for every ``nu = s' + s`` divisible by m+1 with
    ``s' <= exactness_degree``, where
    ``exactness_degree = (m+1)d + floor(((m+1)d + s - 1)/m)``.
    The bound is sharp: the next admissible monomial past it fails.
    """

    cfg: AlgebraicConfig
    n: int
    zeros: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def monomial_moment(self, nu: int) -> float:
        """Quadrature value for the degree-nu moment (see class docstring)."""
        if nu < 0:
            raise ValueError("nu must be >= 0")
        m = self.cfg.m
        acc = np.sum(self.weights * self.nodes ** (nu - m - 1)) / (m + 1)
        return float(acc.real)


def star_quadrature(cfg: AlgebraicConfig, n: int) -> QuadratureRule:
    """Quadrature rule of index n on the star.

    Requires ``n >= m + 1`` so that the reduced polynomial has at least
    one zero.  Weights are positive and sum (over all zeros and arms) to
    ``(m+1) c``.

    Raises
    ------
    ZeroFindingFailure
        If a weight comes out nonpositive or nonfinite (a zero of the
        reduced polynomial was not resolved cleanly).
    """
    m = cfg.m
    if n < m + 1:
        raise ValueError(f"n must be >= m+1 = {m + 1}, got {n}")
    d, s = divmod(n, m + 1)
    xs = h_zeros(cfg, n)
    dcoef = P.polyder(np.asarray(h_poly(cfg, n).coeffs))
    lam_w = h_poly(cfg, n - 1)(xs).real / P.polyval(xs, dcoef)
    if s == 0:
        lam_w = lam_w * xs
    if not np.all(np.isfinite(lam_w)) or np.any(lam_w <= 0.0):
        raise ZeroFindingFailure(
            f"nonpositive quadrature weight at n={n} (zeros not resolved?)"
        )
    zeta = xs ** (1.0 / (m + 1))
    rots = np.exp(2j * np.pi * np.arange(m + 1) / (m + 1))
    nodes = zeta[:, None] * rots[None, :]
    weights = np.repeat(lam_w[:, None], m + 1, axis=1)
    rule = QuadratureRule(
        cfg=cfg,
        n=n,
        zeros=xs,
        nodes=nodes,
        weights=weights,
        exactness_degree=(m + 1) * d + ((m + 1) * d + s - 1) // m,
    )
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule
