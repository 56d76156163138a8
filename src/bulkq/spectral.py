"""Spectral data on the star: jump densities, linear functionals, quadrature.

Everything in this module lives on the (m+1)-armed star that carries the
spectrum of the shifted operator frame; its arm length and directions come
from :func:`~bulkq.algebraic.star_geometry`.  Three layers:

* Markov representation -- the jump of ``omega_0**-j`` (the dominant
  branch) across an open arm is a real density; summed over the arms the
  one for j = 1 is a probability density, and the star integrals of these
  densities reproduce ``omega_0**-j`` off the star (``markov_residual``);
* spectral functionals ``sigma_j`` -- realised as contour integrals of the
  closed-form resolvent over a thin tube around the star, plus residue
  atoms at the resolvent poles that escape the tube.  This avoids ever
  differentiating the argument function: every pole is simple;
* Gaussian-type quadrature -- nodes are the (m+1)-th roots of the zeros of
  the reduced polynomials, spread over the arms, with classical
  second-kind-over-derivative weights.

The arm and the tube share one sin^2-graded panel rule (``_graded``) and
one panel-doubling ladder (``_ladder``); the arm's boundary values come
from one batched dominant-root solve, and the resolvent samples and its
pole residues from one tail recurrence (``_tails``).  The tube serves
``sigma_apply`` and ``bulkq validate``.  The resolvent's poles off the star,
with their residues, are computed once per parameter set by the public
``resolvent_poles``: the tube adds the ones it leaves outside as atoms, and
the transition module's contour guard and decay fit read the same set.
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
    AlgebraicConfig, StarGeometry, boundary_values, dominant_roots, star_geometry,
)
from .errors import InsideSupport, QuadratureNotConverged, ZeroFindingFailure
from .model import QueueParams, validate_params
from .polynomials import h_poly, h_zeros

__all__ = [
    "QuadratureRule",
    "markov_residual",
    "resolvent_poles",
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
# panel rule and doubling ladder, shared by the arm and the tube


def _graded(lo: float, hi: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on sin^2-graded panels from lo to hi.

    The panel breaks ``lo + (hi - lo) sin^2(pi s / 2)`` over a uniform
    s-grid cluster at both ends, where the star's densities have their
    square-root tips.  ``hi < lo`` runs the segment backwards.
    """
    s = np.linspace(0.0, 1.0, panels + 1)
    brk = lo + (hi - lo) * np.sin(0.5 * math.pi * s) ** 2
    gx, gw = np.polynomial.legendre.leggauss(order)
    aa, bb = brk[:-1, None], brk[1:, None]
    nodes = 0.5 * (aa + bb) + 0.5 * (bb - aa) * gx
    return nodes.ravel(), (0.5 * (bb - aa) * gw).ravel()


def _ladder(levels: tuple[int, ...], value: Callable, tol: float, what: str) -> complex:
    """Evaluate ``value`` at each panel count in ``levels`` until two agree.

    Returns the first value within ``tol * max(1, |value|)`` of the one
    before it.

    Raises
    ------
    QuadratureNotConverged
        If no two successive levels agree; the message names ``what``.
    """
    prev = delta = None
    for panels in levels:
        val = value(panels)
        if prev is not None:
            delta = abs(val - prev)
            if delta <= tol * max(1.0, abs(val)):
                return val
        prev = val
    raise QuadratureNotConverged(
        f"{what} still moving after {levels[-1]} panels (last delta {delta:.2e})"
    )


# --------------------------------------------------------------------------
# Markov / Stieltjes representation


@lru_cache(maxsize=32)
def _arm_boundary(cfg: AlgebraicConfig, panels: int, order: int):
    """Graded nodes and weights on the arm (0, a), and omega_+ at every node."""
    ts, ws = _graded(0.0, star_geometry(cfg).arm_length, panels, order)
    plus = boundary_values(cfg, ts)[0]
    for cached in (ts, ws, plus):
        cached.setflags(write=False)
    return ts, ws, plus


def _arm_density(cfg: AlgebraicConfig, j: int, panels: int, order: int):
    """Graded Gauss-Legendre nodes on (0, a) with the index-j jump density.

    The density is the boundary jump ``(omega_- ** -j - omega_+ ** -j) /
    (2 pi i)`` of ``omega_0**-j``, which is ``-Im(omega_+ ** -j) / pi``.
    """
    ts, ws, plus = _arm_boundary(cfg, panels, order)
    return ts, ws, -(plus**-j).imag / math.pi


def _dist_to_star(geo: StarGeometry, z: complex) -> float:
    """Euclidean distance from z to the closed star (all arms)."""
    best = math.inf
    for k in range(geo.arm_count):
        d = geo.rotation**k
        t = min(max((z * d.conjugate()).real, 0.0), geo.arm_length)
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
    geo = star_geometry(cfg)
    if _dist_to_star(geo, z) <= SUPPORT_GUARD * geo.arm_length:
        raise InsideSupport(
            f"z={z} is within {SUPPORT_GUARD:.0%} of the arm length from the star"
        )
    lhs = 1.0 / complex(dominant_roots(cfg, z)) ** j
    rots = [geo.rotation**k for k in range(geo.arm_count)]

    def star_integral(panels: int) -> complex:
        ts, ws, dens = _arm_density(cfg, j, panels, 24)
        return sum(d ** (1 - j) * np.sum(dens * ws / (z - ts * d)) for d in rots)

    levels = (16, 32, 64, 128, 256, 512)
    rhs = _ladder(levels, star_integral, tol, f"Markov integral at z={z}, j={j}")
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# tube contour around the star


@lru_cache(maxsize=64)
def _tube_nodes(cfg: AlgebraicConfig, eps: float, panels: int, order: int):
    """Counterclockwise boundary of the eps-tube around the star.

    Per arm: lower side outward, half-circle cap around the tip, upper
    side inward.  The sides start at ``tmin = eps / tan(theta/2)`` which
    places the junctions of consecutive arms exactly on the bisectors, so
    the union is one closed curve enclosing the star (and the origin).
    Returns ``(nodes, dz * gauss_weight)``.
    """
    geo = star_geometry(cfg)
    a = geo.arm_length
    tmin = eps / math.tan(math.pi / geo.arm_count)
    out_t, out_w = _graded(tmin, a, panels, order)
    cap_t, cap_w = _graded(-math.pi / 2, math.pi / 2, max(2, panels // 3), order)
    in_t, in_w = _graded(a, tmin, panels, order)
    arc = np.exp(1j * cap_t)
    zs, ws = [], []
    for k in range(geo.arm_count):
        d = geo.rotation**k
        zs += [(out_t - 1j * eps) * d, a * d + eps * d * arc, (in_t + 1j * eps) * d]
        ws += [d * out_w, 1j * eps * d * arc * cap_w, d * in_w]
    return np.concatenate(zs), np.concatenate(ws)


def _pole_sites(p: QueueParams, geo: StarGeometry):
    """Every pole site: ``(lam zeta, mu + lam zeta, distance to the star)`` per m-th root zeta."""
    for l in range(p.m):
        lz = p.lam * cmath.exp(2j * math.pi * l / p.m)
        zp = p.mu + lz
        yield lz, zp, _dist_to_star(geo, zp)


def _pick_eps(p: QueueParams) -> float:
    """Tube radius keeping every resolvent pole clearly off the curve."""
    geo = star_geometry(AlgebraicConfig(c=p.mu * p.lam**p.m, m=p.m))
    dists = [d for _, _, d in _pole_sites(p, geo)]
    eps = 0.08 * geo.arm_length
    for _ in range(3):
        for d in dists:
            if d / 1.4 < eps < d / 0.6:
                eps = d / 1.4
    return eps


def _tails(m: int, z, w0, w):
    """Tails ``Q_{j-1}(w) = sum_{k >= j} r_k w**(k-j)`` for j = 1..m, and ``R(w)``.

    ``r_k`` are the coefficients of ``R = P_z / (w - omega_0)``, the branch
    polynomial ``P_z(w) = w**(m+1) - z w**m + c`` deflated by its dominant
    root: ``r_m = 1`` and ``r_k = (omega_0 - z) omega_0**(m-1-k)`` below.
    One backward sweep ``Q_{j-1} = r_j + w Q_j`` gives every tail, and
    ``R(w) = r_0 + w Q_0``.  Arguments broadcast; the tails stack on axis 0.
    """
    qs = [np.ones(np.broadcast(z, w0, w).shape, dtype=complex)]
    rk = w0 - z
    for _ in range(m - 1):
        qs.append(rk + w * qs[-1])
        rk = w0 * rk
    return np.array(qs[::-1]), rk + w * qs[-1]


def _fhat_block(p: QueueParams, zs: np.ndarray) -> np.ndarray:
    """Closed-form resolvent samples ``fhat_j(z)`` for j = 1..m, vectorized.

    ``fhat_j(z) = Q_{j-1}(z - mu) / R(z - mu)`` (see :func:`_tails`).
    """
    m = p.m
    w0 = dominant_roots(AlgebraicConfig(c=p.mu * p.lam**m, m=m), zs)
    q, rv = _tails(m, zs, w0, zs - p.mu)
    return q / rv


@lru_cache(maxsize=64)
def resolvent_poles(p: QueueParams) -> tuple[tuple[complex, float, np.ndarray], ...]:
    """Non-removable resolvent poles off the star, as ``(z, distance, residues)``.

    The poles sit at ``z = mu + lam zeta`` over the m-th roots of unity
    ``zeta``.  One is dropped when it lies on the star up to rounding (every
    tube, and the arm samples of the transition guard, already cover it) or
    when ``lam zeta`` is the dominant branch there (removable).  ``distance``
    is the distance to the star; the residue of fhat_j is ``-Q_{j-1}(lam
    zeta) (lam zeta - omega_0) / (m mu (lam zeta)**(m-1))``, for j = 1..m.
    One batched dominant-root solve serves every pole.  Cached per
    parameter set; the residue vectors are read-only.
    """
    validate_params(p)
    m, lam, mu = p.m, p.lam, p.mu
    cfg = AlgebraicConfig(c=mu * lam**m, m=m)
    geo = star_geometry(cfg)
    sites = [s for s in _pole_sites(p, geo) if s[2] > 1e-12 * geo.arm_length]
    if not sites:
        return ()
    lz, zp, dist = (np.array(col) for col in zip(*sites))
    w0 = dominant_roots(cfg, zp)
    keep = np.abs(lz - w0) >= 1e-8 * lam
    lz, zp, dist, w0 = lz[keep], zp[keep], dist[keep], w0[keep]
    q, _ = _tails(m, zp, w0, lz)
    res = -q * (lz - w0) / (m * mu * lz ** (m - 1))
    res.setflags(write=False)
    return tuple((complex(z), float(d), res[:, k]) for k, (z, d) in enumerate(zip(zp, dist)))


@dataclass(frozen=True, eq=False)
class _TubePack:
    """Cached contour data for one parameter set and one resolution."""

    z: np.ndarray
    w: np.ndarray
    fhat: np.ndarray  # (m, K)
    atoms: tuple[tuple[complex, np.ndarray], ...]


@lru_cache(maxsize=32)
def _tube_pack(p: QueueParams, panels: int, order: int) -> _TubePack:
    eps = _pick_eps(p)
    zs, ws = _tube_nodes(AlgebraicConfig(c=p.mu * p.lam**p.m, m=p.m), eps, panels, order)
    atoms = tuple((z, res) for z, dist, res in resolvent_poles(p) if dist > eps)
    return _TubePack(z=zs, w=ws, fhat=_fhat_block(p, zs), atoms=atoms)


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
        If three doublings never stabilize the value.
    """
    validate_params(p)
    if not 0 <= j <= p.m - 1:
        raise ValueError(f"j must be in 0..{p.m - 1}, got {j}")
    shift = p.lam + p.mu

    def functional(panels: int) -> complex:
        pack = _tube_pack(p, panels, GL_ORDER)
        val = np.sum(_eval_f(f, pack.z - shift) * pack.fhat[j] * pack.w) / (2j * math.pi)
        for zp, res in pack.atoms:
            val = val + res[j] * _eval_f(f, np.array([zp - shift]))[0]
        return p.lam**j * val

    levels = (BASE_PANELS, 2 * BASE_PANELS, 4 * BASE_PANELS, 8 * BASE_PANELS)
    return float(_ladder(levels, functional, tol, f"sigma_{j}").real)


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
    geo = star_geometry(cfg)
    nodes = zeta[:, None] * geo.rotation ** np.arange(geo.arm_count)[None, :]
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
