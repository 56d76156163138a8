"""Spectral data on the star: jump densities, linear functionals, quadrature.

Everything in this module lives on the (m+1)-armed star of
:func:`~bulkq.algebraic.star_geometry`; the queue's tube, poles and residues
are in the generator's x, over :func:`~bulkq.model.branch_config`.  Three layers:

* Markov representation -- the jump of ``omega_0**-j`` (the dominant
  branch) across an open arm is a real density; summed over the arms the
  one for j = 1 is a probability density, and the star integrals of these
  densities reproduce ``omega_0**-j`` off the star (``markov_residual``);
* spectral functionals ``sigma_j`` -- realised as contour integrals of the
  closed-form resolvent row over a thin tube around the star, plus residue
  atoms at the resolvent poles that escape the tube.  This avoids ever
  differentiating the argument function: every pole is simple;
* Gaussian-type quadrature -- nodes are the (m+1)-th roots of the zeros of
  the reduced polynomials, spread over the arms, with classical
  second-kind-over-derivative weights, all from T's section and the
  recurrences run at the nodes, none from monomial coefficients.

The arm and the tube share one sin^2-graded panel rule (``_graded``) and
one panel-doubling ladder (``_ladder``), which stops at the module's
``MARKOV_TOL`` or ``SIGMA_TOL``; the arm's boundary values come from one
batched dominant-root solve, and the resolvent samples and its pole
residues from one tail recurrence (``_tails``).  The tube is one weighted
rule (``_tube_pack``): its nodes and residue atoms, each with a weight per
functional, so that ``sigma_j(f) = Re sum f(x) weights[j]``; its first
arm's dominant roots, rotated, serve every arm.  That rule
serves ``sigma_apply``, ``pairing_matrix`` (the bi-orthogonality pairing of
``Q_n`` with the dual vectors, as one matrix) and ``bulkq validate``.  The
resolvent's poles off the star, with their residues, are computed once per
parameter set by the public ``resolvent_poles``: the tube adds the ones it
leaves outside as atoms, and the transition module's contour guard and
decay fit read the same set.  A pole on an arm has a residue from each
side; ``arm_pole_residues`` gives their mean to the decay fit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .algebraic import AlgebraicConfig, StarGeometry, boundary_values, dominant_roots
from .algebraic import pole_site_roots, star_geometry
from .errors import InsideSupport, QuadratureNotConverged, ZeroFindingFailure
from .model import QueueParams, branch_config, require_int, validate_params
from .polynomials import COMPLEX_STEP, dual_vector, h_zeros, q_poly, t_poly

__all__ = [
    "QuadratureRule",
    "arm_pole_residues",
    "markov_residual",
    "pairing_matrix",
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
#: a pole this close to the star, relative to the arm length, lies on it
_ON_STAR = 1e-12
#: offset to either side of an arm for an on-arm pole's residue, same scale
_ARM_SIDE = 1e-7


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


def _ladder(levels: tuple[int, ...], value: Callable, tol: float, what: str):
    """Evaluate ``value`` at each panel count in ``levels`` until two agree.

    Returns the first value within ``tol * max(1, |value|)`` of the one
    before it; for an array value both sides are its largest entry.

    Raises
    ------
    QuadratureNotConverged
        If no two successive levels agree; the message names ``what``.
    """
    prev = delta = None
    for panels in levels:
        val = value(panels)
        if prev is not None:
            delta = np.max(np.abs(val - prev))
            if delta <= tol * max(1.0, np.max(np.abs(val))):
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


def markov_residual(cfg: AlgebraicConfig, j: int, z: complex) -> float:
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
        If doubling panels never stabilizes the integral to ``MARKOV_TOL``.
    """
    require_int("j", j, 1, cfg.m)
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
    rhs = _ladder(levels, star_integral, MARKOV_TOL, f"Markov integral at z={z}, j={j}")
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# tube contour around the star


def _tube_nodes(p: QueueParams, eps: float, panels: int, order: int):
    """Counterclockwise boundary of the eps-tube around the star, in x.

    Per arm: lower side outward, half-circle cap around the tip, upper
    side inward.  The sides start at ``tmin = eps / tan(theta/2)`` which
    places the junctions of consecutive arms exactly on the bisectors, so
    the union is one closed curve enclosing the star.  Built in zeta, it
    returns ``(x, dx * gauss_weight)`` with ``x = lam (zeta - 1) - mu``.
    """
    geo = star_geometry(branch_config(p))
    a, eps = geo.arm_length, eps / p.lam
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
    return p.lam * (np.concatenate(zs) - 1.0) - p.mu, p.lam * np.concatenate(ws)


def _pole_sites(cfg: AlgebraicConfig):
    """The m-th roots of unity u, the sites ``zeta = c + u`` and their distances to the star."""
    geo = star_geometry(cfg)
    u = np.array([cmath.exp(2j * math.pi * l / cfg.m) for l in range(cfg.m)])
    return u, cfg.c + u, np.array([_dist_to_star(geo, z) for z in cfg.c + u])


def _pick_eps(p: QueueParams) -> float:
    """Tube radius in units of x, keeping every resolvent pole clearly off the curve."""
    cfg = branch_config(p)
    dists = _pole_sites(cfg)[2]
    eps = 0.08 * star_geometry(cfg).arm_length
    for _ in range(3):
        for d in dists:
            if d / 1.4 < eps < d / 0.6:
                eps = d / 1.4
    return p.lam * eps


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


def _fhat_block(p: QueueParams, x: np.ndarray, arms: int = 1) -> np.ndarray:
    """Row 0 of the generator's resolvent ``(x - A)^{-1}``, entries 0..m-1, at every x.

    Entry j (axis 0) is ``Q_j(zeta - c) / (lam R(zeta - c))`` (see :func:`_tails`).
    With ``arms = m + 1``, x is :func:`_tube_nodes`' tube: its first arm's roots,
    rotated, serve every arm, as ``omega(d zeta) = d omega(zeta)`` for ``d**(m+1) = 1``.
    """
    cfg = branch_config(p)
    zeta = (x + p.lam + p.mu) / p.lam
    rot = star_geometry(cfg).rotation ** np.arange(arms)
    w0 = np.multiply.outer(rot, dominant_roots(cfg, zeta[: zeta.size // arms]))
    q, rv = _tails(p.m, zeta, w0.reshape(zeta.shape), zeta - cfg.c)
    return q / (p.lam * rv)


@lru_cache(maxsize=64)
def resolvent_poles(p: QueueParams) -> tuple[tuple[complex, float, np.ndarray], ...]:
    """Non-removable resolvent poles off the star, as ``(x, distance, residues)``.

    The poles sit at ``x = lam (u - 1)`` over the m-th roots of unity u.
    One is dropped when it lies on the star up to rounding (every tube, and
    the arm samples of the transition guard, already cover it) or when u is
    the dominant branch at ``zeta = c + u`` (removable).  ``distance`` to the
    star is in units of x, as the tube's ``eps``; ``residues[j]``, of row 0,
    entry j of ``(x - A)^{-1}``, is ``-Q_j(u) (u - omega_0) / (m c
    u**(m-1))``.  The sites' dominant roots come from their known factor ``w - u``
    (:func:`~bulkq.algebraic.pole_site_roots`).  Cached per parameter set; the
    residue vectors are read-only.
    """
    validate_params(p)
    cfg = branch_config(p)
    u, zeta, dist = _pole_sites(cfg)
    off = dist > _ON_STAR * star_geometry(cfg).arm_length
    u, zeta, dist = u[off], zeta[off], dist[off]
    w0 = pole_site_roots(cfg, u)
    keep = np.abs(u - w0) >= 1e-8
    u, zeta, dist, w0 = u[keep], zeta[keep], p.lam * dist[keep], w0[keep]
    res = _pole_residues(cfg, u, zeta, w0)
    res.setflags(write=False)
    x = p.lam * (u - 1.0)
    return tuple((complex(x[k]), float(d), res[:, k]) for k, d in enumerate(dist))


def arm_pole_residues(p: QueueParams) -> tuple[tuple[complex, np.ndarray], ...]:
    """Resolvent poles on an arm of the star, as ``(x, residues)``.

    For even m with ``0 < mu/lam - 1 < a`` (a the branch star's arm length)
    the pole ``x = -2 lam`` (u = -1) lies on the real arm, where
    :func:`resolvent_poles` drops it.  The dominant branch jumps there, so
    the residue has one value per side, each ``1e-7 a`` off the arm in zeta;
    this returns their mean (real for a real pole).  The center and the
    tips (``|zeta| = a``, as at lam = mu with m = 1) are branch points, not
    poles, and are left out.
    """
    validate_params(p)
    cfg = branch_config(p)
    a = star_geometry(cfg).arm_length
    out = []
    for u, zeta, dist in zip(*_pole_sites(cfg)):
        if dist <= _ON_STAR * a < min(abs(zeta), abs(abs(zeta) - a)):
            side = _ARM_SIDE * a * 1j * zeta / abs(zeta)
            w0 = dominant_roots(cfg, np.array([zeta + side, zeta - side]))
            out.append((p.lam * (u - 1.0), _pole_residues(cfg, u, zeta, w0).mean(axis=1)))
    return tuple(out)


def _pole_residues(cfg: AlgebraicConfig, u, zeta, w0) -> np.ndarray:
    """Residues of :func:`_fhat_block` (axis 0) at ``zeta = c + u``, w0 the dominant root."""
    q, _ = _tails(cfg.m, zeta, w0, u)
    return -q * (u - w0) / (cfg.m * cfg.c * u ** (cfg.m - 1))


@lru_cache(maxsize=32)
def _tube_pack(p: QueueParams, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The tube rule for sigma_0..sigma_{m-1} as nodes ``x`` and ``weights``.

    ``x`` holds the tube nodes followed by the atoms (the resolvent poles the
    tube leaves outside), in the generator's variable.  Row j of ``weights``
    (shape ``(m, len(x))``) is entry j of the resolvent's row 0 times
    ``dx / (2 pi i)`` on the nodes and its residue on the atoms, so
    ``sigma_j(f) = Re sum f(x) weights[j]``.  Both arrays are read-only.
    """
    eps = _pick_eps(p)
    xs, dx = _tube_nodes(p, eps, panels, order)
    atoms = [(x, res) for x, dist, res in resolvent_poles(p) if dist > eps]
    x = np.append(xs, [x for x, _ in atoms])
    nodes = _fhat_block(p, xs, p.m + 1) * dx / (2j * math.pi)
    weights = np.column_stack([nodes] + [res for _, res in atoms])
    for cached in (x, weights):
        cached.setflags(write=False)
    return x, weights


def _eval_f(f: Callable, z: np.ndarray) -> np.ndarray:
    """Apply f to a complex array, falling back to a scalar loop."""
    try:
        out = np.asarray(f(z))
        if out.shape == z.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(complex(v))) for v in z.ravel()]).reshape(z.shape)


# --------------------------------------------------------------------------
# spectral functionals


def _tube_ladder(p: QueueParams, contract: Callable, what: str):
    """``contract(x, weights)`` on the tube rule at ``BASE_PANELS`` and three doublings."""
    levels = (BASE_PANELS, 2 * BASE_PANELS, 4 * BASE_PANELS, 8 * BASE_PANELS)
    return _ladder(
        levels, lambda panels: contract(*_tube_pack(p, panels, GL_ORDER)), SIGMA_TOL, what
    )


def sigma_apply(p: QueueParams, j: int, f: Callable) -> float:
    """Apply the j-th spectral functional to an analytic function.

    ``sigma_0(1) = 1`` and ``sigma_j(1) = 0`` for j >= 1; applied to
    monomials the family reproduces the generator's moment table row by
    row.  ``f`` must accept a complex numpy array (a scalar-only callable
    is tolerated but slower).  The value is ``Re sum f(x) weights[j]`` over
    one weighted rule: the nodes of a tube around the star, carrying the
    closed-form resolvent, and the residue atoms of the poles the tube
    leaves outside.  Panels are doubled until two successive values agree
    to ``SIGMA_TOL``.

    Raises
    ------
    ValueError
        If ``j`` is not an integer in 0..m-1.
    QuadratureNotConverged
        If three doublings never stabilize the value.
    """
    validate_params(p)
    require_int("j", j, 0, p.m - 1)

    def contract(x, weights):
        return np.sum(_eval_f(f, x) * weights[j])

    return float(_tube_ladder(p, contract, f"sigma_{j}").real)


def pairing_matrix(p: QueueParams, N: int) -> np.ndarray:
    """The bi-orthogonality pairing ``G[n, r] = sum_j sigma_j(Q_n q_{j,r})``, n, r < N.

    In exact arithmetic ``G`` is the N x N identity.  Per ladder level every
    ``Q_n`` and every dual component ``q_{j,r}`` is evaluated once on the
    tube rule of :func:`sigma_apply`, and ``G = Re sum_j (Q weights[j]) D_j^T``
    with ``Q[n] = Q_n(x)`` and ``D_j[r] = q_{j,r}(x)``.  The ladder compares
    the largest entry change with ``SIGMA_TOL``.

    Raises
    ------
    ValueError
        If ``N`` is not an integer >= 1.
    QuadratureNotConverged
        If three doublings never stabilize the matrix.
    """
    validate_params(p)
    require_int("N", N, 1)
    qs = [q_poly(p, n) for n in range(N)]
    duals = [dual_vector(p, r).components for r in range(N)]

    def contract(x, weights):
        qx = np.array([q(x) for q in qs])
        return sum(
            (qx * weights[j]) @ np.array([d[j](x) for d in duals]).T for j in range(p.m)
        )

    return _tube_ladder(p, contract, f"pairing matrix of size {N}").real


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
        require_int("nu", nu, 0)
        m = self.cfg.m
        acc = np.sum(self.weights * self.nodes ** (nu - m - 1)) / (m + 1)
        return float(acc.real)


def star_quadrature(cfg: AlgebraicConfig, n: int) -> QuadratureRule:
    """Quadrature rule of index n on the star.

    Requires ``n >= m + 1`` so that the reduced polynomial has at least
    one zero.  Its zeros come from :func:`~bulkq.polynomials.h_zeros`, its
    weights from ``T_{n-1}`` and, at a complex step, ``T_n``, each run at
    the nodes.  They are positive and sum (over all zeros and arms) to
    ``(m+1) c``.

    Raises
    ------
    ZeroFindingFailure
        If a weight comes out nonpositive or nonfinite (a zero of the
        reduced polynomial was not resolved cleanly).
    """
    m = cfg.m
    require_int("n", n, m + 1)
    d, s = divmod(n, m + 1)
    xs = h_zeros(cfg, n)
    zeta = xs ** (1.0 / (m + 1))
    # h_{n-1}(xs) through T_{n-1}(zeta) = zeta**((n-1) mod (m+1)) h_{n-1}(xs),
    # and h_n'(xs) = T_n'(zeta) zeta**(1-s) / ((m+1) xs) at a zero of T_n
    prev = t_poly(cfg, n - 1)(zeta) / zeta ** ((n - 1) % (m + 1))
    der = t_poly(cfg, n)(zeta * (1.0 + COMPLEX_STEP * 1j)).imag / (COMPLEX_STEP * zeta)
    lam_w = prev / (der * zeta ** (1 - s) / ((m + 1) * xs))
    if s == 0:
        lam_w = lam_w * xs
    if not np.all(np.isfinite(lam_w)) or np.any(lam_w <= 0.0):
        raise ZeroFindingFailure(
            f"nonpositive quadrature weight at n={n} (zeros not resolved?)"
        )
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
