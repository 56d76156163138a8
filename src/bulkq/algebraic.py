"""Branches of the algebraic equation w^(m+1) - z*w^m + c = 0.

The m+1 root functions of this one-parameter family drive everything
spectral in the package: their moduli order selects the dominant branch,
their branch points trace out an (m+1)-armed star, and the jump of the
dominant branch across an open arm gives the densities of the spectral
measures.

Two normalizations occur, and both reach the solver as ``(c, m)`` alone:

* ``c = mu / lam``: the variable is ``zeta = (x + lam + mu)/lam``, x the
  generator's spectral variable; queue-level code uses only this one.
* ``c = mu * lam**m``: the variable ``lam zeta`` of the unit-superdiagonal
  operator T, T's own normalization, used only where T is the subject.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NoConjugatePair, NotOnOpenArm, RootSolveFailure

__all__ = [
    "AlgebraicConfig",
    "BranchValues",
    "StarGeometry",
    "solve_branches",
    "dominant_roots",
    "pole_site_roots",
    "star_geometry",
    "boundary_values",
]

#: residual target for polished roots, relative to the coefficient scale
EPS_ROOT = 1e-12
#: roots this close (relative) form a cluster that Newton steps cannot refine
_CLUSTER = 1e-6
#: Newton steps from w = z - c/z**m before a node falls back to the companion matrix
_NEWTON_STEPS = 8
#: relative margin of the dominance certificate m c < (1 - margin) |w|**(m+1)
_CERT_MARGIN = 1e-6


@dataclass(frozen=True)
class AlgebraicConfig:
    """Constant term ``c > 0`` and integer degree parameter ``m >= 1``."""

    c: float
    m: int

    def __post_init__(self) -> None:
        c = self.c  # model's rule for a rate; float is tested before the slow ABC
        real = isinstance(c, float) or isinstance(c, numbers.Real) and not isinstance(c, bool)
        if not (real and 0.0 < c < math.inf):
            raise ValueError(f"c must be positive and finite, got {c!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral) or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")


@dataclass(frozen=True)
class BranchValues:
    """All m+1 roots at one point, ordered by nonincreasing modulus.

    Ties in modulus (which happen on the star) are broken by ascending
    argument in (-pi, pi], so output is deterministic.
    """

    z: complex
    omega: tuple[complex, ...]


@dataclass(frozen=True)
class StarGeometry:
    """The (m+1)-armed star that carries the spectral data.

    The arms are the segments ``[0, arm_length * rotation**k]`` for
    k = 0..m; their tips are the branch points, where the two largest
    roots collide in the double root ``m/(m+1)`` times the tip.  With
    ``c = mu / lam`` the generator's spectral variable is
    ``lam * zeta - lam - mu``.
    """

    arm_count: int
    arm_length: float
    rotation: complex


def _polish(z: complex, c: float, m: int, w: complex) -> complex:
    """Two Newton steps on p(w) = w^(m+1) - z*w^m + c."""
    for _ in range(2):
        pw = w ** (m + 1) - z * w**m + c
        dpw = (m + 1) * w**m - m * z * w ** (m - 1)
        if dpw == 0:
            break
        w = w - pw / dpw
    return w


def _sort_key(w: complex) -> tuple[float, float]:
    # math.atan2, not cmath.phase: the latter raises on a subnormal angle
    return (-abs(w), math.atan2(w.imag, w.real))


def solve_branches(cfg: AlgebraicConfig, z: complex) -> BranchValues:
    """Solve for all m+1 branches at the point ``z``.

    Roots come from the companion matrix (``numpy.roots``) followed by two
    Newton polish steps each, then are sorted by modulus descending with
    argument-ascending tie-breaking.  A root within ``1e-6 * max(1, |w|)``
    of another is left unpolished: near a double root (a branch point)
    rounding in ``p(w)`` dominates the Newton step.

    Raises
    ------
    RootSolveFailure
        If some polished root still has residual above ``EPS_ROOT`` relative
        to the natural scale ``(1 + |z|) * max(1, |w|)**(m+1)``.
    """
    m, c = cfg.m, cfg.c
    coeffs = np.zeros(m + 2, dtype=complex)
    coeffs[0] = 1.0
    coeffs[1] = -z
    coeffs[-1] = c
    raw = [complex(w) for w in np.roots(coeffs)]
    roots = []
    for i, w in enumerate(raw):
        gap = min(abs(w - v) for k, v in enumerate(raw) if k != i)
        roots.append(w if gap <= _CLUSTER * max(1.0, abs(w)) else _polish(complex(z), c, m, w))
    for w in roots:
        res = abs(w ** (m + 1) - z * w**m + c)
        scale = (1.0 + abs(z)) * max(1.0, abs(w)) ** (m + 1)
        if res > EPS_ROOT * scale:
            raise RootSolveFailure(
                f"root residual {res:.3e} above target at z={z}, c={c}, m={m}"
            )
    roots.sort(key=_sort_key)
    return BranchValues(z=complex(z), omega=tuple(roots))


def dominant_roots(cfg: AlgebraicConfig, zs: np.ndarray) -> np.ndarray:
    """The largest-modulus branch at every point of ``zs``, in one batch.

    Newton's method starts one fixed-point step along the branch that
    behaves like z at infinity, at ``w = z - c / z**m`` (or z where that is
    not finite), and a node is accepted once its last Newton correction is
    below ``EPS_ROOT`` relative and ``m c < (1 - 1e-6) |w|**(m+1)``.  That
    inequality proves w the simple root of largest modulus: writing the
    other roots as ``w y`` gives ``y**m + alpha (1 + y + ... + y**(m-1)) = 0``
    with ``alpha = -c / w**(m+1)``, and a root on ``|y| = 1`` needs
    ``|alpha| = |sin(phi/2) / sin(m phi/2)| >= 1/m``; from ``alpha = 0``,
    where every y is 0, no root can reach the unit circle while
    ``|alpha| < 1/m``.  Equivalently, ``|w|`` exceeds the modulus of the
    double root at the tips of the star.  Only the nodes that fail the test,
    on or near the star, take the largest companion eigenvalue and two more
    Newton steps.  Every node then gets the residual check of
    :func:`solve_branches`.

    Raises
    ------
    RootSolveFailure
        If a polished root misses the residual target.
    """
    m, c = cfg.m, cfg.c
    zs = np.asarray(zs, dtype=complex)
    z = zs.ravel()
    with np.errstate(all="ignore"):  # an iterate that leaves the floats fails the test
        w = z - c / z**m
        w = np.where(np.isfinite(w), w, z)
        for _ in range(_NEWTON_STEPS):
            step = _newton_step(w, z, c, m)[0]
            w = w - step
            small = np.abs(step) <= EPS_ROOT * np.abs(w)
            if small.all():
                break
        proven = small & (np.abs(w) > (m * c / (1.0 - _CERT_MARGIN)) ** (1.0 / (m + 1)))
    if not proven.all():
        zf, wf = z[~proven], _companion_dominant(c, m, z[~proven])
        for _ in range(2):
            wf = wf - _newton_step(wf, zf, c, m)[0]
        w[~proven] = wf
    _check_residual(w, z, c, m)
    return w.reshape(zs.shape)


def pole_site_roots(cfg: AlgebraicConfig, u: np.ndarray) -> np.ndarray:
    """The dominant branch at the pole sites ``zeta = c + u``, ``u**m = 1``, off the star.

    There the branch polynomial is ``(w - u) D(w)``, ``D(w) = w**m - c (w**(m-1) +
    u w**(m-2) + ... + u**(m-1))``: the dominant root is u, or D's largest root if
    that has modulus above 1.  That root is c at m = 1, and above it one batched
    m x m companion eigensolve gives every site's.  Two Newton steps on the full
    polynomial polish every root, and :func:`dominant_roots`' residual check follows.

    Raises
    ------
    RootSolveFailure
        If a polished root misses the residual target.
    """
    m, c = cfg.m, cfg.c
    top = c
    if m > 1:
        comp = np.zeros((u.size, m, m), dtype=complex)
        comp[:, 0] = c * u[:, None] ** np.arange(m)
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        eig = np.linalg.eigvals(comp)
        top = eig[np.arange(u.size), np.argmax(np.abs(eig), axis=-1)]
    w, zeta = np.where(np.abs(top) > 1.0, top, u), c + u
    for _ in range(2):
        w = w - _newton_step(w, zeta, c, m)[0]
    _check_residual(w, zeta, c, m)
    return w


def _check_residual(w: np.ndarray, z: np.ndarray, c: float, m: int) -> None:
    """Raise :class:`RootSolveFailure` where w misses ``EPS_ROOT`` relative to its scale."""
    rel = _newton_step(w, z, c, m)[1]
    if np.any(rel > EPS_ROOT):
        k = int(np.argmax(rel))
        raise RootSolveFailure(
            f"root residual {rel[k]:.3e} above target at z={z[k]}, c={c}, m={m}"
        )


def _newton_step(w: np.ndarray, z: np.ndarray, c: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton's correction at every w, and the residual of w relative to its scale.

    The scale is :func:`solve_branches`'s ``(1 + |z|) * max(1, |w|)**(m+1)``.
    Polynomial values are carried divided by ``max(1, |w|)**m``, so even a
    huge ``|z|`` cannot overflow.
    """
    a = np.maximum(1.0, np.abs(w))
    v = w / a
    pw = (a * v - z) * v**m + c * a**-m
    dpw = ((m + 1) * v - m * z / a) * v ** (m - 1)
    step = np.divide(pw, dpw, out=np.zeros_like(pw), where=dpw != 0)
    return step, np.abs(pw) / a / (1.0 + np.abs(z))


def _companion_dominant(c: float, m: int, zs: np.ndarray) -> np.ndarray:
    """The largest-modulus eigenvalue of each point's companion matrix."""
    comp = np.zeros(zs.shape + (m + 1, m + 1), dtype=complex)
    comp[:, 0, 0] = zs
    comp[:, 0, m] = -c
    comp[:, np.arange(1, m + 1), np.arange(m)] = 1.0
    w = np.linalg.eigvals(comp)
    return w[np.arange(zs.size), np.argmax(np.abs(w), axis=-1)]


def star_geometry(cfg: AlgebraicConfig) -> StarGeometry:
    """Star with arms from the origin to each branch point.

    The only place the arm length ``((m+1)/m) (m c)**(1/(m+1))`` and the
    arm directions ``rotation**k`` are computed; every other module takes
    them from here.
    """
    a = ((cfg.m + 1) / cfg.m) * (cfg.m * cfg.c) ** (1.0 / (cfg.m + 1))
    return StarGeometry(
        arm_count=cfg.m + 1,
        arm_length=a,
        rotation=cmath.exp(2j * cmath.pi / (cfg.m + 1)),
    )


def boundary_values(cfg: AlgebraicConfig, t) -> tuple[np.ndarray, np.ndarray]:
    """Limits of the dominant branch from the two sides of the real arm.

    On the open arm (0, a) the two largest roots form a complex-conjugate
    pair; this returns ``(omega_plus, omega_minus)`` with ``omega_plus`` in
    the upper half plane, at every abscissa of ``t`` in one batched
    :func:`dominant_roots` solve (0-d arrays for a scalar ``t``).

    Raises
    ------
    NotOnOpenArm
        If some ``t`` is not strictly inside (0, a).
    NoConjugatePair
        If no genuinely complex pair exists at some ``t`` (degenerate
        numerics close to either endpoint).
    """
    a = star_geometry(cfg).arm_length
    t = np.asarray(t, dtype=float)
    off = ~((0.0 < t) & (t < a))
    if np.any(off):
        raise NotOnOpenArm(f"need 0 < t < a = {a:.6g}, got t = {t[off][0]}")
    w0 = dominant_roots(cfg, t)
    # the top pair shares the largest modulus; demand a real imaginary part
    real = np.abs(w0.imag) <= 1e-10 * np.maximum(1.0, np.abs(w0))
    if np.any(real):
        raise NoConjugatePair(f"dominant root is real at t = {t[real][0]} (near an endpoint?)")
    plus = np.where(w0.imag > 0, w0, w0.conj())
    return plus, plus.conj()
