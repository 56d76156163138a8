"""Branches of the algebraic equation w^(m+1) - z*w^m + c = 0.

The m+1 root functions of this one-parameter family drive everything
spectral in the package: their moduli order selects the dominant branch,
their branch points trace out an (m+1)-armed star, and their boundary values
on the open arms supply the weight functions.

Two normalizations ("frames") occur:

* T-frame: ``c = mu * lam**m`` and the variable is the spectral variable of
  the reference three-band operator with unit superdiagonal.
* A-frame: ``c = mu / lam`` and the variable is ``zeta = (x + lam + mu)/lam``
  where ``x`` is the spectral variable of the queue generator.  Both frames
  share the same reduced equation, so the solver only ever sees ``(c, m)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConjugatePair, NotOnOpenArm, RootSolveFailure

__all__ = [
    "AlgebraicConfig",
    "BranchValues",
    "StarGeometry",
    "solve_branches",
    "dominant_roots",
    "branch_points",
    "star_geometry",
    "boundary_values",
]

#: residual target for polished roots, relative to the coefficient scale
EPS_ROOT = 1e-12


@dataclass(frozen=True)
class AlgebraicConfig:
    """Constant term ``c > 0``, degree parameter ``m >= 1`` and frame tag."""

    c: float
    m: int
    frame: str = "T"

    def __post_init__(self) -> None:
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.frame not in ("T", "A"):
            raise ValueError(f"frame must be 'T' or 'A', got {self.frame!r}")


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

    ``arms are the segments [center, center + arm_length * rotation**k]``
    for k = 0..m; ``center`` is 0 in the T-frame and -lam-mu after
    undoing the A-frame rescaling.
    """

    arm_count: int
    arm_length: float
    rotation: complex
    center: complex


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
    return (-abs(w), cmath.phase(w))


def solve_branches(cfg: AlgebraicConfig, z: complex) -> BranchValues:
    """Solve for all m+1 branches at the point ``z``.

    Roots come from the companion matrix (``numpy.roots``) followed by two
    Newton polish steps each, then are sorted by modulus descending with
    argument-ascending tie-breaking.

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
    roots = [_polish(complex(z), c, m, complex(w)) for w in np.roots(coeffs)]
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

    The largest companion eigenvalue, two Newton steps and the residual
    check of :func:`solve_branches`.  Polynomial values are carried divided
    by ``max(1, |w|)**m``, so even a huge ``|z|`` cannot overflow.

    Raises
    ------
    RootSolveFailure
        If a polished root misses the residual target.
    """
    m, c = cfg.m, cfg.c
    zs = np.asarray(zs, dtype=complex)
    comp = np.zeros(zs.shape + (m + 1, m + 1), dtype=complex)
    comp[..., 0, 0] = zs
    comp[..., 0, m] = -c
    comp[..., np.arange(1, m + 1), np.arange(m)] = 1.0
    w = np.linalg.eigvals(comp)
    w = np.take_along_axis(w, np.argmax(np.abs(w), axis=-1)[..., None], axis=-1)[..., 0]
    for step in range(3):  # two Newton steps, then the residual
        a = np.maximum(1.0, np.abs(w))
        v = w / a
        pw = (a * v - zs) * v**m + c * a**-m
        if step < 2:
            dpw = ((m + 1) * v - m * zs / a) * v ** (m - 1)
            w = w - np.divide(pw, dpw, out=np.zeros_like(pw), where=dpw != 0)
    rel = np.abs(pw) / a / (1.0 + np.abs(zs))
    if np.any(rel > EPS_ROOT):
        k = np.unravel_index(np.argmax(rel), rel.shape)
        raise RootSolveFailure(
            f"root residual {rel[k]:.3e} above target at z={zs[k]}, c={c}, m={m}"
        )
    return w


def branch_points(cfg: AlgebraicConfig) -> list[tuple[complex, complex]]:
    """The m+1 points where the two largest branches collide.

    Setting the w-derivative to zero alongside the equation itself gives
    ``z_k = ((m+1)/m) * (m c)**(1/(m+1)) * e**(2 pi i k/(m+1))`` with the
    double root ``w_k = (m c)**(1/(m+1)) * e**(2 pi i k/(m+1))``.
    """
    m, c = cfg.m, cfg.c
    radius = (m * c) ** (1.0 / (m + 1))
    out = []
    for k in range(m + 1):
        d = cmath.exp(2j * cmath.pi * k / (m + 1))
        out.append((((m + 1) / m) * radius * d, radius * d))
    return out


def star_geometry(cfg: AlgebraicConfig) -> StarGeometry:
    """Star with arms from the center to each branch point."""
    a = ((cfg.m + 1) / cfg.m) * (cfg.m * cfg.c) ** (1.0 / (cfg.m + 1))
    return StarGeometry(
        arm_count=cfg.m + 1,
        arm_length=a,
        rotation=cmath.exp(2j * cmath.pi / (cfg.m + 1)),
        center=0.0 + 0.0j,
    )


def boundary_values(cfg: AlgebraicConfig, t: float) -> tuple[complex, complex]:
    """Limits of the dominant branch from the two sides of the real arm.

    On the open arm (0, a) the two largest roots form a complex-conjugate
    pair; this returns ``(omega_plus, omega_minus)`` with ``omega_plus`` in
    the upper half plane.

    Raises
    ------
    NotOnOpenArm
        If ``t`` is not strictly inside (0, a).
    NoConjugatePair
        If no genuinely complex pair exists at ``t`` (degenerate numerics
        close to either endpoint).
    """
    a = star_geometry(cfg).arm_length
    if not 0.0 < t < a:
        raise NotOnOpenArm(f"need 0 < t < a = {a:.6g}, got t = {t}")
    roots = solve_branches(cfg, t).omega
    # the top pair shares the largest modulus; demand a real imaginary part
    w0 = roots[0]
    tol = 1e-10 * max(1.0, abs(w0))
    if abs(w0.imag) <= tol:
        raise NoConjugatePair(f"dominant root is real at t = {t} (too close to an endpoint?)")
    plus = w0 if w0.imag > 0 else w0.conjugate()
    return plus, plus.conjugate()
