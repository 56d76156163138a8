"""Finite sections of the three-band operators and their identities.

One band pattern underlies everything here: a superdiagonal ``iota``, a
diagonal ``-gamma`` on the first m entries and ``-xi`` after them, and a
band ``eta`` m below the diagonal.  :meth:`OperatorSpec.bands` gives those
four values for each case:

* ``A`` — the queue generator itself (:func:`~bulkq.model.generator_bands`),
* ``T`` — the monic normalization (superdiagonal 1, lower band ``c``),
* ``L`` — ``T`` plus ``mu`` on the first m diagonal entries,
* ``H`` — the four-parameter generic pattern covering all of the above.

:func:`build_matrix` turns the bands into a dense section through
:func:`~bulkq.model.band_section`, and the matching polynomial family comes
from the same bands through :func:`~bulkq.polynomials.band_poly` (``A``
through the exact ``q_poly``).  The module provides the basis-jump
identities (each unit vector is the matching polynomial of the operator
applied to the starting data) and moments.  These are the *operator-side*
ground truth against which the spectral layer is validated; the dual and
bi-orthogonality checks read ``A`` from :func:`~bulkq.model.build_generator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooSmall
from .model import QueueParams, band_section, build_generator, generator_bands, require_int
from .polynomials import band_poly, dual_vector, q_poly

__all__ = [
    "OperatorSpec",
    "build_matrix",
    "basis_jump_check",
    "dual_jump_check",
    "biorthogonality_check",
    "moment",
    "lambda_conjugation_residual",
]


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator, with which parameters, truncated at which size.

    ``kind`` is one of ``"A"``, ``"T"``, ``"L"``, ``"H"``.  The queue
    kinds (``A``, ``L``) carry :class:`QueueParams`; ``T``
    carries an :class:`AlgebraicConfig` (only ``c`` and ``m`` matter); the
    generic ``H`` carries explicit band values (gamma, iota, eta, xi) plus
    a parameter object providing ``m``.
    """

    kind: str
    params: object
    N: int
    gamma: float = 0.0
    iota: float = 1.0
    eta: float = 0.0
    xi: float = 0.0

    @property
    def m(self) -> int:
        return self.params.m

    def bands(self) -> tuple[float, float, float, float]:
        """(gamma, iota, eta, xi), in :func:`~bulkq.model.band_section`'s layout."""
        if self.kind == "A":
            return generator_bands(self.params)
        if self.kind == "T":
            return (0.0, 1.0, self.params.c, 0.0)
        if self.kind == "L":
            p = self.params
            return (-p.mu, 1.0, p.mu * p.lam**p.m, 0.0)
        if self.kind == "H":
            return (self.gamma, self.iota, self.eta, self.xi)
        raise ValueError(f"unknown operator kind {self.kind!r}")


def build_matrix(spec: OperatorSpec) -> np.ndarray:
    """Dense N x N section with the spec's band pattern."""
    return band_section(spec.m, spec.bands(), spec.N)


def _family_coeffs(spec: OperatorSpec, n: int) -> np.ndarray:
    """Ascending coefficients of the degree-n family member matching ``kind``."""
    if spec.kind == "A":
        return np.asarray(q_poly(spec.params, n).coeffs)
    return np.asarray(band_poly(spec.m, spec.bands(), n).coeffs)


def _apply_poly(mat: np.ndarray, coeffs: np.ndarray, v0: np.ndarray) -> np.ndarray:
    out = coeffs[0] * v0
    v = v0
    for c in coeffs[1:]:
        v = mat @ v
        out = out + c * v
    return out


def basis_jump_check(spec: OperatorSpec, n: int) -> float:
    """sup-norm residual of ``family_n(M^T) e_0 = e_n``.

    Requires ``N >= (m+1)(n+2)`` so no truncated band can reach back into
    the compared entries.
    """
    require_int("n", n, 0)
    if spec.N < (spec.m + 1) * (n + 2):
        raise TruncationTooSmall(
            f"basis jump at n={n} needs N >= {(spec.m + 1) * (n + 2)}, got {spec.N}"
        )
    mat = build_matrix(spec).T
    e0 = np.zeros(spec.N)
    e0[0] = 1.0
    w = _apply_poly(mat, _family_coeffs(spec, n), e0)
    w[n] -= 1.0
    return float(np.max(np.abs(w)))


def _dual_image(p: QueueParams, r: int, a: np.ndarray) -> np.ndarray:
    """``sum_j q_{j,r}(a) e_j``, the dual vector of r applied to the unit vectors."""
    out = np.zeros(len(a))
    for j, comp in enumerate(dual_vector(p, r).components):
        ej = np.zeros(len(a))
        ej[j] = 1.0
        out += _apply_poly(a, np.asarray(comp.coeffs), ej)
    return out


def dual_jump_check(p: QueueParams, r: int, N: int) -> float:
    """sup-norm residual of ``sum_j q_{j,r}(A) e_j = e_r``."""
    if N < (p.m + 1) * (r + 2):
        raise TruncationTooSmall(f"dual jump at r={r} needs N >= {(p.m + 1) * (r + 2)}")
    acc = _dual_image(p, r, build_generator(p, N))
    acc[r] -= 1.0
    return float(np.max(np.abs(acc)))


def biorthogonality_check(p: QueueParams, n: int, r: int, N: int) -> float:
    """The pairing ``(sum_j q_{j,r}(A) e_j) . (Q_n(A^T) e_0)`` (should be
    the Kronecker delta of n and r)."""
    need = (p.m + 1) * (max(n, r) + 2)
    if N < need:
        raise TruncationTooSmall(f"bi-orthogonality at (n={n}, r={r}) needs N >= {need}")
    a = build_generator(p, N)
    e0 = np.zeros(N)
    e0[0] = 1.0
    right = _apply_poly(a.T, np.asarray(q_poly(p, n).coeffs), e0)
    return float(_dual_image(p, r, a) @ right)


def moment(spec: OperatorSpec, nu: int, j: int) -> float:
    """The moment ``c_{nu,j} = (M^nu e_{j-1}) . e_0``.

    The truncation must satisfy ``N >= (nu+1)(m+1) + m`` so the answer
    equals the infinite-operator value exactly (band reachability).
    """
    require_int("nu", nu, 0)
    require_int("j", j, 1, spec.m)
    need = (nu + 1) * (spec.m + 1) + spec.m
    if spec.N < need:
        raise TruncationTooSmall(f"moment nu={nu} needs N >= {need}, got {spec.N}")
    mat = build_matrix(spec)
    v = np.zeros(spec.N)
    v[j - 1] = 1.0
    for _ in range(nu):
        v = mat @ v
    return float(v[0])


def lambda_conjugation_residual(p: QueueParams, N: int = 60) -> float:
    """Entrywise residual of conjugating L by diag(lam**i) onto A.

    The identity says ``A = D^{-1} (L - (lam+mu) I) D`` with
    ``D = diag(lam**0, lam**1, ...)``; entrywise that is
    ``A[i,j] = lam**(j-i) * (L - (lam+mu) I)[i,j]``, which only involves
    offset powers ``lam**(j-i)`` with ``|j-i| <= m`` — no overflow for any
    section size.  Returns the max abs residual relative to the entry scale.
    """
    a = build_generator(p, N)
    lmat = build_matrix(OperatorSpec(kind="L", params=p, N=N))
    shifted = lmat - (p.lam + p.mu) * np.eye(N)
    jj, ii = np.meshgrid(np.arange(N), np.arange(N))
    conj = np.where(
        np.abs(jj - ii) <= p.m, p.lam ** ((jj - ii).astype(float)) * shifted, shifted
    )
    scale = max(1.0, p.lam + p.mu)
    return float(np.max(np.abs(conj - a)) / scale)
