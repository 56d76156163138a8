"""Finite sections of the three-band operators and their identities.

One band pattern underlies everything here: a superdiagonal ``iota``, a
diagonal ``-gamma`` on the first m entries and ``-xi`` after them, and a
band ``eta`` m below the diagonal.  :meth:`OperatorSpec.bands` gives those
four values for each case:

* ``A`` — the queue generator itself,
* ``T`` — the monic normalization (superdiagonal 1, lower band ``c``),
* ``L`` — ``T`` plus ``mu`` on the first m diagonal entries,
* ``H`` — the four-parameter generic pattern covering all of the above.

:func:`build_matrix` turns the bands into a dense section, and the matching
polynomial family comes from the same bands through
:func:`~bulkq.polynomials.band_poly` (``A`` through the exact ``q_poly``).
The module provides the basis-jump identities (each unit vector is the
matching polynomial of the operator applied to the starting data), moments,
and resolvent samples from banded solves.  These are the *operator-side*
ground truth against which the spectral layer is validated; the dual and
bi-orthogonality checks read ``A`` from :func:`~bulkq.model.build_generator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebraic import AlgebraicConfig
from .errors import InsideSupport, TruncationNotConverged, TruncationTooSmall
from .model import QueueParams, build_generator, validate_params
from .polynomials import band_poly, dual_vector, q_poly

__all__ = [
    "OperatorSpec",
    "ResolventSample",
    "build_matrix",
    "basis_jump_check",
    "dual_jump_check",
    "biorthogonality_check",
    "moment",
    "resolvent",
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
        """(gamma, iota, eta, xi): diag[:m] = -gamma, super = iota,
        sub-m = eta, diag[m:] = -xi."""
        if self.kind == "A":
            p = self.params
            validate_params(p)
            return (p.lam, p.lam, p.mu, p.lam + p.mu)
        if self.kind == "T":
            return (0.0, 1.0, self.params.c, 0.0)
        if self.kind == "L":
            p = self.params
            return (-p.mu, 1.0, p.mu * p.lam**p.m, 0.0)
        if self.kind == "H":
            return (self.gamma, self.iota, self.eta, self.xi)
        raise ValueError(f"unknown operator kind {self.kind!r}")


@dataclass(frozen=True)
class ResolventSample:
    """One resolvent value ((zI - M)^{-1} e_{j-1}) . e_0 with the N used."""

    j: int
    z: complex
    value: complex
    N: int


def build_matrix(spec: OperatorSpec) -> np.ndarray:
    """Dense N x N section with the spec's band pattern."""
    g, i_, e, x = spec.bands()
    m, N = spec.m, spec.N
    if N < m + 2:
        raise TruncationTooSmall(f"need N >= m + 2, got {N}")
    a = np.zeros((N, N))
    idx = np.arange(N)
    a[idx[:-1], idx[:-1] + 1] = i_
    a[idx[:m], idx[:m]] = -g
    a[idx[m:], idx[m:]] = -x
    a[idx[m:], idx[m:] - m] = e
    return a


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
    acc = _dual_image(p, r, np.array(build_generator(p, N).entries))
    acc[r] -= 1.0
    return float(np.max(np.abs(acc)))


def biorthogonality_check(p: QueueParams, n: int, r: int, N: int) -> float:
    """The pairing ``(sum_j q_{j,r}(A) e_j) . (Q_n(A^T) e_0)`` (should be
    the Kronecker delta of n and r)."""
    need = (p.m + 1) * (max(n, r) + 2)
    if N < need:
        raise TruncationTooSmall(f"bi-orthogonality at (n={n}, r={r}) needs N >= {need}")
    a = np.array(build_generator(p, N).entries)
    e0 = np.zeros(N)
    e0[0] = 1.0
    right = _apply_poly(a.T, np.asarray(q_poly(p, n).coeffs), e0)
    return float(_dual_image(p, r, a) @ right)


def moment(spec: OperatorSpec, nu: int, j: int) -> float:
    """The moment ``c_{nu,j} = (M^nu e_{j-1}) . e_0``.

    The truncation must satisfy ``N >= (nu+1)(m+1) + m`` so the answer
    equals the infinite-operator value exactly (band reachability).
    """
    if not 1 <= j <= spec.m:
        raise ValueError(f"j must be in 1..{spec.m}, got {j}")
    need = (nu + 1) * (spec.m + 1) + spec.m
    if spec.N < need:
        raise TruncationTooSmall(f"moment nu={nu} needs N >= {need}, got {spec.N}")
    mat = build_matrix(spec)
    v = np.zeros(spec.N)
    v[j - 1] = 1.0
    for _ in range(nu):
        v = mat @ v
    return float(v[0])


def _support_discs(spec: OperatorSpec) -> list[tuple[complex, float]]:
    # rows below index m carry only the superdiagonal; rows at or above it
    # carry the superdiagonal and the sub-m band
    g, i_, e, x = spec.bands()
    return [(-g + 0.0j, abs(i_)), (-x + 0.0j, abs(i_) + abs(e))]


def _resolvent_once(spec: OperatorSpec, j: int, z: complex, N: int) -> complex:
    g, i_, e, x = spec.bands()
    m = spec.m
    ab = np.zeros((m + 2, N), dtype=complex)
    ab[0, 1:] = -i_
    diag = np.full(N, z + x, dtype=complex)
    diag[:m] = z + g
    ab[1, :] = diag
    ab[1 + m, : N - m] = -e
    rhs = np.zeros(N, dtype=complex)
    rhs[j - 1] = 1.0
    from scipy.linalg import solve_banded  # deferred: scipy is heavy to import
    sol = solve_banded((m, 1), ab, rhs)
    return complex(sol[0])


def resolvent(spec: OperatorSpec, j: int, z: complex) -> ResolventSample:
    """Resolvent sample ``f_j(z) = ((zI - M)^{-1} e_{j-1}) . e_0``.

    Solved in banded form at the spec's N and at 2N; the section size is
    doubled until the two values agree to 1e-9.

    Raises
    ------
    InsideSupport
        If z lies inside the operator's Gershgorin disc union.
    TruncationNotConverged
        If doubling up to 8N never stabilizes the value.
    """
    if not 1 <= j <= spec.m:
        raise ValueError(f"j must be in 1..{spec.m}, got {j}")
    if any(abs(z - c) <= r for c, r in _support_discs(spec)):
        raise InsideSupport(f"z={z} is inside the support bound of {spec.kind}")
    N = max(spec.N, (spec.m + 1) * (j + 2))
    val = _resolvent_once(spec, j, z, N)
    for _ in range(3):
        val2 = _resolvent_once(spec, j, z, 2 * N)
        if abs(val2 - val) < 1e-9:
            return ResolventSample(j=j, z=complex(z), value=val2, N=2 * N)
        val, N = val2, 2 * N
    raise TruncationNotConverged(
        f"resolvent at z={z} still moving by {abs(val2 - val):.2e} at N={N}"
    )


def lambda_conjugation_residual(p: QueueParams, N: int = 60) -> float:
    """Entrywise residual of conjugating L by diag(lam**i) onto A.

    The identity says ``A = D^{-1} (L - (lam+mu) I) D`` with
    ``D = diag(lam**0, lam**1, ...)``; entrywise that is
    ``A[i,j] = lam**(j-i) * (L - (lam+mu) I)[i,j]``, which only involves
    offset powers ``lam**(j-i)`` with ``|j-i| <= m`` — no overflow for any
    section size.  Returns the max abs residual relative to the entry scale.
    """
    a = np.array(build_generator(p, N).entries)
    lmat = build_matrix(OperatorSpec(kind="L", params=p, N=N))
    shifted = lmat - (p.lam + p.mu) * np.eye(N)
    jj, ii = np.meshgrid(np.arange(N), np.arange(N))
    conj = np.where(
        np.abs(jj - ii) <= p.m, p.lam ** ((jj - ii).astype(float)) * shifted, shifted
    )
    scale = max(1.0, p.lam + p.mu)
    return float(np.max(np.abs(conj - a)) / scale)
