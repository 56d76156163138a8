"""Reference resolvent samples of the three-band operators, by banded solves.

Test-side ground truth for the spectral layer: ``resolvent(spec, j, z)`` is
``((zI - M)^{-1} e_{j-1}) . e_0`` for the section ``M`` that
:func:`bulkq.operators.build_matrix` would build from ``spec``, solved in
banded form with scipy and doubled in size until it settles.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from bulkq.errors import InsideSupport
from bulkq.model import require_int
from bulkq.operators import OperatorSpec


class ResolventNotConverged(ArithmeticError):
    """Doubling the section size still moves the resolvent value."""


@dataclass(frozen=True)
class ResolventSample:
    """One resolvent value ((zI - M)^{-1} e_{j-1}) . e_0 with the N used."""

    j: int
    z: complex
    value: complex
    N: int


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
    ResolventNotConverged
        If doubling up to 8N never stabilizes the value.
    """
    require_int("j", j, 1, spec.m)
    if any(abs(z - c) <= r for c, r in _support_discs(spec)):
        raise InsideSupport(f"z={z} is inside the support bound of {spec.kind}")
    N = max(spec.N, (spec.m + 1) * (j + 2))
    val = _resolvent_once(spec, j, z, N)
    for _ in range(3):
        val2 = _resolvent_once(spec, j, z, 2 * N)
        if abs(val2 - val) < 1e-9:
            return ResolventSample(j=j, z=complex(z), value=val2, N=2 * N)
        val, N = val2, 2 * N
    raise ResolventNotConverged(
        f"resolvent at z={z} still moving by {abs(val2 - val):.2e} at N={N}"
    )
