import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from bulkq.algebraic import AlgebraicConfig, star_geometry
from bulkq.errors import NearSingularConfiguration, ZeroFindingFailure
from bulkq.model import QueueParams
from bulkq.operators import OperatorSpec
from bulkq import polynomials
from bulkq.polynomials import (
    band_poly,
    dual_explicit,
    dual_vector,
    explicit_coefficients,
    h_zeros,
    l_poly,
    q_explicit,
    q_poly,
    second_kind,
    t_poly,
)

CLOSED_FORM_RTOL = 1e-9
DUAL_CLOSED_RTOL = 1e-8


# ---------------------------------------------------------------------------
# exact-rational oracles (independent re-implementation of the recurrences)
# ---------------------------------------------------------------------------


def q_table_fractions(lam, mu, m, nmax):
    lam, mu = Fraction(lam), Fraction(mu)
    base = [Fraction(1), 1 / lam]  # (lam + x)/lam
    table = [[Fraction(1)]]
    for _ in range(m):
        table.append(_fmul(table[-1], base))
    for n in range(m, nmax):
        c = _fmul(table[n], [lam + mu, Fraction(1)])
        c = _fsub(c, [mu * x for x in table[n - m]])
        table.append([x / lam for x in c])
    return table[: nmax + 1]


def dual_table_fractions(lam, mu, m, rmax):
    lam, mu = Fraction(lam), Fraction(mu)
    zero = [Fraction(0)]
    rows = [[[Fraction(1)] if j == r else zero for j in range(m)] for r in range(m)]
    for r in range(rmax - m + 1):
        prev, before = rows[r], (rows[r - 1] if r >= 1 else [zero] * m)
        shift = [lam, Fraction(1)] if r < m else [lam + mu, Fraction(1)]
        rows.append(
            [[x / mu for x in _fsub(_fmul(prev[j], shift), [lam * y for y in before[j]])] for j in range(m)]
        )
    return rows[: rmax + 1]


def _fmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fsub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------- Q family


def test_q_initial_members():
    p = QueueParams(2.0, 1.0, 2)
    assert q_poly(p, 0).coeffs == (1.0,)
    assert q_poly(p, 1).coeffs == (1.0, 0.5)


def test_q2_golden():
    assert q_poly(QueueParams(1.0, 1.0, 1), 2).coeffs == (1.0, 3.0, 1.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_q_matches_fraction_oracle(m):
    p = QueueParams(1.0, 1.0, m)
    oracle = q_table_fractions(1, 1, m, 12)
    for n in range(13):
        got = q_poly(p, n).coeffs
        assert len(got) == n + 1
        assert all(float(a) == b for a, b in zip(oracle[n], got))


def test_exact_tables_grow_once_per_family():
    # one table per family grows to the largest index asked and serves the
    # smaller ones with the coefficients of a build in ascending order
    p = QueueParams(1.2, 0.8, 3)
    tables = (polynomials._band_table, polynomials._dual_table)

    def build(order):
        for table in tables:
            table.cache_clear()
        out = {n: (q_poly(p, n), dual_vector(p, n)) for n in order}
        assert [table.cache_info().currsize for table in tables] == [1, 1]
        return out

    full = build(range(21))
    assert build(range(20, -1, -1)) == full
    assert all(full[n] == got for n, got in build([7, 20, 0, 13]).items())


def _exact_value(coeffs, z):
    """Ascending Fraction coefficients at z, in exact rational complex arithmetic."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        re, im = re * zr - im * zi + c, re * zi + im * zr
    return complex(float(re), float(im))


@pytest.mark.parametrize(
    "lam, mu, m, z",
    [(1.0, 2.0, 1, -5.25 + 0.0625j), (1.0, 1.0, 2, -2.25 + 0.0625j), (1.2, 0.8, 3, -3 + 0.0625j)],
)
def test_members_match_exact_values_at_degree_40(lam, mu, m, z):
    # Q_40 and every q_{j,40} at a point of heavy cancellation in the
    # monomial basis, against the exact tables evaluated exactly
    p = QueueParams(lam, mu, m)
    checks = [(q_poly(p, 40), q_table_fractions(lam, mu, m, 40)[40])]
    row = dual_table_fractions(lam, mu, m, 40)[40]
    checks += [(dual_vector(p, 40).components[j], row[j]) for j in range(m)]
    for poly, exact in checks:
        ref = _exact_value(exact, z)
        assert abs(poly(z) - ref) <= 1e-12 * (1.0 + abs(ref))


@pytest.mark.parametrize("k", [2.0, 2.5])
def test_polynomial_indices_must_be_integers(k):
    # a float is no index, even one equal to an integer: no branch power at
    # it, and no numpy or range error in place of the message
    p, z, cfg = QueueParams(1.2, 0.8, 3), 1 + 1j, AlgebraicConfig(c=0.7, m=3)
    calls = [
        ("n", lambda: q_explicit(p, k, z)),
        ("n", lambda: q_poly(p, k)),
        ("n", lambda: band_poly(3, (1.0, 1.0, 0.5, 2.0), k)),
        ("n", lambda: t_poly(cfg, k)),
        ("n", lambda: l_poly(p, k)),
        ("n", lambda: h_zeros(cfg, k)),
        ("n", lambda: second_kind(cfg, k, 1)),
        ("j", lambda: second_kind(cfg, 5, k - 1)),
        ("r", lambda: dual_vector(p, k)),
        ("r", lambda: dual_explicit(p, k + 2, 0, z)),
        ("j", lambda: dual_explicit(p, 4, k - 2, z)),
    ]
    for label, call in calls:
        with pytest.raises(ValueError, match=f"{label} must be an integer"):
            call()


def test_q_degree_and_leading_coefficient():
    p = QueueParams(1.7, 0.6, 2)
    for n in range(12):
        poly = q_poly(p, n)
        assert poly.degree == n
        np.testing.assert_allclose(poly.coeffs[-1], p.lam ** (-n), rtol=1e-12)


def test_q_explicit_golden_values():
    assert abs(q_explicit(QueueParams(1.0, 1.0, 1), 2, 1.0) - 5.0) < 1e-10
    assert abs(q_explicit(QueueParams(1.0, 1.0, 2), 1, 0.5) - 1.5) < 1e-10


def test_q_explicit_matches_recurrence():
    rng = np.random.default_rng(11)
    done = 0
    while done < 40:
        p = QueueParams(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5), int(rng.integers(1, 4)))
        n = int(rng.integers(1, 21))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            val = q_explicit(p, n, z)
        except NearSingularConfiguration:
            continue
        ref = q_poly(p, n)(z)
        assert abs(val - ref) <= CLOSED_FORM_RTOL * (1.0 + abs(ref))
        done += 1


def test_q_explicit_singular_at_origin():
    # omega = 1 always solves the reduced equation at z = 0 (the generator's
    # null direction), so the closed form must refuse and callers fall back
    p = QueueParams(1.3, 0.8, 2)
    with pytest.raises(NearSingularConfiguration):
        q_explicit(p, 3, 0.0)
    assert abs(q_poly(p, 3)(0.0)) < np.inf  # the fallback path stays available


def test_explicit_coefficient_invariants():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        p = QueueParams(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), int(rng.integers(1, 5)))
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        try:
            ec = explicit_coefficients(p, z)
        except NearSingularConfiguration:
            continue
        if np.max(np.abs(ec.vandermonde_inv)) > 1e6:  # too close to a collision
            continue
        assert abs(sum(ec.a) - 1.0) < 1e-9
        m = p.m
        # rows run over branches, columns over powers 0..m
        w = np.array([[om ** (-j) for j in range(m + 1)] for om in ec.omega])
        np.testing.assert_allclose(ec.vandermonde_inv @ w, np.eye(m + 1), atol=1e-9)
        np.testing.assert_allclose(w @ ec.vandermonde_inv, np.eye(m + 1), atol=1e-9)
        checked += 1


@pytest.mark.parametrize("lam,mu,m", [(1.0, 2.0, 2), (1.2, 0.8, 3), (0.7, 1.9, 4)])
def test_dual_expansion_table(lam, mu, m):
    p = QueueParams(lam, mu, m)
    for z in (0.9, -0.4 + 0.3j, 1.1 + 0.6j):
        ec = explicit_coefficients(p, z)
        om = np.asarray(ec.omega)
        # the table reproduces every dual component from r = m on
        for r in range(m, 3 * m + 3):
            vals = ec.b @ om ** (m - r)
            ref = np.array([dual_vector(p, r).components[j](z) for j in range(m)])
            np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-9 * (1.0 + np.max(np.abs(ref))))
        # B W has the initial-condition band in its first m columns and the
        # closure column d at the end
        w = np.array([[o ** (-j) for j in range(m + 1)] for o in om])
        bw = ec.b @ w
        band = np.zeros((m, m + 1), dtype=complex)
        for j in range(m):
            band[j, j] = (z + lam) / mu
            if j + 1 <= m - 1:
                band[j, j + 1] = -lam / mu
        band[:, m] = ec.d
        np.testing.assert_allclose(bw, band, rtol=0, atol=1e-9 * (1.0 + abs(z)))


def test_dual_expansion_top_branch_column_decays():
    # the top-branch coefficients vanish only asymptotically (like a negative
    # power of omega_0), never pointwise: both facts are part of the contract
    p = QueueParams(1.0, 2.0, 3)
    near = explicit_coefficients(p, 0.9)
    assert np.min(np.abs(near.b[:, 0])) > 0.0
    far = explicit_coefficients(p, 1e6)
    assert np.max(np.abs(far.b[:, 0])) < 1e-9


# ------------------------------------------------------------- dual family


def test_dual_initial_rows():
    p = QueueParams(1.0, 1.0, 2)
    v = dual_vector(p, 1)
    assert [c.coeffs for c in v.components] == [(0.0,), (1.0,)]
    zero = dual_vector(p, -1)
    assert all(c.coeffs == (0.0,) for c in zero.components)
    x = np.array([0.5, 2 + 1j])
    assert np.array_equal(zero(x), np.zeros((2, 2), dtype=complex))


def test_dual_first_recurrence_row():
    p = QueueParams(2.0, 0.5, 2)
    v = dual_vector(p, 3)
    np.testing.assert_allclose(v.components[0].coeffs, [-p.lam / p.mu])
    np.testing.assert_allclose(v.components[1].coeffs, [p.lam / p.mu, 1.0 / p.mu])


def test_dual_m1_self_duality():
    # for m = 1 the single dual component reproduces the Q family
    p = QueueParams(1.0, 1.0, 1)
    got = dual_vector(p, 2).components[0].coeffs
    assert got == (1.0, 3.0, 1.0)


@pytest.mark.parametrize("m", [2, 3])
def test_dual_matches_fraction_oracle(m):
    p = QueueParams(1.0, 1.0, m)
    oracle = dual_table_fractions(1, 1, m, 12)
    for r in range(13):
        row = dual_vector(p, r)
        for j in range(m):
            got = np.asarray(row.components[j].coeffs)
            want = np.array([float(x) for x in oracle[r][j]])
            want = np.trim_zeros(want, "b")
            if want.size == 0:
                want = np.zeros(1)
            np.testing.assert_array_equal(got, want)


def test_dual_explicit_examples():
    for lam, mu, m, r, j, z in [
        (1.0, 1.0, 2, 4, 0, 0.7),
        (1.0, 2.0, 2, 5, 1, -0.4),
        (1.0, 1.0, 3, 6, 2, 0.1 + 0.1j),
    ]:
        p = QueueParams(lam, mu, m)
        val = dual_explicit(p, r, j, z)
        ref = dual_vector(p, r).components[j](z)
        assert abs(val - ref) <= DUAL_CLOSED_RTOL * (1.0 + abs(ref))


def test_dual_explicit_matches_recurrence():
    rng = np.random.default_rng(23)
    done = 0
    while done < 40:
        p = QueueParams(rng.uniform(0.4, 2.0), rng.uniform(0.4, 2.0), int(rng.integers(1, 4)))
        r = int(rng.integers(2 * p.m, 15))
        j = int(rng.integers(0, p.m))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            val = dual_explicit(p, r, j, z)
        except NearSingularConfiguration:
            continue
        ref = dual_vector(p, r).components[j](z)
        assert abs(val - ref) <= DUAL_CLOSED_RTOL * (1.0 + abs(ref))
        done += 1


# ------------------------------------------------------------ T, L families


def test_t_initials_and_golden():
    assert t_poly(AlgebraicConfig(c=1.0, m=2), 1).coeffs == (0.0, 1.0)
    assert t_poly(AlgebraicConfig(c=1.0, m=1), 3).coeffs == (0.0, -2.0, 0.0, 1.0)


def test_l_golden_and_shift_identity_m1():
    p = QueueParams(1.0, 1.0, 1)
    assert l_poly(p, 2).coeffs == (-1.0, -1.0, 1.0)
    shifted = Polynomial(q_poly(p, 2).coeffs)(Polynomial([-2.0, 1.0]))
    np.testing.assert_allclose(l_poly(p, 2).coeffs, shifted.coef, atol=1e-12)


def l_table_fractions(lam, mu, m, nmax):
    lam, mu = Fraction(lam), Fraction(mu)
    c = mu * lam**m
    table = [[Fraction(1)]]
    for _ in range(min(m, nmax)):
        table.append(_fmul(table[-1], [-mu, Fraction(1)]))
    for n in range(m, nmax):
        table.append(_fsub([Fraction(0)] + table[n], [c * x for x in table[n - m]]))
    return table[: nmax + 1]


def _fcompose_shift(coeffs, s):
    """Exact coefficients of p(z - s) for ascending Fraction coeffs."""
    out = [coeffs[-1]]
    for a in coeffs[-2::-1]:
        out = _fmul(out, [-s, Fraction(1)])
        out[0] += a
    return out


@pytest.mark.parametrize("lam,mu,m", [(1.3, 0.7, 2), (0.8, 1.9, 3), (1.0, 1.0, 1)])
def test_l_is_scaled_shifted_q_exactly(lam, mu, m):
    # both routes in exact rational arithmetic: the L recurrence must agree
    # with lam**n * Q_n(z - lam - mu) identically, coefficient by coefficient
    lam_f, mu_f = Fraction(lam), Fraction(mu)
    q_table = q_table_fractions(lam, mu, m, 10)
    l_table = l_table_fractions(lam, mu, m, 10)
    for n in range(11):
        composed = _fcompose_shift(q_table[n], lam_f + mu_f)
        assert [lam_f**n * x for x in composed] == l_table[n]


@pytest.mark.parametrize("lam,mu,m", [(1.3, 0.7, 2), (0.8, 1.9, 3), (1.0, 1.0, 1)])
def test_l_matches_fraction_oracle(lam, mu, m):
    p = QueueParams(lam, mu, m)
    table = l_table_fractions(lam, mu, m, 10)
    for n in range(11):
        exact = np.array([float(x) for x in table[n]])
        got = np.asarray(l_poly(p, n).coeffs)
        scale = np.max(np.abs(exact))
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-12 * scale)


def band_table_fractions(m, bands, nmax):
    """P_n = ((gamma + x)/iota)**n for n <= m, then
    iota P_{n+1} = (xi + x) P_n - eta P_{n-m}, exactly in the band values."""
    g, i_, e, x = (Fraction(b) for b in bands)
    table = [[Fraction(1)]]
    for _ in range(min(m, nmax)):
        table.append([c / i_ for c in _fmul(table[-1], [g, Fraction(1)])])
    for n in range(m, nmax):
        c = _fsub(_fmul(table[n], [x, Fraction(1)]), [e * y for y in table[n - m]])
        table.append([y / i_ for y in c])
    return table[: nmax + 1]


@pytest.mark.parametrize("lam,mu,m", [(1.3, 0.7, 2), (0.4194807697969937, 0.09708687480463145, 6)])
def test_band_oracle_is_q_bitwise(lam, mu, m):
    # Q's bands (lam, lam, mu, lam + mu), the sum formed exactly
    lam_f, mu_f = Fraction(lam), Fraction(mu)
    table = band_table_fractions(m, (lam_f, lam_f, mu_f, lam_f + mu_f), 24)
    for n in range(25):
        got = q_poly(QueueParams(lam, mu, m), n)
        hi = tuple(float(x) for x in table[n])
        assert got.coeffs == hi


@pytest.mark.parametrize(
    "spec",
    [
        OperatorSpec("T", AlgebraicConfig(c=0.7, m=3), 0),
        OperatorSpec("T", AlgebraicConfig(c=1.0, m=1), 0),
        OperatorSpec("L", QueueParams(0.8, 1.9, 3), 0),
        OperatorSpec("L", QueueParams(1.3, 0.7, 2), 0),
        OperatorSpec("H", QueueParams(1.0, 1.0, 2), 0, gamma=0.3, iota=1.1, eta=0.8, xi=0.2),
        OperatorSpec("H", QueueParams(1.0, 1.0, 4), 0, gamma=-0.7, iota=0.9, eta=1.3, xi=0.45),
    ],
    ids=lambda spec: spec.kind,
)
def test_band_poly_matches_fraction_oracle(spec):
    table = band_table_fractions(spec.m, spec.bands(), 24)
    for n in range(25):
        exact = np.array([float(x) for x in table[n]])
        got = np.asarray(band_poly(spec.m, spec.bands(), n).coeffs)
        scale = np.max(np.abs(exact))
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-12 * scale)


def test_second_kind_shift():
    cfg = AlgebraicConfig(c=1.0, m=2)
    assert second_kind(cfg, 0, 1).coeffs == (0.0,)
    assert np.array_equal(second_kind(cfg, 1, 2)(np.arange(3.0)), np.zeros(3))
    assert second_kind(cfg, 2, 2).coeffs == (1.0,)
    assert second_kind(cfg, 5, 2).coeffs == t_poly(cfg, 3).coeffs


# ----------------------------------------------------------------- h family


def test_h_zeros_goldens():
    np.testing.assert_allclose(h_zeros(AlgebraicConfig(c=1.0, m=2), 4), [2.0], atol=1e-12)
    r5 = np.sqrt(5.0)
    np.testing.assert_allclose(
        h_zeros(AlgebraicConfig(c=1.0, m=1), 4), [(3 - r5) / 2, (3 + r5) / 2], atol=1e-12
    )


def _h_fractions(m, c, n):
    """Exact h_n, every (m+1)-th coefficient of the Fraction T_n, after
    checking that T_n has no other: T_n(z) = z**s h_n(z**(m+1))."""
    t_n = band_table_fractions(m, (0, 1, c, 0), n)[n]
    s = n % (m + 1)
    assert all(a == 0 for k, a in enumerate(t_n) if k % (m + 1) != s)
    return t_n[s :: m + 1]


def _bracketed(h, xs, rel=1e-12):
    """True when h changes sign exactly across each [x(1 - rel), x(1 + rel)],
    the intervals are disjoint, and there are deg h of them."""
    def sign(x):
        acc = Fraction(0)
        for a in reversed(h):
            acc = acc * x + a
        return acc > 0

    ends = [(Fraction(x * (1 - rel)), Fraction(x * (1 + rel))) for x in xs]
    disjoint = all(hi < lo for (_, hi), (lo, _) in zip(ends, ends[1:]))
    flips = all(sign(lo) != sign(hi) for lo, hi in ends)
    return len(xs) == len(h) - 1 and disjoint and flips


@pytest.mark.parametrize(
    "m,c,n",
    [(1, 2.0, 60), (1, 2.0, 100), (4, 0.5, 100)]
    + [(m, c, n) for m, c in [(2, 1.0), (3, 1.3824), (6, 0.7)] for n in (40, 60, 100)],
)
def test_h_zeros_bracketed_exactly(m, c, n):
    # every zero within 1e-12 relative, proved by an exact sign change of
    # h_n; no rounding in the check, and no zero missed.  The cases cover the
    # sets and indices whose interlacing `bulkq validate` checks
    zs = h_zeros(AlgebraicConfig(c=c, m=m), n)
    assert _bracketed(_h_fractions(m, c, n), zs)


def test_h_zeros_past_reach_raise_or_bracket():
    # past the section's reach the zeros are still right, or refused
    cfg = AlgebraicConfig(c=2.0, m=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            zs = h_zeros(cfg, 120)
        except ZeroFindingFailure:
            return
    assert _bracketed(_h_fractions(1, 2.0, 120), zs)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_h_zero_reality_positivity_interlacing(m):
    cfg = AlgebraicConfig(c=1.0, m=m)
    a_pow = star_geometry(cfg).arm_length ** (m + 1)
    prev = None
    for n in range(m + 1, 41):
        zs = h_zeros(cfg, n)
        assert len(zs) == n // (m + 1)
        assert np.all(zs > 0.0)
        assert t_poly(cfg, n).coeffs[n % (m + 1)] != 0.0  # h_n(0), so no zero at 0
        if len(zs) > 1:
            assert np.min(np.diff(zs)) > 1e-8 * a_pow
        if prev is not None and len(prev) > 0:
            if len(zs) == len(prev):
                # same zero count: strict upward shift, old and new alternate
                for jj in range(len(zs)):
                    assert prev[jj] < zs[jj]
                    if jj + 1 < len(zs):
                        assert zs[jj] < prev[jj + 1]
            else:
                # count grew by one: the new zeros bracket every old zero
                assert len(zs) == len(prev) + 1
                for jj in range(len(prev)):
                    assert zs[jj] < prev[jj] < zs[jj + 1]
        prev = zs


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
