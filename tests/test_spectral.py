import cmath
import math
import re

import numpy as np
import pytest

from bulkq import algebraic
from bulkq.algebraic import AlgebraicConfig, solve_branches, star_geometry
from bulkq.errors import InsideSupport, QuadratureNotConverged
from bulkq.model import QueueParams
from bulkq.operators import OperatorSpec, moment
from bulkq.polynomials import dual_vector, q_poly
from bulkq.spectral import (
    QuadratureRule,
    _arm_density,
    _fhat_block,
    markov_residual,
    resolvent_poles,
    sigma_apply,
    star_quadrature,
)

MASS_TOL = 1e-8
MOMENT_TOL = 1e-7


def test_weight_rho_frozen_point():
    # m = 1, c = 1: the semicircle w(t) = sqrt(4 - t^2)/(2 pi) at every node
    ts, _, dens = _arm_density(AlgebraicConfig(c=1.0, m=1), 1, 16, 24)
    np.testing.assert_allclose(dens, np.sqrt(4.0 - ts**2) / (2.0 * math.pi), rtol=0, atol=1e-14)


@pytest.mark.parametrize("m, c", [(1, 0.37), (3, 1.9), (6, 0.053)])
def test_arm_density_matches_per_node_branch_solve(m, c, monkeypatch):
    cfg = AlgebraicConfig(c=c, m=m)

    def refuse(*args, **kwargs):
        raise AssertionError("_arm_density solved the branch equation per node")

    # the batched path calls neither solve_branches nor numpy.roots
    with monkeypatch.context() as patch:
        patch.setattr(np, "roots", refuse)
        patch.setattr(algebraic, "solve_branches", refuse)
        got = [_arm_density(cfg, j, 64, 24) for j in range(1, m + 1)]
    ts = got[0][0]
    w0 = np.array([solve_branches(cfg, float(t)).omega[0] for t in ts])
    plus = np.where(w0.imag > 0, w0, w0.conj())
    for j, (tj, _, dens) in enumerate(got, start=1):
        assert np.array_equal(tj, ts)
        ref = ((plus.conj() ** -j - plus**-j) / (2j * math.pi)).real
        assert np.max(np.abs(dens - ref)) <= 5e-12 * np.max(np.abs(ref)), j


def test_weight_rho_positive_inside_and_small_at_tip():
    for m, c in [(1, 1.0), (2, 1.0), (3, 0.7), (2, 2.3)]:
        cfg = AlgebraicConfig(c=c, m=m)
        a = star_geometry(cfg).arm_length
        ts, _, dens = _arm_density(cfg, 1, 96, 24)
        assert dens.min() > 0.0
        # square-root vanishing at the tip: dens / sqrt(a - t) levels off
        assert a - ts[-1] < 1e-5 and dens[-1] < 1e-3
        edge = dens[-3:] / np.sqrt(a - ts[-3:])
        np.testing.assert_allclose(edge, edge[-1], rtol=1e-4)


def test_weight_total_mass_is_one_over_the_star():
    # (m+1) * int_0^a w dt = 1 for every configuration
    for m, c in [(1, 1.0), (2, 1.0), (3, 0.7), (2, 2.3), (4, 1.6)]:
        cfg = AlgebraicConfig(c=c, m=m)
        ts, ws, dens = _arm_density(cfg, 1, 96, 24)
        np.testing.assert_allclose((m + 1) * np.sum(dens * ws), 1.0, atol=MASS_TOL)


def test_weight_rho_j_positive_and_index_domain():
    # every index-j jump density, j = 1..m, is positive on the open arm;
    # outside 1..m there is no index-j Markov representation
    for m, c in [(1, 1.0), (2, 1.0), (3, 0.7), (4, 1.6)]:
        cfg = AlgebraicConfig(c=c, m=m)
        for j in range(1, m + 1):
            assert np.all(_arm_density(cfg, j, 16, 24)[2] > 0.0)
    cfg = AlgebraicConfig(c=0.7, m=3)
    for j in (0, 4):
        with pytest.raises(ValueError):
            markov_residual(cfg, j, 5.0)


def test_markov_residual_frozen_examples():
    cfg1 = AlgebraicConfig(c=1.0, m=1)
    assert markov_residual(cfg1, 1, 3.0) <= 1e-8
    # sanity of the quantity itself: 1/omega_0(3) = 2/(3 + sqrt 5)
    w0 = solve_branches(cfg1, 3.0).omega[0]
    np.testing.assert_allclose(1.0 / w0, 2.0 / (3.0 + math.sqrt(5.0)), rtol=1e-12)
    assert markov_residual(AlgebraicConfig(c=1.0, m=2), 2, 2.0 + 1.0j) <= 1e-7


def test_markov_residual_far_field():
    cfg = AlgebraicConfig(c=1.0, m=1)
    a = star_geometry(cfg).arm_length
    assert markov_residual(cfg, 1, 100.0 * a) <= 1e-9


def test_markov_residual_random_exterior_points():
    rng = np.random.default_rng(11)
    for m, c in [(2, 1.0), (3, 0.7)]:
        cfg = AlgebraicConfig(c=c, m=m)
        a = star_geometry(cfg).arm_length
        done = 0
        while done < 6:
            z = complex(rng.uniform(-3 * a, 3 * a), rng.uniform(-3 * a, 3 * a))
            if min(abs(z - t * cmath.exp(2j * cmath.pi * k / (m + 1)))
                   for k in range(m + 1)
                   for t in np.linspace(0, a, 50)) <= 0.2 * a:
                continue
            j = int(rng.integers(1, m + 1))
            assert markov_residual(cfg, j, z) <= 1e-7
            done += 1


def _last_delta(exc) -> float:
    """The gap a ladder failure reports between its last two levels."""
    return float(re.search(r"last delta ([^)]+)\)", str(exc)).group(1))


def test_markov_residual_ladder_failure():
    # no two of the 16..512-panel integrals agree exactly
    with pytest.raises(QuadratureNotConverged, match="still moving after 512 panels") as err:
        markov_residual(AlgebraicConfig(c=1.0, m=2), 1, 3.0 + 1.0j, tol=0.0)
    assert _last_delta(err.value) > 0.0


def test_markov_residual_inside_support_raises():
    cfg = AlgebraicConfig(c=1.0, m=2)
    a = star_geometry(cfg).arm_length
    with pytest.raises(InsideSupport):
        markov_residual(cfg, 1, 0.5 * a)
    with pytest.raises(InsideSupport):
        markov_residual(cfg, 1, 0.05 * a + 0.05j * a)


def test_rotated_star_moments_vanish_below_index():
    # sum_k d_k^{1-j} (t d_k)^nu integrates to zero for nu <= j-2
    for m, c in [(3, 0.7), (4, 1.2)]:
        cfg = AlgebraicConfig(c=c, m=m)
        for j in range(2, m + 1):
            ts, ws, dens = _arm_density(cfg, j, 64, 24)
            base = np.sum(dens * ws * ts ** np.arange(j - 1)[:, None], axis=1)
            for nu in range(j - 1):
                phase = sum(
                    cmath.exp(2j * cmath.pi * k * (nu + 1 - j) / (m + 1))
                    for k in range(m + 1)
                )
                assert abs(phase * base[nu]) <= 1e-8


def test_arm_moments_match_operator_moments():
    # (m+1) int t^nu rho_j = moment(T, nu, j) when nu = j-1 mod (m+1), else 0
    for m, c in [(2, 1.0), (3, 0.7)]:
        cfg = AlgebraicConfig(c=c, m=m)
        spec = OperatorSpec("T", cfg, 48)
        for j in range(1, m + 1):
            ts, ws, dens = _arm_density(cfg, j, 128, 24)
            for nu in range(9):
                want = moment(spec, nu, j)
                if (nu - j + 1) % (m + 1) == 0:
                    got = (m + 1) * float(np.sum(ts**nu * dens * ws))
                else:
                    got = 0.0
                    assert want == 0.0
                assert abs(got - want) <= MOMENT_TOL * max(1.0, abs(want))


def test_sigma_normalization():
    ones = lambda x: np.ones_like(x)
    for m, lam, mu in [(1, 1.0, 2.0), (2, 1.0, 1.0), (3, 1.2, 0.8), (2, 1.9, 1.0)]:
        p = QueueParams(lam, mu, m)
        np.testing.assert_allclose(sigma_apply(p, 0, ones), 1.0, atol=1e-8)
        for j in range(1, m):
            np.testing.assert_allclose(sigma_apply(p, j, ones), 0.0, atol=1e-8)


def test_sigma_monomials_match_generator_moments():
    p = QueueParams(1.0, 1.0, 2)
    spec = OperatorSpec("A", p, 40)
    for nu in range(7):
        got = sigma_apply(p, 1, lambda x, nu=nu: x**nu)
        want = moment(spec, nu, 2)
        np.testing.assert_allclose(got, want, rtol=MOMENT_TOL, atol=MOMENT_TOL)


def test_sigma_monomials_all_indices():
    for m, lam, mu in [(1, 1.0, 2.0), (3, 1.2, 0.8)]:
        p = QueueParams(lam, mu, m)
        spec = OperatorSpec("A", p, 48)
        for j in range(m):
            for nu in range(9):
                got = sigma_apply(p, j, lambda x, nu=nu: x**nu)
                want = moment(spec, nu, j + 1)
                np.testing.assert_allclose(got, want, rtol=MOMENT_TOL, atol=MOMENT_TOL)


def test_sigma_apply_ladder_failure():
    # the 12-, 24-, 48- and 96-panel values differ in the last bits
    with pytest.raises(QuadratureNotConverged, match="sigma_0 still moving after 96 panels") as err:
        sigma_apply(QueueParams(1.0, 1.0, 2), 0, lambda x: x**3, tol=0.0)
    assert _last_delta(err.value) > 0.0


def test_sigma_apply_converges_where_48_panels_do_not():
    # j = 2, 3 and 5 still move by 1.1e-9 to 2.6e-9 from 24 to 48 panels
    p = QueueParams(0.4194807697969937, 0.09708687480463145, 6)
    spec = OperatorSpec("A", p, 40)
    for j in range(p.m):
        got = sigma_apply(p, j, lambda x: x**2 + 1)
        want = moment(spec, 2, j + 1) + moment(spec, 0, j + 1)
        np.testing.assert_allclose(got, want, rtol=MOMENT_TOL, atol=MOMENT_TOL)


@pytest.mark.parametrize(
    "lam, mu, m", [(0.5, 1.5, 1), (0.6, 1.0, 2), (1.2, 0.8, 3), (0.9, 0.7, 4), (1.0, 0.3, 6)]
)
def test_resolvent_poles_are_residues_of_the_resolvent(lam, mu, m, monkeypatch):
    p = QueueParams(lam, mu, m)
    resolvent_poles.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("resolvent_poles solved the branch equation per pole")

    with monkeypatch.context() as patch:
        patch.setattr(np, "roots", refuse)
        poles = resolvent_poles(p)
    assert poles and resolvent_poles(p) is poles
    zs = np.array([z for z, _, _ in poles])
    for z, dist, res in poles:
        assert not res.flags.writeable
        # (1/2 pi i) times the integral of fhat over a circle that encloses z alone
        gap = min([dist] + [abs(z - other) for other in zs if other != z])
        circle = 0.25 * gap * np.exp(2j * math.pi * np.arange(64) / 64)
        contour = np.mean(_fhat_block(p, z + circle) * circle, axis=1)
        np.testing.assert_allclose(contour, res, rtol=0, atol=1e-11 * np.max(np.abs(res)))


def test_resolvent_poles_drop_poles_on_the_star():
    # zeta = -1 puts the pole mu - lam on the star: at lam = mu its centre
    # (1.2e-16i after rounding), at (0.6, 1.0, 2) the real arm.  Every tube
    # contains it, so only mu + lam is left
    for lam, mu in [(1.0, 1.0), (0.6, 1.0)]:
        poles = resolvent_poles(QueueParams(lam, mu, 2))
        assert [z for z, _, _ in poles] == [mu + lam]


def test_sigma_scalar_callable_fallback():
    p = QueueParams(1.0, 2.0, 1)
    got = sigma_apply(p, 0, lambda x: complex(x) ** 2)
    want = moment(OperatorSpec("A", p, 40), 2, 1)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)


def test_spectral_functional_binding_and_validation():
    p = QueueParams(1.0, 1.0, 2)
    np.testing.assert_allclose(
        sigma_apply(p, 1, lambda x: x), moment(OperatorSpec("A", p, 40), 1, 2), atol=1e-8
    )
    for j in (-1, p.m):
        with pytest.raises(ValueError):
            sigma_apply(p, j, lambda x: x)


def test_integrated_biorthogonality_small_block():
    # sum_j sigma_j(Q_n * q_{j,r}) = delta_{n,r}
    p = QueueParams(1.0, 2.0, 2)
    for n in range(5):
        qn = q_poly(p, n)
        for r in range(5):
            dv = dual_vector(p, r)
            acc = 0.0
            for j in range(p.m):
                comp = dv.components[j]
                acc += sigma_apply(p, j, lambda x, qn=qn, comp=comp: qn(x) * comp(x))
            np.testing.assert_allclose(acc, 1.0 if n == r else 0.0, atol=1e-6)


def test_star_quadrature_frozen_m1():
    rule = star_quadrature(AlgebraicConfig(c=1.0, m=1), 2)
    np.testing.assert_allclose(rule.zeros, [1.0], atol=1e-12)
    np.testing.assert_allclose(sorted(rule.nodes.ravel().real), [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(rule.weights, 1.0, atol=1e-12)
    np.testing.assert_allclose(rule.weights.sum(), 2.0, rtol=1e-12)
    assert rule.exactness_degree == 3


def test_star_quadrature_mass():
    # total mass (m+1)c for both index residues, c != 1 included
    for m, c, n in [(2, 1.0, 6), (2, 1.0, 7), (3, 0.7, 13), (1, 2.5, 9),
                    (2, 1.3, 9), (3, 0.7, 12), (1, 1.3, 6)]:
        rule = star_quadrature(AlgebraicConfig(c=c, m=m), n)
        assert np.all(rule.weights > 0)
        np.testing.assert_allclose(rule.weights.sum(), (m + 1) * c, rtol=1e-10)


def test_star_quadrature_moments_exact_within_degree_bound():
    for m, c in [(1, 1.3), (2, 1.3), (3, 0.7)]:
        cfg = AlgebraicConfig(c=c, m=m)
        spec = OperatorSpec("T", cfg, 200)
        for n in range(m + 1, 3 * (m + 1) + 1):
            rule = star_quadrature(cfg, n)
            s = n % (m + 1)
            for sp in range(rule.exactness_degree + 1):
                nu = sp + s
                if nu % (m + 1):
                    continue  # both sides vanish structurally
                want = moment(spec, nu, 1)
                got = rule.monomial_moment(nu)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (m, c, n, nu)


def test_star_quadrature_degree_bound_is_sharp():
    for m, c, n in [(1, 1.3, 7), (2, 1.3, 11), (3, 0.7, 14)]:
        cfg = AlgebraicConfig(c=c, m=m)
        spec = OperatorSpec("T", cfg, 200)
        rule = star_quadrature(cfg, n)
        s = n % (m + 1)
        sp = rule.exactness_degree + 1
        while (sp + s) % (m + 1):
            sp += 1
        nu = sp + s
        want = moment(spec, nu, 1)
        assert abs(rule.monomial_moment(nu) - want) > 1e-6 * max(1.0, abs(want))


def test_star_quadrature_preconditions():
    with pytest.raises(ValueError):
        star_quadrature(AlgebraicConfig(c=1.0, m=2), 2)
    with pytest.raises(ValueError):
        star_quadrature(AlgebraicConfig(c=1.0, m=1), 2).monomial_moment(-1)


def test_quadrature_rule_is_frozen_dataclass():
    rule = star_quadrature(AlgebraicConfig(c=1.0, m=1), 4)
    assert isinstance(rule, QuadratureRule)
    with pytest.raises(AttributeError):
        rule.n = 5
    with pytest.raises(ValueError):
        rule.weights[0, 0] = 2.0


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
