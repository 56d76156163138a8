import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bulkq import algebraic, spectral, transition
from bulkq.algebraic import (
    AlgebraicConfig,
    boundary_values,
    dominant_roots,
    pole_site_roots,
    solve_branches,
    star_geometry,
)
from bulkq.errors import NotOnOpenArm

VIETA_RTOL = 1e-10


@pytest.mark.parametrize("m", [0, 2.0, 2.5, True])
def test_config_refuses_a_degree_that_is_not_an_integer(m):
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        AlgebraicConfig(c=0.7, m=m)
    assert AlgebraicConfig(c=0.7, m=np.int64(2)).m == 2


def elementary_symmetric(roots):
    """All elementary symmetric functions e_1..e_len via the stable product."""
    coeffs = np.array([1.0 + 0.0j])
    for w in roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -w]))
    # prod (x - w_j) = x^n - e1 x^(n-1) + e2 x^(n-2) - ...
    return [coeffs[k] * (-1) ** k for k in range(1, len(roots) + 1)]


def test_quadratic_closed_form():
    bv = solve_branches(AlgebraicConfig(c=1.0, m=1), 3.0)
    r5 = math.sqrt(5.0)
    np.testing.assert_allclose(bv.omega[0], (3 + r5) / 2, rtol=1e-14)
    np.testing.assert_allclose(bv.omega[1], (3 - r5) / 2, rtol=1e-14)


def test_root_sum_is_z():
    bv = solve_branches(AlgebraicConfig(c=0.7, m=3), 1.2 + 0.4j)
    np.testing.assert_allclose(sum(bv.omega), 1.2 + 0.4j, atol=1e-12)


def test_dominant_branch_at_infinity():
    bv = solve_branches(AlgebraicConfig(c=1.0, m=2), 1e6)
    assert abs(bv.omega[0] - 1e6) <= 1e-3


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 4),
    c=st.floats(0.05, 5.0),
    re=st.floats(-6.0, 6.0),
    im=st.floats(-6.0, 6.0),
)
@example(m=1, c=4.0, re=4.0, im=0.0)  # a branch point: a double root
@example(m=1, c=1.0, re=3.0, im=5e-324)  # a subnormal root argument
def test_vieta_and_ordering(m, c, re, im):
    z = complex(re, im)
    bv = solve_branches(AlgebraicConfig(c=c, m=m), z)
    mods = [abs(w) for w in bv.omega]
    assert all(mods[k] >= mods[k + 1] - 1e-12 * max(1.0, mods[k]) for k in range(m))
    e = elementary_symmetric(bv.omega)
    scale = max(1.0, abs(z), c)
    assert abs(e[0] - z) <= VIETA_RTOL * scale
    for k in range(2, m + 1):
        assert abs(e[k - 1]) <= VIETA_RTOL * scale**k
    assert abs(e[m] - (-1) ** (m + 1) * c) <= VIETA_RTOL * scale ** (m + 1)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), c=st.floats(0.1, 3.0), re=st.floats(-4, 4), im=st.floats(-4, 4))
def test_rotation_symmetry_of_root_multiset(m, c, re, im):
    z = complex(re, im)
    rot = cmath.exp(2j * cmath.pi / (m + 1))
    cfg = AlgebraicConfig(c=c, m=m)
    rotated = sorted((rot * w for w in solve_branches(cfg, z).omega), key=lambda w: (round(w.real, 8), round(w.imag, 8)))
    direct = sorted(solve_branches(cfg, rot * z).omega, key=lambda w: (round(w.real, 8), round(w.imag, 8)))
    for u, v in zip(rotated, direct):
        assert abs(u - v) <= 1e-8 * max(1.0, abs(u))


def test_branch_points_m1():
    # m = 1, c = 1: tips at z = +-2 with the double root w = +-1
    cfg = AlgebraicConfig(c=1.0, m=1)
    geo = star_geometry(cfg)
    for k, (zk, wk) in enumerate([(2.0, 1.0), (-2.0, -1.0)]):
        np.testing.assert_allclose(geo.arm_length * geo.rotation**k, zk, atol=1e-14)
        for w in solve_branches(cfg, zk).omega:
            assert abs(w - wk) <= 1e-6


def test_branch_points_satisfy_equation_and_criticality():
    # at each tip z_k the two largest branches collide, and the vanishing
    # w-derivative puts the double root at (m+1) w_k = m z_k
    for m, c in [(1, 0.4), (2, 1.0), (3, 2.5), (4, 0.9)]:
        cfg = AlgebraicConfig(c=c, m=m)
        geo = star_geometry(cfg)
        for k in range(geo.arm_count):
            zk = geo.arm_length * geo.rotation**k
            wk = m * zk / (m + 1)
            assert abs(wk ** (m + 1) - zk * wk**m + c) <= 1e-10 * max(1.0, abs(zk)) ** (m + 1)
            for w in solve_branches(cfg, zk).omega[:2]:
                assert abs(w - wk) <= 1e-6 * abs(wk)


def test_arm_length_m2():
    a = star_geometry(AlgebraicConfig(c=1.0, m=2)).arm_length
    np.testing.assert_allclose(a, 1.5 * 2.0 ** (1.0 / 3.0), rtol=1e-12)
    assert abs(a - 1.88988) < 1e-4


def test_star_geometry_m1():
    geo = star_geometry(AlgebraicConfig(c=1.0, m=1))
    assert geo.arm_count == 2
    np.testing.assert_allclose(geo.arm_length, 2.0, rtol=1e-14)
    np.testing.assert_allclose(geo.rotation, -1.0, atol=1e-14)


def test_a_frame_support_is_classical_interval():
    # lam = mu = 1, m = 1: the generator's support should be [-4, 0]
    lam = mu = 1.0
    geo = star_geometry(AlgebraicConfig(c=mu / lam, m=1))
    left = -lam - mu - lam * geo.arm_length
    right = -lam - mu + lam * geo.arm_length
    np.testing.assert_allclose([left, right], [-4.0, 0.0], atol=1e-12)


def test_boundary_values_m1_closed_form():
    plus, minus = boundary_values(AlgebraicConfig(c=1.0, m=1), 1.0)
    np.testing.assert_allclose(plus, 0.5 + 0.5j * math.sqrt(3), rtol=1e-12)
    np.testing.assert_allclose(minus, plus.conjugate(), rtol=1e-15)


def test_boundary_values_conjugacy_and_collision():
    cfg = AlgebraicConfig(c=0.8, m=3)
    a = star_geometry(cfg).arm_length
    for t in [0.1 * a, 0.5 * a, 0.9 * a]:
        plus, minus = boundary_values(cfg, t)
        assert plus.imag > 0
        assert minus == plus.conjugate()
    near_plus, near_minus = boundary_values(cfg, a * (1 - 1e-8))
    assert abs(near_plus - near_minus) < 1e-3


def test_boundary_values_domain_errors():
    cfg = AlgebraicConfig(c=1.0, m=2)
    a = star_geometry(cfg).arm_length
    for t in [0.0, -0.5, a, a + 1.0]:
        with pytest.raises(NotOnOpenArm):
            boundary_values(cfg, t)


def test_strict_separation_off_the_star():
    cfg = AlgebraicConfig(c=1.0, m=2)
    a = star_geometry(cfg).arm_length
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 40:
        z = complex(rng.uniform(-3 * a, 3 * a), rng.uniform(-3 * a, 3 * a))
        d = min(
            _dist_to_segment(z, 0.0, a * cmath.exp(2j * cmath.pi * k / 3)) for k in range(3)
        )
        if d <= 0.1 * a:
            continue
        w = solve_branches(cfg, z).omega
        assert abs(w[0]) > abs(w[1])
        checked += 1


@pytest.fixture
def fallback_points(monkeypatch):
    """Every point that :func:`dominant_roots` sends to the companion eigensolve."""
    seen = []
    real = algebraic._companion_dominant

    def counted(c, m, zs):
        seen.extend(zs.tolist())
        return real(c, m, zs)

    monkeypatch.setattr(algebraic, "_companion_dominant", counted)
    return seen


@pytest.mark.parametrize("m", [1, 2, 3, 6, 12, 20])
def test_dominant_roots_agree_with_solve_branches(m, fallback_points):
    cfg = AlgebraicConfig(c=0.7, m=m)
    geo = star_geometry(cfg)
    a, dirs = geo.arm_length, geo.rotation ** np.arange(m + 1)
    rng = np.random.default_rng(m)
    far = a * 10 ** rng.uniform(0.1, 4.0, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
    ring = 1.0 + 1e-3 * np.exp(1j * np.pi * (np.arange(8) + 0.5) / 4)  # none on the arm
    tips = np.multiply.outer(a * dirs, ring).ravel()
    beside = np.multiply.outer(dirs, a * np.linspace(0.05, 0.95, 7) * (1.0 + 1e-3j)).ravel()
    zs = np.concatenate([far, tips, beside])
    got = dominant_roots(cfg, zs)
    want = np.array([solve_branches(cfg, z).omega[0] for z in zs])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    # beside an arm the top pair has nearly one modulus: no certificate there
    assert set(beside.tolist()) <= set(fallback_points)
    assert set(tips.tolist()) & set(fallback_points)
    assert not set(far.tolist()) & set(fallback_points)
    # where solve_branches overflows, against the expansion w = z - c z**-m
    huge = 1e250 * np.exp(1j * np.linspace(-np.pi, np.pi, 9))
    assert np.max(np.abs(dominant_roots(cfg, huge) - huge) / 1e250) <= 1e-13


@pytest.mark.parametrize("z,k", [(0.1 + 0.725j, 2), (-0.925 + 0.15j, 1)])
def test_dominant_roots_refuses_newton_on_a_smaller_root(z, k):
    # from the engine's start w = z - c/z**m Newton converges within a few
    # steps to the k-th root in modulus; only the dominance certificate sends
    # z to the eigensolve
    cfg = AlgebraicConfig(c=0.5, m=3)
    w = z - 0.5 / z**3
    for _ in range(8):
        w -= (w**4 - z * w**3 + 0.5) / (4 * w**3 - 3 * z * w**2)
    omega = solve_branches(cfg, z).omega
    assert abs(w - omega[k]) <= 1e-13
    got = complex(dominant_roots(cfg, np.array([z]))[0])
    assert abs(got - omega[0]) <= 1e-13 * abs(omega[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 20),
    log_lam=st.floats(-1.0, 1.0),
    log_c=st.floats(-1.5, 1.5),
    log_t=st.floats(-8.0, 3.0),
)
def test_dominant_roots_is_the_top_companion_eigenvalue_on_talbot_nodes(m, log_lam, log_c, log_t):
    # both rules' nodes, in zeta = (s + lam + mu) / lam with c = mu / lam
    lam, c, t = 10.0**log_lam, 10.0**log_c, 10.0**log_t
    s = np.concatenate([transition._talbot(K, t)[0] for K in (48, 64)])
    zs = (s + lam + c * lam) / lam
    got = dominant_roots(AlgebraicConfig(c=c, m=m), zs)
    for z, w in zip(zs, got):
        eig = np.roots(np.r_[1.0, -z, np.zeros(m - 1), c])
        top = eig[np.argmax(np.abs(eig))]
        assert abs(w - top) <= 1e-12 * abs(top), (z, w, top)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 20), log_c=st.floats(-1.5, 1.5))
def test_pole_site_roots_are_the_top_companion_eigenvalue(m, log_c):
    # at zeta = c + u, u**m = 1, w = u is a root: the rest come from the
    # degree-m factor, and the removable decision (u dominant) must agree.
    # Sites on the star, where the top moduli tie, are resolvent_poles' to drop
    cfg = AlgebraicConfig(c=10.0**log_c, m=m)
    u, zeta, dist = spectral._pole_sites(cfg)
    off = dist > 1e-12 * star_geometry(cfg).arm_length
    for uk, z, w in zip(u[off], zeta[off], pole_site_roots(cfg, u[off])):
        eig = np.roots(np.r_[1.0, -z, np.zeros(m - 1), cfg.c])
        top, second = sorted(eig, key=lambda v: -abs(v))[:2]
        if abs(top - second) <= 1e-4 * abs(top):
            continue  # beside a tip of the star np.roots is only good to eps / gap
        assert abs(w - top) <= 1e-12 * abs(top), (uk, w, top)
        assert (abs(uk - w) >= 1e-8) == (abs(uk - top) >= 1e-8)


@pytest.mark.parametrize("m", [1, 2, 3, 6, 12, 20])
def test_boundary_values_are_the_top_pair_on_the_arm(m, fallback_points):
    cfg = AlgebraicConfig(c=0.7, m=m)
    ts = star_geometry(cfg).arm_length * np.linspace(0.02, 0.98, 25)
    plus, minus = boundary_values(cfg, ts)
    assert np.all(plus.imag > 0)
    np.testing.assert_array_equal(minus, plus.conj())
    for t, wp in zip(ts, plus):
        top = solve_branches(cfg, t).omega[:2]
        assert min(abs(wp - w) for w in top) <= 1e-13 * abs(wp)
    # Newton from a real t stays real, so every arm point takes the eigensolve
    assert fallback_points == ts.tolist()


def test_dominant_roots_raises_no_warning():
    # at m = 12, |w|**(m+1) overflows for |w| above about 1e23
    cfg = AlgebraicConfig(c=0.7, m=12)
    a = star_geometry(cfg).arm_length
    zs = np.array([0.0, 1e-300, 1e-300j, 0.5 * a, a, 1e23, -1e30j, 1e250, -1e250 + 1e250j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = dominant_roots(cfg, zs)
    assert np.all(np.isfinite(w))


def _dist_to_segment(z, p0, p1):
    d = p1 - p0
    s = ((z - p0) * d.conjugate()).real / abs(d) ** 2
    s = min(1.0, max(0.0, s))
    return abs(z - (p0 + s * d))


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
