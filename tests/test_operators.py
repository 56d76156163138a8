import numpy as np
import pytest

from bulkq.algebraic import AlgebraicConfig, solve_branches
from bulkq.errors import InsideSupport, TruncationTooSmall
from bulkq.model import QueueParams, build_generator
from bulkq.operators import (
    OperatorSpec,
    basis_jump_check,
    biorthogonality_check,
    build_matrix,
    dual_jump_check,
    lambda_conjugation_residual,
    moment,
)
from bulkq.polynomials import second_kind, t_poly

from banded_resolvent import resolvent

JUMP_TOL = 1e-10


def test_build_matrix_l_is_t_plus_partial_identity():
    p = QueueParams(1.3, 0.7, 2)
    t = build_matrix(OperatorSpec("T", AlgebraicConfig(c=p.mu * p.lam**p.m, m=2), 10))
    l_ = build_matrix(OperatorSpec("L", p, 10))
    diff = l_ - t
    expected = np.zeros((10, 10))
    expected[0, 0] = expected[1, 1] = p.mu
    np.testing.assert_array_equal(diff, expected)


def test_basis_jump_a_trivial():
    spec = OperatorSpec("A", QueueParams(1.0, 1.0, 2), 12)
    assert basis_jump_check(spec, 0) == 0.0


def test_basis_jump_t():
    spec = OperatorSpec("T", AlgebraicConfig(c=1.0, m=1), 32)
    assert basis_jump_check(spec, 5) <= JUMP_TOL


def test_basis_jump_l():
    spec = OperatorSpec("L", QueueParams(1.0, 1.0, 2), 40)
    assert basis_jump_check(spec, 7) <= JUMP_TOL


def test_basis_jump_all_kinds_sweep():
    p = QueueParams(1.2, 0.8, 3)
    cfg = AlgebraicConfig(c=p.mu * p.lam**p.m, m=3)
    for kind, params in [("A", p), ("T", cfg), ("L", p)]:
        for n in range(0, 12, 3):
            assert basis_jump_check(OperatorSpec(kind, params, 64), n) <= 1e-9


def test_basis_jump_generic_h():
    p = QueueParams(1.0, 1.0, 2)
    spec = OperatorSpec("H", p, 40, gamma=0.3, iota=1.1, eta=0.8, xi=0.2)
    assert basis_jump_check(spec, 6) <= 1e-9


def test_basis_jump_truncation_guard():
    spec = OperatorSpec("T", AlgebraicConfig(c=1.0, m=2), 10)
    with pytest.raises(TruncationTooSmall):
        basis_jump_check(spec, 8)


def test_dual_jump_trivial_and_exact():
    p = QueueParams(1.0, 1.0, 2)
    assert dual_jump_check(p, 1, 16) == 0.0
    assert dual_jump_check(p, 3, 24) <= JUMP_TOL
    assert dual_jump_check(QueueParams(1.0, 2.0, 3), 8, 60) <= 1e-9


def test_biorthogonality_examples():
    assert biorthogonality_check(QueueParams(1.0, 1.0, 1), 0, 0, 12) == pytest.approx(1.0)
    assert abs(biorthogonality_check(QueueParams(1.0, 1.0, 2), 3, 5, 40)) <= JUMP_TOL
    assert biorthogonality_check(QueueParams(1.0, 3.0, 3), 7, 7, 48) == pytest.approx(1.0, abs=1e-10)


def test_biorthogonality_sweep():
    p = QueueParams(1.4, 0.6, 2)
    for n in range(7):
        for r in range(7):
            val = biorthogonality_check(p, n, r, 48)
            assert abs(val - (1.0 if n == r else 0.0)) <= 1e-9


def test_moment_frozen_values():
    cfg = AlgebraicConfig(c=1.0, m=1)
    spec = OperatorSpec("T", cfg, 32)
    assert moment(spec, 2, 1) == 1.0  # one up-down excursion
    cfg3 = AlgebraicConfig(c=0.7, m=3)
    spec3 = OperatorSpec("T", cfg3, 64)
    for j in range(1, 4):
        assert moment(spec3, j - 1, j) == 1.0
        for nu in range(j - 1):
            assert moment(spec3, nu, j) == 0.0


def test_moment_matches_dense_power():
    p = QueueParams(1.1, 0.9, 2)
    spec = OperatorSpec("A", p, 40)
    a = build_matrix(spec)
    acc = np.eye(40)
    for nu in range(7):
        for j in range(1, 3):
            assert moment(spec, nu, j) == pytest.approx(acc[0, j - 1], abs=1e-12)
        acc = a @ acc


def test_resolvent_frozen_t_value():
    spec = OperatorSpec("T", AlgebraicConfig(c=1.0, m=1), 64)
    sample = resolvent(spec, 1, 3.0)
    np.testing.assert_allclose(sample.value, 2.0 / (3.0 + np.sqrt(5.0)), rtol=1e-10)


def test_resolvent_matches_dominant_branch_inverse_powers():
    cfg = AlgebraicConfig(c=1.0, m=2)
    spec = OperatorSpec("T", cfg, 96)
    for z in [2.5, 3.0 + 1.0j, -2.0 + 2.0j]:
        w0 = solve_branches(cfg, z).omega[0]
        for j in range(1, 3):
            sample = resolvent(spec, j, z)
            assert abs(sample.value - 1.0 / w0**j) <= 1e-9 * max(1.0, abs(sample.value))


def test_resolvent_shift_between_generator_and_l_frame():
    # f_j(z, A) = lam**(j-1) * f_j(z + lam + mu, L)
    p = QueueParams(1.3, 0.7, 2)
    for z in [3.0 + 1.0j, 1.5 - 2.0j]:
        for j in range(1, 3):
            fa = resolvent(OperatorSpec("A", p, 96), j, z).value
            fl = resolvent(OperatorSpec("L", p, 96), j, z + p.lam + p.mu).value
            assert abs(fa - p.lam ** (j - 1) * fl) <= 1e-9


@pytest.mark.parametrize("k", [2.0, 2.5])
def test_operator_indices_must_be_integers(k):
    spec = OperatorSpec("A", QueueParams(1.2, 0.8, 3), 96)
    calls = [
        ("j", lambda: moment(spec, 2, k - 1)),
        ("nu", lambda: moment(spec, k, 1)),
        ("j", lambda: resolvent(spec, k - 1, 1 + 1j)),
        ("n", lambda: basis_jump_check(spec, k)),
    ]
    for label, call in calls:
        with pytest.raises(ValueError, match=f"{label} must be an integer"):
            call()


def test_resolvent_inside_support_raises():
    spec = OperatorSpec("T", AlgebraicConfig(c=1.0, m=1), 64)
    with pytest.raises(InsideSupport):
        resolvent(spec, 1, 0.5)


def test_gershgorin_support_bound():
    for m in [1, 2, 3]:
        cfg = AlgebraicConfig(c=1.0, m=m)
        sec = build_matrix(OperatorSpec("T", cfg, 200))
        eig = np.linalg.eigvals(sec)
        assert np.max(np.abs(eig)) <= 1.0 + cfg.c + 1e-8


def test_resolvent_decay_at_large_radius():
    cfg = AlgebraicConfig(c=0.8, m=2)
    radius = 4.0 * (1.0 + cfg.c)
    spec = OperatorSpec("T", cfg, 96)
    for theta in np.linspace(0.1, 2 * np.pi, 7):
        z = radius * np.exp(1j * theta)
        for j in range(1, 3):
            assert abs(resolvent(spec, j, z).value) * radius**j <= 3.0


def test_hermite_pade_residual_decreases():
    cfg = AlgebraicConfig(c=1.0, m=2)
    z = 3.0
    spec = OperatorSpec("T", cfg, 128)
    f = [resolvent(spec, j, z).value for j in (1, 2)]
    res = []
    for n in [6, 12, 18]:
        tn = t_poly(cfg, n)(z)
        worst = max(abs(t_poly(cfg, n)(z) * f[j - 1] - second_kind(cfg, n, j)(z)) / abs(tn) for j in (1, 2))
        res.append(worst)
    assert res[2] < res[1] < res[0]
    assert res[2] < 1e-8


def test_ratio_asymptotics():
    cfg = AlgebraicConfig(c=1.0, m=1)
    z = 3.0
    w0 = solve_branches(cfg, z).omega[0]
    err = [abs(t_poly(cfg, n - 1)(z) / t_poly(cfg, n)(z) - 1.0 / w0) for n in (15, 30)]
    assert err[1] < err[0]
    assert err[1] < 1e-6


@pytest.mark.parametrize("lam,mu,m", [(1.0, 1.0, 1), (1.3, 0.7, 2), (0.6, 1.9, 3)])
def test_lambda_conjugation_exact(lam, mu, m):
    assert lambda_conjugation_residual(QueueParams(lam, mu, m), N=60) <= 1e-14


def test_generator_builder_agrees_with_operator_builder():
    p = QueueParams(0.9, 1.8, 2)
    np.testing.assert_array_equal(
        build_matrix(OperatorSpec("A", p, 15)), build_generator(p, 15)
    )
