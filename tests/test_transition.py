"""Tests for the transient transition-probability engine."""

import math
import sys

import numpy as np
import pytest
import scipy.linalg

from bulkq import spectral
from bulkq.errors import QuadratureNotConverged, TailNotControlled
from bulkq.model import QueueParams, build_generator
from bulkq.oracle import SPECTRAL_VS_EXPM, expm_uniformization
from bulkq.spectral import resolvent_poles
from bulkq.transition import (
    STATE_CAP,
    TransitionQuery,
    TransitionResult,
    decay_rate,
    fitted_decay_rate,
    honesty_check,
    semigroup_check,
    transition_spectral,
)

EXPM_TOL = 1e-10  # engine vs dense matrix exponential
EXPM_N = 260  # truncation large enough that the compared entries are exact


def expm_entry(p: QueueParams, n: int, r: int, t: float) -> float:
    a = np.array(build_generator(p, EXPM_N).entries)
    return float(scipy.linalg.expm(t * a)[n, r])


def uniformization_rows(p: QueueParams, t: float) -> np.ndarray:
    """Rows 0..STATE_CAP of P(t), exact to far below SPECTRAL_VS_EXPM."""
    size = 64
    while size < max(4 * (p.m + p.lam * t), 4 * STATE_CAP + 4):
        size *= 2
    return expm_uniformization(p, size, t, rows=STATE_CAP + 1)


# ------------------------------------------------------------------ queries


def test_query_rejects_bad_states():
    with pytest.raises(ValueError):
        TransitionQuery(-1, 0, (1.0,))
    with pytest.raises(ValueError):
        TransitionQuery(0, 2.5, (1.0,))


def test_query_rejects_bad_times():
    with pytest.raises(ValueError):
        TransitionQuery(0, 0, ())
    with pytest.raises(ValueError):
        TransitionQuery(0, 0, (1.0, 0.5))
    with pytest.raises(ValueError):
        TransitionQuery(0, 0, (-0.1,))
    with pytest.raises(ValueError):
        TransitionQuery(0, 0, (math.nan,))
    with pytest.raises(ValueError):
        TransitionQuery(0, 0, (math.inf,))


def test_query_normalizes_times_to_floats():
    q = TransitionQuery(1, 2, [0, 1, 2])
    assert q.times == (0.0, 1.0, 2.0)
    assert all(isinstance(t, float) for t in q.times)


def test_query_normalizes_integral_states_to_ints():
    q = TransitionQuery(0, 3.0, (1.0,))
    assert (q.n, q.r) == (0, 3)
    assert isinstance(q.r, int)
    p = QueueParams(1, 2, 1)
    assert transition_spectral(p, q) == transition_spectral(p, TransitionQuery(0, 3, (1.0,)))


def test_result_validates_method_and_range():
    with pytest.raises(ValueError):
        TransitionResult((0.5,), "magic", (0.0,))
    with pytest.raises(ValueError):
        TransitionResult((0.5, 0.5), "spectral", (0.0,))
    with pytest.raises(ValueError):
        TransitionResult((1.5,), "spectral", (0.0,))


def test_state_cap():
    with pytest.raises(ValueError):
        transition_spectral(QueueParams(1.0, 1.0, 1), TransitionQuery(65, 0, (1.0,)))


# ------------------------------------------------------------------- engine


def test_time_zero_is_exact_identity():
    p = QueueParams(1.3, 0.7, 2)
    assert transition_spectral(p, TransitionQuery(4, 4, (0.0,))).values == (1.0,)
    assert transition_spectral(p, TransitionQuery(4, 2, (0.0,))).values == (0.0,)


def test_matches_matrix_exponential():
    for p in [QueueParams(1.0, 2.0, 1), QueueParams(1.0, 1.0, 2), QueueParams(1.2, 0.8, 3)]:
        for n, r, t in [(0, 0, 0.5), (0, 2, 1.0), (3, 1, 2.0), (5, 7, 1.0), (8, 0, 5.0)]:
            got = transition_spectral(p, TransitionQuery(n, r, (t,))).values[0]
            assert abs(got - expm_entry(p, n, r, t)) <= EXPM_TOL


def test_spec_point_m2():
    # the classic smoke point: lam = mu = 1, m = 2, P_{0,2}(1)
    p = QueueParams(1.0, 1.0, 2)
    got = transition_spectral(p, TransitionQuery(0, 2, (1.0,))).values[0]
    assert abs(got - expm_entry(p, 0, 2, 1.0)) <= 1e-6


def test_multi_time_query_and_error_estimates():
    p = QueueParams(1.0, 1.0, 2)
    res = transition_spectral(p, TransitionQuery(3, 3, (0.0, 0.5, 1.0, 5.0)))
    assert res.method == "spectral"
    assert len(res.values) == len(res.error_estimate) == 4
    assert res.values[0] == 1.0 and res.error_estimate[0] == 0.0
    assert all(e <= 1e-9 for e in res.error_estimate)
    singles = [
        transition_spectral(p, TransitionQuery(3, 3, (t,))).values[0]
        for t in (0.5, 1.0, 5.0)
    ]
    np.testing.assert_allclose(res.values[1:], singles, rtol=0, atol=1e-13)


def test_short_time_arrival_rate():
    # P_{i,i+1}(dt)/dt -> lam, checked with one Richardson step
    p = QueueParams(1.3, 0.9, 2)
    for i in (0, 3):
        v1 = transition_spectral(p, TransitionQuery(i, i + 1, (1e-3,))).values[0] / 1e-3
        v2 = transition_spectral(p, TransitionQuery(i, i + 1, (5e-4,))).values[0] / 5e-4
        assert abs(2.0 * v2 - v1 - p.lam) <= 5e-6 * p.lam


def test_continuity_at_zero():
    p = QueueParams(1.0, 2.0, 1)
    assert abs(transition_spectral(p, TransitionQuery(2, 2, (1e-5,))).values[0] - 1.0) <= 1e-4
    assert abs(transition_spectral(p, TransitionQuery(2, 3, (1e-5,))).values[0]) <= 1e-4


def test_backward_equations_stencil():
    # five-point derivative of P_{i,j} in t against the generator rows
    p = QueueParams(1.0, 1.0, 2)
    h, t0, j = 1e-3, 1.0, 2
    for i in (1, 3):
        need = (i + 2, i + 1, i, i - 1, i - 2) if i >= p.m else (i + 1, i)
        grid = {}
        for k in {i, i + 1, i - p.m}:
            if k < 0:
                continue
            vals = transition_spectral(
                p, TransitionQuery(k, j, tuple(t0 + s * h for s in (-2, -1, 0, 1, 2)))
            ).values
            grid[k] = vals
        d = (grid[i][0] - 8 * grid[i][1] + 8 * grid[i][3] - grid[i][4]) / (12 * h)
        if i < p.m:
            rhs = -p.lam * grid[i][2] + p.lam * grid[i + 1][2]
        else:
            rhs = (
                p.mu * grid[i - p.m][2]
                - (p.lam + p.mu) * grid[i][2]
                + p.lam * grid[i + 1][2]
            )
        assert abs(d - rhs) <= 1e-4


DOMAIN_STATES = range(0, STATE_CAP + 1, 8)
DOMAIN_TIMES = (1e-8, 0.05, 1.0, 10.0, 100.0)


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5])
def test_domain_matches_uniformization(m, rho):
    # the advertised domain: states up to the cap, times from 1e-8 to 100,
    # load on both sides of criticality
    p = QueueParams(1.0, 1.0 / (m * rho), m)
    mats = [uniformization_rows(p, t) for t in DOMAIN_TIMES]
    for n in DOMAIN_STATES:
        for r in DOMAIN_STATES:
            got = transition_spectral(p, TransitionQuery(n, r, DOMAIN_TIMES)).values
            for t, v, mat in zip(DOMAIN_TIMES, got, mats):
                assert abs(v - mat[n, r]) <= SPECTRAL_VS_EXPM, (n, r, t)


def test_cold_query_builds_the_singular_set_once(monkeypatch):
    # the guard's poles and arm samples do not depend on t: one batched pole
    # solve serves every time of a cold query, and no per-point branch solve runs
    calls = []
    real = spectral._pole_sites

    def counted(*args):
        calls.append(args)
        return real(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the guard solved the branch equation per point")

    monkeypatch.setattr(spectral, "_pole_sites", counted)
    monkeypatch.setattr(np, "roots", refuse)
    p = QueueParams(0.7318, 0.4591, 3)  # used by no other test, so every cache is cold
    res = transition_spectral(p, TransitionQuery(2, 1, (0.5, 3.0, 20.0)))
    assert len(res.values) == 3
    assert len(calls) == 1


def test_small_index_query_at_m6():
    # once raised QuadratureNotConverged at small indices and t <= 5
    p = QueueParams(0.4194807697969937, 0.09708687480463145, 6)
    times = (1.3970128931732142, 3.0654764524555786, 4.181671483021265)
    got = transition_spectral(p, TransitionQuery(3, 5, times)).values
    for t, v in zip(times, got):
        assert abs(v - uniformization_rows(p, t)[3, 5]) <= SPECTRAL_VS_EXPM


def test_pole_outside_contour_raises():
    # at m = 12 and t = 50 a rotating-mode pole and arm points of weight ~1e-3
    # lie outside the Talbot contour; ignoring them misses P_00 by 1.5e-6
    p = QueueParams(1.0, 1.0 / 12, 12)
    with pytest.raises(QuadratureNotConverged, match="outside the Talbot contour"):
        transition_spectral(p, TransitionQuery(0, 0, (50.0,)))


def test_time_below_contour_floor_is_identity():
    # below 1e-290 the contour overflows; P(t) = I within (lam + mu) t
    p = QueueParams(1.0, 2.0, 1)
    for n, r, want in [(0, 0, 1.0), (3, 3, 1.0), (1, 0, 0.0), (2, 5, 0.0)]:
        res = transition_spectral(p, TransitionQuery(n, r, (0.0, 1e-300, 1e-295)))
        assert res.values == (want, want, want)
        assert res.error_estimate == pytest.approx((0.0, 3e-300, 3e-295), rel=1e-15, abs=0.0)


def test_time_below_contour_floor_raises_beyond_tolerance():
    # (lam + mu) t = 2e-6 > TRANS_TOL: no answer from P(0) = I
    p = QueueParams(1e285, 1e285, 1)
    with pytest.raises(QuadratureNotConverged, match="t=1e-291 is below 1e-290, where the contour overflows"):
        transition_spectral(p, TransitionQuery(0, 0, (1e-291,)))
    # at 1e-295 the bound is 2e-10, within TRANS_TOL
    assert transition_spectral(p, TransitionQuery(0, 0, (1e-295,))).error_estimate == (2e-10,)


def test_long_time_limit():
    # README's limit: at t = 1e5 the entry is the stationary (1 - rho) rho^3 of
    # M/M/1 at rho = 1/2; by t = 3e5 rounding in the banded solve near the
    # steady-state pole at 0 splits the two rules, and the engine refuses
    p = QueueParams(1.0, 2.0, 1)
    got = transition_spectral(p, TransitionQuery(5, 3, (1e5,))).values[0]
    assert abs(got - 0.0625) <= 1e-6
    with pytest.raises(QuadratureNotConverged):
        transition_spectral(p, TransitionQuery(5, 3, (3e5,)))


def test_nonnegativity_small_grid():
    p = QueueParams(1.0, 1.0, 2)
    for n in range(6):
        for r in range(6):
            res = transition_spectral(p, TransitionQuery(n, r, (0.3, 2.0)))
            assert all(v >= -1e-7 for v in res.values)


# ----------------------------------------------------------- row functionals


def test_honesty_identity_at_zero():
    assert honesty_check(QueueParams(1.0, 1.0, 1), 0, 0.0, 5) == 1.0


def test_honesty_examples():
    assert abs(honesty_check(QueueParams(1.0, 1.0, 1), 0, 1.0, 40) - 1.0) <= 1e-7
    assert abs(honesty_check(QueueParams(2.0, 1.0, 2), 3, 2.0, 80) - 1.0) <= 1e-6


@pytest.mark.parametrize(
    "n, t, R",
    [
        (0.5, 1.0, 40),
        (-1, 1.0, 40),
        (0, math.nan, 40),
        (0, -0.1, 40),
        (0, 1.0, 40.5),
        (0, 1.0, -1),
        (0, 1.0, math.nan),
        (0, 1.0, math.inf),
    ],
)
def test_honesty_rejects_bad_arguments(n, t, R):
    with pytest.raises(ValueError):
        honesty_check(QueueParams(1.0, 1.0, 1), n, t, R)


def test_honesty_tail_guard():
    with pytest.raises(TailNotControlled):
        honesty_check(QueueParams(1.0, 1.0, 1), 0, 5.0, 8)
    with pytest.raises(TailNotControlled):
        honesty_check(QueueParams(1.0, 1.0, 1), 10, 1.0, 9)  # R below start state


def test_semigroup_identity_at_zero():
    assert semigroup_check(QueueParams(1.0, 1.0, 2), 1, 2, 0.0, 0.8, 40) <= 1e-12


def test_semigroup_examples():
    assert semigroup_check(QueueParams(1.0, 1.0, 1), 0, 1, 0.5, 0.5, 60) <= 1e-7
    assert semigroup_check(QueueParams(1.0, 2.0, 3), 2, 5, 0.3, 0.7, 100) <= 1e-6


_SEMIGROUP_BAD = [
    (0.5, 0, 0.3, 0.3, 40),
    (-1, 0, 0.3, 0.3, 40),
    (0, 2.5, 0.3, 0.3, 40),
    (0, -1, 0.3, 0.3, 40),
    (0, 0, math.nan, 0.3, 40),
    (0, 0, -0.1, 0.3, 40),
    (0, 0, 0.3, math.inf, 40),
    (0, 0, 0.3, -0.1, 40),
    (0, 0, 0.3, 0.3, 40.5),
    (0, 0, 0.3, 0.3, -1),
    (0, 0, 0.3, 0.3, math.nan),
    (0, 0, 0.3, 0.3, math.inf),
]


@pytest.mark.parametrize(
    "n, r, s, t, K",
    _SEMIGROUP_BAD,
    # the cutoff K enters a case's id only when it is the bad argument
    ids=["-".join(map(str, case if case[4] != 40 else case[:4])) for case in _SEMIGROUP_BAD],
)
def test_semigroup_rejects_bad_arguments(n, r, s, t, K):
    with pytest.raises(ValueError):
        semigroup_check(QueueParams(1.0, 1.0, 1), n, r, s, t, K)


def test_semigroup_tail_guard():
    with pytest.raises(TailNotControlled):
        semigroup_check(QueueParams(1.0, 1.0, 1), 0, 0, 5.0, 1.0, 8)


# -------------------------------------------------------------------- decay


def test_decay_rate_closed_forms():
    assert decay_rate(QueueParams(1.0, 1.0, 1)) == 0.0
    np.testing.assert_allclose(
        decay_rate(QueueParams(1.0, 2.0, 1)), -3.0 + 2.0 * math.sqrt(2.0), rtol=1e-14
    )
    np.testing.assert_allclose(
        decay_rate(QueueParams(1.0, 1.0, 2)), -2.0 + 3.0 * 0.25 ** (1.0 / 3.0), rtol=1e-14
    )


def test_decay_rate_never_positive():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        lam, mu = rng.uniform(0.05, 4.0, size=2)
        assert decay_rate(QueueParams(lam, mu, m)) <= 0.0


def test_fitted_decay_rate_matches_tip():
    for lam, mu, m in [(0.5, 1.5, 1), (0.6, 1.0, 2)]:
        p = QueueParams(lam, mu, m)
        tip = decay_rate(p)
        assert abs(fitted_decay_rate(p) - tip) <= 0.15 * abs(tip)


def test_decay_envelope_on_window():
    # log of the transient part minus rate*t should not creep upward
    p = QueueParams(0.5, 1.5, 1)
    rate = decay_rate(p)
    ts = np.linspace(5.0, 30.0, 11)
    vals = np.asarray(transition_spectral(p, TransitionQuery(0, 0, tuple(ts))).values)
    for z, _, res in resolvent_poles(p):
        vals = vals - (res[0] * np.exp((z - p.lam - p.mu) * ts)).real
    assert np.all(vals > 0)
    phi = np.log(vals) - rate * ts
    assert np.max(phi) <= phi[0] + 0.1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
