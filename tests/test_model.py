import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.special import gammainc

from bulkq import TransitionQuery, cross_validate, sigma_apply, transition_spectral
from bulkq.errors import NonPositiveRate, TruncationTooSmall, ZeroBatchSize
from bulkq.model import (
    QueueParams, build_generator, poisson_quantile, poisson_tail, validate_params,
)
from bulkq.spectral import resolvent_poles


def test_queue_params_hash_equality_and_pickling():
    p = QueueParams(1.2, 0.8, 3)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q is not p and hash(q) == hash(p)
    assert p != QueueParams(1.2, 0.8, 2)
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.lam = 2.0
    # an equal copy is the same cache key
    resolvent_poles(p)
    hits = resolvent_poles.cache_info().hits
    assert resolvent_poles(q) is resolvent_poles(p)
    assert resolvent_poles.cache_info().hits == hits + 2


def test_validate_smallest_legal_model():
    validate_params(QueueParams(1.0, 1.0, 1))


@pytest.mark.parametrize("lam,mu", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, float("nan"))])
def test_validate_rejects_bad_rates(lam, mu):
    with pytest.raises(NonPositiveRate):
        validate_params(QueueParams(lam, mu, 2))


def test_validate_rejects_zero_batch():
    # a batch size is an integer >= 1: a float equal to one, or a bool, is
    # refused by every entry point, not taken as a size or a numpy mask
    for m in (0, 2.0, 2.5, True):
        p = QueueParams(1.0, 2.0, m)
        calls = [
            lambda: validate_params(p),
            lambda: build_generator(p, 8),
            lambda: sigma_apply(p, 0, lambda x: x),
            lambda: transition_spectral(p, TransitionQuery(0, 1, (1.0,))),
            lambda: cross_validate(p, [(0, 1, 1.0)]),
        ]
        for call in calls:
            with pytest.raises(ZeroBatchSize, match="batch size must be an integer >= 1"):
                call()


def test_generator_rows_m2():
    g = build_generator(QueueParams(1.0, 1.0, 2), 5)
    np.testing.assert_array_equal(g[0], [-1.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(g[2], [1.0, 0.0, -2.0, 1.0, 0.0])


def test_generator_band_structure():
    p = QueueParams(1.7, 0.4, 3)
    a = build_generator(p, 12)
    for i in range(12):
        for j in range(12):
            if j == i + 1:
                assert a[i, j] == p.lam
            elif j == i and i < p.m:
                assert a[i, j] == -p.lam
            elif j == i and i >= p.m:
                assert a[i, j] == -(p.lam + p.mu)
            elif j == i - p.m:
                assert a[i, j] == p.mu
            else:
                assert a[i, j] == 0.0


def test_interior_row_sums_exact_zero():
    # with dyadic rates every entry and every partial sum is representable,
    # so the row cancellation lam + mu - (lam + mu) comes out exactly 0
    g = build_generator(QueueParams(1.25, 2.25, 2), 30)
    sums = g.sum(axis=1)
    assert np.all(sums[:-1] == 0.0)
    assert sums[-1] < 0.0  # truncation leak


def test_interior_row_sums_tiny_for_generic_rates():
    g = build_generator(QueueParams(1.3, 2.2, 2), 30)
    sums = g.sum(axis=1)
    assert np.max(np.abs(sums[:-1])) < 1e-15 * (1.3 + 2.2)
    assert sums[-1] < 0.0


def test_truncation_too_small():
    with pytest.raises(TruncationTooSmall):
        build_generator(QueueParams(1.0, 1.0, 3), 4)


def test_generator_is_immutable():
    g = build_generator(QueueParams(1.0, 1.0, 1), 5)
    with pytest.raises(ValueError):
        g[0, 0] = 99.0


def test_critical_flag():
    assert QueueParams(2.0, 1.0, 2).is_critical
    assert not QueueParams(1.0, 1.0, 2).is_critical


@pytest.mark.parametrize("a", [0.0, 1e-12, 0.3, 2.0, 10.0, 60.0, 600.0, 6000.0, 3e5])
def test_poisson_tail_matches_the_incomplete_gamma(a):
    # P[Pois(a) > k] = P(k + 1, a), the regularized lower incomplete gamma
    assert poisson_tail(-1, a) == 1.0 and poisson_tail(-7, a) == 1.0
    sd = max(1.0, math.sqrt(a))
    ks = {0, 1, 2, int(a), int(a) + 1}
    ks |= {int(a + z * sd) for z in (-30, -8, -3, -1, 1, 3, 8, 20, 35) if a + z * sd >= 0}
    for k in sorted(ks):
        want = float(gammainc(k + 1, a))
        assert abs(poisson_tail(k, a) - want) <= 1e-7 * want, (k, a)


def _scipy_quantile(a, level):
    k = max(0, int(a))
    while gammainc(k + 1, a) >= level:
        k += 1
    return k


@pytest.mark.parametrize("level", [1e-9, 1e-10, 1e-12])
def test_poisson_quantile_matches_the_incomplete_gamma_loop(level):
    for a in (0.0, 1e-6, 0.3, 2.0, 10.0, 37.7, 60.0, 600.0, 6000.0, 3e5):
        assert poisson_quantile(a, level) == _scipy_quantile(a, level), a
