import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.special import gammainc

from bulkq import (
    McConfig, TransitionQuery, cross_validate, expm_uniformization, honesty_check,
    picard_solve, semigroup_check, sigma_apply, transition_spectral,
)
from bulkq.algebraic import AlgebraicConfig
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


# ------------------------------------------------------- argument contract
# Every entry point that takes a state, a time or a rate refuses a bad one
# with a ValueError whose message starts with the argument's label, and
# every accepted spelling of a value gives the same result.

P = QueueParams(1.0, 1.0, 1)
BAD_STATES = ["3", None, True, -1, 2.5, math.nan, math.inf]
BAD_TIMES = ["1", None, True, -1.0, math.nan, math.inf]
STATE_SPELLINGS = [3, 3.0, np.int64(3), np.float64(3.0)]
TIME_SPELLINGS = [1, 1.0, np.float64(1.0)]


def _query(q):
    return q, type(q.n), type(q.r), [type(t) for t in q.times]


def _mc(cfg):
    return cfg, type(cfg.start), type(cfg.horizon)


#: (label in the message, call with the one varied argument, comparable result)
STATE_ENTRIES = {
    "query n": ("n", lambda k: _query(TransitionQuery(k, 0, (1.0,)))),
    "query r": ("r", lambda k: _query(TransitionQuery(0, k, (1.0,)))),
    "mc start": ("start", lambda k: _mc(McConfig(10, 1, k, 1.0))),
    "honesty n": ("n", lambda k: honesty_check(P, k, 1.0, 40)),
    "honesty R": ("R", lambda k: honesty_check(P, 0, 1e-3, k)),
    "semigroup n": ("n", lambda k: semigroup_check(P, k, 0, 0.5, 0.5, 40)),
    "semigroup r": ("r", lambda k: semigroup_check(P, 0, k, 0.5, 0.5, 40)),
    "semigroup K": ("K", lambda k: semigroup_check(P, 0, 0, 1e-3, 0.5, k)),
    "grid n": ("grid point", lambda k: cross_validate(P, [(k, 0, 1.0)]).rows),
    "grid r": ("grid point", lambda k: cross_validate(P, [(0, k, 1.0)]).rows),
}
TIME_ENTRIES = {
    "query times": ("times", lambda t: _query(TransitionQuery(0, 0, (t,)))),
    "mc horizon": ("horizon", lambda t: _mc(McConfig(10, 1, 0, t))),
    "honesty t": ("t", lambda t: honesty_check(P, 0, t, 40)),
    "semigroup s": ("s", lambda t: semigroup_check(P, 0, 0, t, 0.5, 40)),
    "semigroup t": ("t", lambda t: semigroup_check(P, 0, 0, 0.5, t, 40)),
    "expm t": ("t", lambda t: expm_uniformization(P, 64, t, rows=4).tobytes()),
    "picard t": ("t", lambda t: picard_solve(P, 0, 64, t, 40).y.tobytes()),
    "grid t": ("grid point", lambda t: cross_validate(P, [(0, 0, t)]).rows),
}
RATE_ENTRIES = {
    "lam": ("arrival rate", lambda v: build_generator(QueueParams(v, 1.0, 1), 8).tobytes()),
    "mu": ("service rate", lambda v: build_generator(QueueParams(1.0, v, 1), 8).tobytes()),
}
#: a malformed sequence of times or grid, and a bad branch constant c
MALFORMED = {
    "scalar times": ("times must be a sequence", lambda: TransitionQuery(0, 0, 1.0)),
    "string times": ("times must be a sequence", lambda: TransitionQuery(0, 0, "12")),
    "grid pair": (
        r"grid point \(n, r, t\) = \(0, 0\)", lambda: cross_validate(P, [(0, 0, 1.0), (0, 0)])
    ),
    "scalar grid": ("grid must be", lambda: cross_validate(P, 5)),
    **{f"c={v!r}": ("c", lambda v=v: AlgebraicConfig(c=v, m=1)) for v in BAD_TIMES + [0, 0.0]},
}


@pytest.mark.parametrize("bad", BAD_STATES, ids=repr)
@pytest.mark.parametrize("entry", STATE_ENTRIES)
def test_every_entry_point_refuses_a_bad_state_by_name(entry, bad):
    label, call = STATE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{label}"):
        call(bad)


@pytest.mark.parametrize("bad", BAD_TIMES, ids=repr)
@pytest.mark.parametrize("entry", TIME_ENTRIES)
def test_every_entry_point_refuses_a_bad_time_by_name(entry, bad):
    label, call = TIME_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{label}"):
        call(bad)


@pytest.mark.parametrize("bad", BAD_TIMES + [0, 0.0], ids=repr)
@pytest.mark.parametrize("entry", RATE_ENTRIES)
def test_validate_params_refuses_a_bad_rate_by_name(entry, bad):
    label, call = RATE_ENTRIES[entry]
    with pytest.raises(NonPositiveRate, match=f"^{label}"):
        call(bad)


@pytest.mark.parametrize("entry", MALFORMED)
def test_malformed_arguments_are_refused_by_name(entry):
    label, call = MALFORMED[entry]
    with pytest.raises(ValueError, match=f"^{label}"):
        call()


@pytest.mark.parametrize(
    "entries, spellings",
    [(STATE_ENTRIES, STATE_SPELLINGS), (TIME_ENTRIES, TIME_SPELLINGS), (RATE_ENTRIES, TIME_SPELLINGS)],
    ids=["states", "times", "rates"],
)
def test_accepted_spellings_give_identical_results(entries, spellings):
    for entry, (_, call) in entries.items():
        first, *rest = [call(v) for v in spellings]
        assert all(other == first for other in rest), entry
