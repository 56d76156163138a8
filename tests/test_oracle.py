"""Tests for the ground-truth engines and their cross-validation."""

import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse, special
from scipy.linalg import expm as dense_expm

import bulkq
from bulkq import oracle
from bulkq.errors import IterationBudgetExceeded, TruncationTooSmall
from bulkq.model import QueueParams, build_generator, generator_bands
from bulkq.oracle import (
    PICARD_VS_EXPM,
    McConfig,
    _lockstep,
    _mc_result,
    _picard_chain,
    cross_validate,
    expm_uniformization,
    picard_solve,
    simulate_mc,
    truncation_size,
)

DENSE_TOL = 5e-10
PARAM_SETS = [
    QueueParams(lam=1.0, mu=2.0, m=1),
    QueueParams(lam=1.0, mu=1.0, m=2),
    QueueParams(lam=1.2, mu=0.8, m=3),
]


@pytest.mark.parametrize(
    "lam, m, t, states, want",
    [
        (1.0, 1, 0.0, 0, 64),
        (1.0, 2, 2.0, 20, 64),
        (1.0, 1, 15.0, 32, 64),  # both floors exactly 64
        (1.0, 1, 15.25, 0, 128),  # 4 (m + lam t) = 65
        (1.0, 1, 0.0, 33, 128),  # 2 states = 66
        (1.2, 3, 30.0, 18, 256),
        (0.5, 6, 100.0, 130, 512),
        (1.0, 1, 1000.0, 0, 4096),
    ],
)
def test_truncation_size_is_the_doubling_rule(lam, m, t, states, want):
    # the smallest power of two from 64 up with N >= 4 (m + lam t) and N >= 2 states
    assert truncation_size(QueueParams(lam=lam, mu=1.0, m=m), t, states) == want


def test_expm_zero_time_is_identity():
    p = QueueParams(lam=1.0, mu=1.0, m=2)
    out = expm_uniformization(p, 40, 0.0, rows=40)
    assert np.array_equal(out, np.eye(40))


def test_expm_matches_dense_expm():
    for p in PARAM_SETS:
        for t in (0.3, 1.0, 2.5):
            got = expm_uniformization(p, 128, t)
            ref = dense_expm(build_generator(p, 128) * t)
            np.testing.assert_allclose(got[:30, :30], ref[:30, :30], atol=DENSE_TOL)


def test_expm_row_sums_near_one():
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    out = expm_uniformization(p, 200, 1.0)
    np.testing.assert_allclose(out[:41].sum(axis=1), np.ones(41), atol=1e-9)


def test_expm_short_time_arrival_derivative():
    # P_{i,i+1}(h) = lam*h + O(h^2) regardless of the band structure
    p = QueueParams(lam=1.3, mu=0.9, m=2)
    h = 1e-4
    out = expm_uniformization(p, 40, h)
    for i in (0, 2, 4):
        assert abs(out[i, i + 1] / h - p.lam) < 1e-3 * p.lam


def test_expm_rejects_bad_inputs():
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    with pytest.raises(ValueError):
        expm_uniformization(p, 100, -1.0)
    with pytest.raises(TruncationTooSmall):
        expm_uniformization(p, 8, 10.0)


def test_expm_returns_only_the_requested_rows():
    p = QueueParams(lam=1.2, mu=0.8, m=3)
    assert expm_uniformization(p, 64, 1.0, rows=5).shape == (5, 64)
    assert expm_uniformization(p, 64, 1.0).shape == (16, 64)  # N // 4 by default
    assert expm_uniformization(p, 64, 0.0, rows=3).shape == (3, 64)


@pytest.mark.parametrize(
    "kwargs, label",
    [
        ({"N": 64, "rows": 0}, "rows"),
        ({"N": 64, "rows": -3}, "rows"),
        ({"N": 64, "rows": 2.5}, "rows"),
        ({"N": 64, "rows": 4.0}, "rows"),
        ({"N": 65.5}, "N"),
        ({"N": 0}, "N"),
    ],
)
def test_expm_rejects_bad_integer_arguments(kwargs, label):
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    with pytest.raises(ValueError, match=f"^{label} must be an integer >= 1"):
        expm_uniformization(p, t=1.0, **kwargs)


def test_expm_partial_sums_entrywise_monotone():
    # every term of the Poisson mixture is a nonnegative matrix, so the
    # partial sums can only grow
    p = QueueParams(lam=1.2, mu=0.8, m=3)
    N, t = 40, 1.5
    q = p.lam + p.mu
    s_mat = np.eye(N) + build_generator(p, N) / q
    assert s_mat.min() >= 0.0
    a = q * t
    ks = np.arange(25)
    w = np.exp(-a + ks * math.log(a) - special.gammaln(ks + 1))
    term = np.eye(N)
    acc = w[0] * term
    for wk in w[1:]:
        term = term @ s_mat
        nxt = acc + wk * term
        assert np.all(nxt >= acc)
        acc = nxt


def test_expm_auto_doubles_truncation():
    # checking all 48 rows at t=10 forces a leak failure and a retry at 96
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    out = expm_uniformization(p, 48, 10.0, rows=48)
    assert out.shape == (48, 96)
    np.testing.assert_allclose(out[:48].sum(axis=1), np.ones(48), atol=1e-8)


def test_expm_leak_failure_at_cap(monkeypatch):
    monkeypatch.setattr("bulkq.oracle.N_CAP", 128)
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    with pytest.raises(TruncationTooSmall):
        expm_uniformization(p, 96, 10.0, rows=96)


def test_picard_zero_iterations_returns_indicator():
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    state = picard_solve(p, 3, 50, 1.0, 0)
    expect = np.zeros(50)
    expect[3] = 1.0
    assert np.array_equal(state.y, expect)
    assert state.increment_sup == () and state.bound == ()


def test_picard_matches_uniformization():
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    row = picard_solve(p, 0, 200, 1.0, 60).y
    ref = expm_uniformization(p, 200, 1.0)[0]
    assert np.max(np.abs(row - ref)) < 1e-8


def test_picard_increment_bounds_hold():
    for p in PARAM_SETS:
        for t in (0.5, 2.0):
            state = picard_solve(p, 2, 80, t, 50)
            assert len(state.increment_sup) == 50
            for sup, bound in zip(state.increment_sup, state.bound):
                assert sup <= bound


def test_picard_tail_certificate():
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    with pytest.raises(IterationBudgetExceeded):
        picard_solve(p, 0, 100, 1.0, 5, tol=1e-8)
    # a generous budget satisfies the same certificate
    state = picard_solve(p, 0, 100, 1.0, 60, tol=1e-8)
    assert state.iterations == 60


def test_picard_block_columns_match_single_column():
    p = QueueParams(lam=1.2, mu=0.8, m=3)
    t, starts = 30.0, list(range(9))
    ref = expm_uniformization(p, 256, t, rows=len(starts))
    N = ref.shape[1]
    gen_t = oracle._BandedT(p.m, generator_bands(p), N)
    block = _picard_chain(p, gen_t, starts, t)
    assert block.shape == (N, len(starts))
    for j, n in enumerate(starts):
        assert np.array_equal(block[:, j], _picard_chain(p, gen_t, [n], t)[:, 0])
    assert np.max(np.abs(block.T - ref[starts])) <= PICARD_VS_EXPM


@pytest.mark.parametrize("p", PARAM_SETS + [QueueParams(lam=0.5, mu=2.0, m=1)])
@pytest.mark.parametrize("N", [64, 256, 1024])
def test_banded_product_matches_csr_bit_for_bit(p, N):
    # the generator A and the uniformized S = I + A/q, on one column and on
    # nine, against the CSR products the oracles used before
    gen = build_generator(p, N)
    q = p.lam + p.mu
    gamma, iota, eta, xi = bands = generator_bands(p)
    s_bands = (-(1.0 - gamma / q), iota / q, eta / q, -(1.0 - xi / q))
    rng = np.random.default_rng(N)
    for a, a_bands in ((gen, bands), (np.eye(N) + gen / q, s_bands)):
        banded, csr = oracle._BandedT(p.m, a_bands, N), sparse.csr_matrix(a.T)
        blocks = (rng.standard_normal(N), rng.random((N, 9)), np.asfortranarray(rng.random((N, 9))))
        for g in blocks:
            got, want = banded(g), csr @ g
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_picard_rejects_bad_inputs():
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    with pytest.raises(ValueError):
        picard_solve(p, 50, 50, 1.0, 10)
    with pytest.raises(ValueError):
        picard_solve(p, 0, 50, 1.0, -1)
    with pytest.raises(ValueError):
        picard_solve(p, 0, 50, -2.0, 10)
    # the banded product needs one complete interior row
    with pytest.raises(TruncationTooSmall, match=r"^need N >= m \+ 2 = 5, got 4$"):
        picard_solve(QueueParams(1, 1, 3), 0, 4, 0.5, 3)


def test_oracles_hold_no_dense_section():
    # at the cap N = 4096 a dense generator alone is 128 MiB; the banded
    # products keep a 9-row uniformization and a Picard row to a few MiB
    paths = [str(Path(bulkq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import resource, sys\n"
        "from bulkq import QueueParams, expm_uniformization, picard_solve\n"
        "p = QueueParams(1.0, 1.0, 1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "expm_uniformization(p, 4096, 1.0, rows=9)\n"
        "picard_solve(p, 0, 4096, 1.0, 40, tol=1e-8)\n"
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(rise / 2**20 if sys.platform == 'darwin' else rise / 2**10)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert float(out.stdout) < 50.0  # MiB


@pytest.mark.parametrize(
    "n, N, K, label",
    [
        (0, 50, 2.5, "K"),
        (0, 50.0, 10, "N"),
        (0, 0, 10, "N"),
        (1.0, 50, 10, "n"),
        (-1, 50, 10, "n"),
    ],
)
def test_picard_rejects_bad_integer_arguments(n, N, K, label):
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    with pytest.raises(ValueError, match=f"^{label} must be an integer >= "):
        picard_solve(p, n, N, 1.0, K)


def test_mc_zero_horizon_is_point_mass():
    p = QueueParams(lam=1.0, mu=1.0, m=2)
    res = simulate_mc(p, McConfig(replications=500, seed=1, start=4, horizon=0.0))
    assert res.freq[4] == 1.0 and res.freq.sum() == 1.0
    assert np.all(res.stderr == 0.0)


def test_mc_reproducible_given_seed():
    p = QueueParams(lam=1.0, mu=2.0, m=1)
    cfg = McConfig(replications=5000, seed=42, start=0, horizon=1.5)
    a = simulate_mc(p, cfg)
    b = simulate_mc(p, cfg)
    assert np.array_equal(a.freq, b.freq)
    assert np.array_equal(a.stderr, b.stderr)


@pytest.mark.parametrize(
    "p, start, t",
    [
        (QueueParams(lam=1.0, mu=1.0, m=1), 0, 1.0),
        (QueueParams(lam=1.0, mu=2.0, m=3), 5, 2.0),
    ],
)
def test_mc_three_sigma_against_uniformization(p, start, t):
    reps = 100_000
    res = simulate_mc(p, McConfig(replications=reps, seed=11, start=start, horizon=t))
    ref = expm_uniformization(p, 64, t)[start]
    for r in range(len(res.freq)):
        expect = ref[r] if r < 64 else 0.0
        if expect * reps < 10.0:
            continue  # too little mass for the binomial error bar to mean much
        assert abs(res.freq[r] - expect) <= 3.0 * res.stderr[r]


def test_mc_coverage_across_seeds():
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    reps, t = 20_000, 1.0
    ref = expm_uniformization(p, 64, t)[0]
    cells = [r for r in range(20) if ref[r] * reps >= 10.0]
    hits = {r: 0 for r in cells}
    for seed in range(20):
        res = simulate_mc(p, McConfig(replications=reps, seed=seed, start=0, horizon=t))
        for r in cells:
            sim = res.freq[r] if r < len(res.freq) else 0.0
            se = res.stderr[r] if r < len(res.freq) else 0.0
            hits[r] += abs(sim - ref[r]) <= 3.0 * se
    # 3-sigma coverage ~0.997, so 17/20 per cell is a loose floor
    assert all(count >= 17 for count in hits.values())


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(replications=0, seed=1, start=0, horizon=1.0)
    with pytest.raises(ValueError):
        McConfig(replications=10, seed=1, start=-1, horizon=1.0)
    with pytest.raises(ValueError):
        McConfig(replications=10, seed=1, start=0, horizon=-1.0)
    with pytest.raises(ValueError, match="replications"):
        McConfig(replications=2.5, seed=1, start=0, horizon=1.0)
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="seed"):
            McConfig(replications=10, seed=seed, start=0, horizon=1.0)
    for start in (2.5, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="start"):
            McConfig(replications=10, seed=1, start=start, horizon=1.0)
    cfg = McConfig(replications=10, seed=1, start=2.0, horizon=1.0)
    assert cfg.start == 2 and type(cfg.start) is int
    res = simulate_mc(QueueParams(lam=1.0, mu=1.0, m=2), cfg)
    assert res.freq.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("start", [65, 2**31])
def test_mc_config_refuses_a_start_past_the_cap(start):
    with pytest.raises(ValueError, match=f"^start must be <= 64, got {start}$"):
        McConfig(replications=10, seed=1, start=start, horizon=1.0)


def test_mc_config_refuses_a_bool_start():
    with pytest.raises(ValueError, match="start state must be an integer >= 0, got True"):
        McConfig(replications=10, seed=1, start=True, horizon=1.0)
    assert McConfig(replications=10, seed=1, start=64.0, horizon=1.0).start == 64


def test_lockstep_zero_horizon_is_point_mass():
    p = QueueParams(lam=1.0, mu=1.0, m=2)
    counts = _lockstep(p, 4, (0.0, 1.0), 500, 1)
    assert counts[0, 4] == 500 and counts[0].sum() == 500
    assert counts[1].sum() == 500


def test_lockstep_reproducible_given_seed():
    p = QueueParams(lam=1.2, mu=0.8, m=3)
    args = (p, 2, (0.5, 4.0, 10.0), 5000)
    a = _lockstep(*args, 42)
    assert np.array_equal(a, _lockstep(*args, 42))
    assert not np.array_equal(a, _lockstep(*args, 43))


def test_lockstep_three_horizons_against_uniformization():
    p = QueueParams(lam=1.0, mu=2.0, m=3)
    start, horizons, reps = 5, (0.5, 2.0, 6.0), 100_000
    counts = _lockstep(p, start, horizons, reps, 11)
    for row, t in zip(counts, horizons):
        res = _mc_result(row, reps)
        ref = expm_uniformization(p, 64, t)[start]
        for r in range(len(res.freq)):
            expect = ref[r] if r < 64 else 0.0
            if expect * reps < 10.0:
                continue  # too little mass for the binomial error bar to mean much
            assert abs(res.freq[r] - expect) <= 3.0 * res.stderr[r]


@pytest.mark.parametrize("reps", [1, 7, 20_000])
@pytest.mark.parametrize("start", [1, 5])  # below and above m
def test_lockstep_every_horizon_counts_every_replication(reps, start):
    p = QueueParams(lam=1.2, mu=0.8, m=3)
    horizons = (0.0, 0.5, 40.0)
    counts = _lockstep(p, start, horizons, reps, 3)
    assert counts.dtype == np.int64 and counts.min() >= 0
    assert counts.shape[0] == len(horizons)
    assert counts.shape[1] >= start + 1
    assert np.array_equal(counts.sum(axis=1), np.full(len(horizons), reps))
    assert counts[0, start] == reps  # nothing happens by time 0
    if reps == 20_000:
        # by t = 40 some run has climbed well past its start
        assert counts.shape[1] > start + 1
        assert counts[2, start + 1 :].sum() > 0


def test_lockstep_below_m_is_poisson_arrivals():
    # from 0 with m = 12 nothing leaves before state 12 is reached, so the
    # state at h is Poisson(lam h) on k < 12 up to P(Pois(lam h) >= 12) <= 1.4e-6;
    # this law does not go through uniformization, and mishandled self-loops
    # (mu/(lam + mu) of the events below m) would break it
    p = QueueParams(lam=1.0, mu=3.0, m=12)
    horizons, reps, seeds = (0.5, 2.0), 100_000, range(10)
    counts = np.zeros((len(horizons), 12), dtype=np.int64)
    for seed in seeds:
        c = _lockstep(p, 0, horizons, reps, seed)[:, :12]
        counts[:, : c.shape[1]] += c
    total = reps * len(seeds)
    for row, h in zip(counts, horizons):
        k = np.arange(12)
        pmf = np.exp(-p.lam * h + k * math.log(p.lam * h) - special.gammaln(k + 1))
        for obs, prob in zip(row, pmf):
            if prob * total < 10.0:
                continue
            sigma = math.sqrt(total * prob * (1.0 - prob))
            assert abs(obs - total * prob) <= 3.0 * sigma


def _state_loop(p, start, horizons, reps, seed):
    """The one-start kernel the level walk replaced: it steps the state itself."""
    hs = np.asarray(horizons, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    q = p.lam + p.mu
    events = np.cumsum(rng.poisson(q * np.diff(hs, prepend=0.0), size=(reps, hs.size)), axis=1)
    events = events.astype(np.min_scalar_type(events[:, -1].max()))
    total = events[:, -1]
    events = events[np.argsort(total.max() - total, kind="stable")]
    flat = events.ravel()
    pairs = np.argsort(flat, kind="stable")
    pair_rep = pairs // hs.size
    edges = np.concatenate(([0], np.cumsum(np.bincount(flat)))).tolist()
    live = (reps - np.cumsum(np.bincount(events[:, -1]))).tolist()
    state = np.full(reps, start, dtype=np.int32)
    seen = np.empty(pairs.size, dtype=state.dtype)
    u = np.empty(reps)
    for k, n_live in enumerate(live):
        seen[edges[k]:edges[k + 1]] = state[pair_rep[edges[k]:edges[k + 1]]]
        if n_live == 0:
            break
        s = state[:n_live]
        arrive = rng.random(out=u[:n_live]) < p.lam / q
        depart = (s >= p.m) > arrive
        s += arrive
        s -= depart.astype(s.dtype) * p.m
    S = max(start, int(seen.max())) + 1
    counts = np.bincount((pairs % hs.size) * S + seen, minlength=hs.size * S)
    return counts.reshape(hs.size, S)


@pytest.mark.parametrize(
    "p",
    [
        QueueParams(lam=1.0, mu=2.0, m=1),
        QueueParams(lam=1.0, mu=1.0, m=2),
        QueueParams(lam=1.2, mu=0.8, m=3),
        QueueParams(lam=2.0, mu=0.4, m=12),
    ],
)
def test_lockstep_walk_matches_one_start_runs(p):
    # starts that mix residues and levels share one run; each start's counts
    # equal its own run and the state-stepping kernel bit for bit, at a zero
    # horizon and at a repeated one (every count repeats there)
    m = p.m
    starts = sorted({0, 1, m - 1, m, m + 1, 2 * m + 1, 3 * m, 64})
    horizons, reps, seed = (0.0, 0.4, 2.5, 2.5, 6.0), 3000, 17
    multi = _lockstep(p, starts, horizons, reps, seed)
    assert len(multi) == len(starts)
    for n, counts in zip(starts, multi):
        single = _lockstep(p, n, horizons, reps, seed)
        assert counts.dtype == single.dtype == np.int64
        assert counts.shape == single.shape and np.array_equal(counts, single)
        ref = _state_loop(p, n, horizons, reps, seed)
        assert counts.shape == ref.shape and np.array_equal(counts, ref)
        assert counts[0, n] == reps and np.array_equal(counts[2], counts[3])


def test_simulate_mc_shares_no_code_with_uniformization(monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("the simulation reached the uniformization oracle")

    monkeypatch.setattr(oracle, "_BandedT", no_engine)
    monkeypatch.setattr(oracle, "expm_uniformization", no_engine)
    p = QueueParams(lam=1.0, mu=2.0, m=3)
    res = simulate_mc(p, McConfig(replications=1000, seed=2, start=5, horizon=2.0))
    assert res.freq.sum() == pytest.approx(1.0)


def test_cross_validate_empty_grid_passes():
    rep = cross_validate(QueueParams(lam=1.0, mu=1.0, m=1), [])
    assert rep.passed
    assert rep.rows == ()
    assert rep.max_spectral_diff == 0.0 and rep.max_picard_diff == 0.0
    assert rep.mc_within_3se is None and rep.decay_rel_err is None


def test_cross_validate_small_grid():
    p = QueueParams(lam=1.0, mu=1.0, m=2)
    grid = [(n, r, t) for n in (0, 2, 4) for r in (0, 3) for t in (0.1, 1.0)]
    rep = cross_validate(p, grid)
    assert rep.passed
    assert len(rep.rows) == len(grid)
    assert rep.rows[0][:3] == grid[0]
    assert rep.max_spectral_diff <= 1e-6
    assert rep.max_picard_diff <= 1e-8


def test_cross_validate_long_horizon_picard():
    # t = 5 exceeds what a single Taylor run can deliver at 1e-8; the
    # chained engine must still agree
    p = QueueParams(lam=1.0, mu=2.0, m=1)
    rep = cross_validate(p, [(0, 0, 5.0), (3, 2, 5.0), (7, 8, 5.0)])
    assert rep.passed and rep.max_picard_diff <= 1e-8


def test_cross_validate_critical_skips_decay():
    p = QueueParams(lam=2.0, mu=1.0, m=2)  # lam = m*mu
    rep = cross_validate(p, [(0, 0, 0.5), (2, 3, 1.0), (4, 1, 5.0)])
    assert rep.passed
    assert rep.decay_rel_err is None


def test_cross_validate_subcritical_checks_decay():
    p = QueueParams(lam=0.5, mu=1.5, m=1)
    rep = cross_validate(p, [(0, 0, 1.0), (1, 2, 2.0)])
    assert rep.passed
    assert rep.decay_rel_err is not None and rep.decay_rel_err <= 0.15


def test_cross_validate_passes_with_a_pole_on_the_arm():
    # m even and mu > lam put the pole mu - lam on the real arm; the decay
    # fit must subtract its mode, or it misses the closed form by 15.1%
    p = QueueParams(lam=0.3, mu=1.0, m=2)
    rep = cross_validate(p, [(0, 0, 1.0), (1, 2, 2.0)])
    assert rep.max_spectral_diff <= 1e-10
    assert rep.decay_rel_err is not None and rep.decay_rel_err <= 0.1
    assert rep.passed


@pytest.mark.parametrize(
    "point",
    [(1.5, 0.7, 1.0), (-1, 0, 1.0), (0, 65, 1.0), (0, 0, math.nan), (0, 0, math.inf), (0, 0, -1.0)],
)
def test_cross_validate_rejects_bad_grid_point(monkeypatch, point):
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the grid was checked")

    monkeypatch.setattr(oracle, "expm_uniformization", no_engine)
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    with pytest.raises(ValueError, match=re.escape(str(point))):
        cross_validate(p, [(0, 0, 1.0), point])


@pytest.mark.parametrize(
    "option, match",
    [
        ({"mc_reps": 2.5}, "mc_reps"),
        ({"mc_reps": -5}, "mc_reps"),
        ({"mc_reps": "10"}, "mc_reps"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
    ],
)
def test_cross_validate_rejects_bad_mc_option(monkeypatch, option, match):
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the options were checked")

    monkeypatch.setattr(oracle, "expm_uniformization", no_engine)
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    with pytest.raises(ValueError, match=f"{match} must be an integer >= 0"):
        cross_validate(p, [(0, 0, 1.0)], **option)


def test_cross_validate_runs_each_oracle_once_per_start_or_time(monkeypatch):
    calls = Counter()
    for name in ("transition_block", "_lockstep", "_picard_chain", "simulate_mc"):
        def counted(*args, _name=name, _real=getattr(oracle, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    p = QueueParams(lam=2.0, mu=1.0, m=2)  # critical, so no decay fit
    grid = [(n, r, t) for n in range(9) for r in range(9) for t in (0.5, 1.0, 2.0)]
    rep = cross_validate(p, grid, mc_reps=200, seed=1)
    assert [row[:3] for row in rep.rows] == grid
    assert calls == Counter(transition_block=1, _lockstep=1, _picard_chain=3)


def test_cross_validate_mc_column_is_simulate_mc():
    p = QueueParams(lam=1.0, mu=1.0, m=2)
    grid = [(n, r, 1.5) for n in (0, 3) for r in range(8)]
    rep = cross_validate(p, grid, mc_reps=2000, seed=5)
    for n, r, t, *_, sim in rep.rows:
        res = simulate_mc(p, McConfig(replications=2000, seed=5, start=n, horizon=t))
        assert sim == (res.freq[r] if r < len(res.freq) else 0.0)


def test_cross_validate_one_simulation_per_set_of_times(monkeypatch):
    calls = []

    def counted(p, starts, horizons, reps, seed, _real=oracle._lockstep):
        calls.append((tuple(starts), tuple(horizons)))
        return _real(p, starts, horizons, reps, seed)

    monkeypatch.setattr(oracle, "_lockstep", counted)
    p = QueueParams(lam=1.0, mu=1.0, m=2)
    grid = [(0, r, t) for r in range(6) for t in (1.0, 2.0)] + [(3, r, 1.5) for r in range(6)]
    rep = cross_validate(p, grid, mc_reps=4000, seed=5)
    assert sorted(calls) == [((0,), (1.0, 2.0)), ((3,), (1.5,))]
    own = {}
    for n, times in ((0, (1.0, 2.0)), (3, (1.5,))):
        rows = _lockstep(p, n, times, 4000, 5)
        own.update(((n, t), _mc_result(row, 4000)) for t, row in zip(times, rows))
    for n, r, t, *_, sim in rep.rows:
        res = own[n, t]
        assert sim == (res.freq[r] if r < len(res.freq) else 0.0)


def test_cross_validate_with_simulation():
    p = QueueParams(lam=1.0, mu=1.0, m=1)
    grid = [(0, r, 1.0) for r in range(4)]
    rep = cross_validate(p, grid, mc_reps=30_000, seed=3)
    assert rep.passed
    assert rep.mc_within_3se is not None and rep.mc_within_3se >= 0.85
    assert all(math.isfinite(row[6]) for row in rep.rows)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
