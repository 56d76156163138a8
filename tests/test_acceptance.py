"""Acceptance gate: ten criteria, one verdict line each.

Each test prints ``CRITERION k: PASS/FAIL — detail`` through
``capsys.disabled()`` so the verdicts are visible in a normal pytest run,
then asserts, so a red criterion is also a red test.
"""

import cmath
import sys
import time

import numpy as np
import pytest

from bulkq.algebraic import AlgebraicConfig, solve_branches, star_geometry
from bulkq.errors import NearSingularConfiguration, QuadratureNotConverged
from bulkq.model import QueueParams
from bulkq.operators import (
    OperatorSpec,
    basis_jump_check,
    biorthogonality_check,
    dual_jump_check,
    lambda_conjugation_residual,
    moment,
)
from bulkq.oracle import McConfig, cross_validate, expm_uniformization, picard_solve, simulate_mc
from bulkq.polynomials import dual_explicit, dual_vector, h_zeros, q_explicit, q_poly
from bulkq.spectral import (
    _arm_density,
    markov_residual,
    pairing_matrix,
    sigma_apply,
    star_quadrature,
)
from bulkq.transition import (
    decay_rate,
    fitted_decay_rate,
    honesty_check,
    semigroup_check,
)

#: the canonical parameter set per batch size used throughout acceptance
RATES = {1: (1.0, 2.0), 2: (1.0, 1.0), 3: (1.2, 0.8)}
T_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)

_CROSS_CACHE: dict[int, object] = {}


def _report(capsys, k: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {k}: {detail}"


def _cross_reports():
    """The m in {1,2,3} full-grid engine comparison, computed once."""
    if not _CROSS_CACHE:
        grid = [(n, r, t) for n in range(9) for r in range(9) for t in T_GRID]
        for m, (lam, mu) in RATES.items():
            _CROSS_CACHE[m] = cross_validate(QueueParams(lam=lam, mu=mu, m=m), grid)
    return _CROSS_CACHE


def test_criterion_01_branch_suite(capsys):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    ordered = True
    for m in (1, 2, 3, 4):
        for _ in range(500):
            c = rng.uniform(0.4, 2.5)
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            omega = solve_branches(AlgebraicConfig(c=c, m=m), z).omega
            mods = np.abs(omega)
            ordered &= bool(np.all(mods[:-1] >= mods[1:] - 1e-12))
            coeffs = np.poly(omega)
            target = np.zeros(m + 2, dtype=complex)
            target[0], target[1], target[-1] = 1.0, -z, c
            worst = max(
                worst, float(np.max(np.abs(coeffs - target)) / max(1.0, abs(z), c))
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and ordered and elapsed < 5.0
    _report(
        capsys, 1,
        ok,
        f"2000 draws, max Vieta residual {worst:.2e}, ordering "
        f"{'held' if ordered else 'BROKEN'}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_forms(capsys):
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 200:
        p = QueueParams(
            rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5), int(rng.integers(1, 4))
        )
        n = int(rng.integers(1, 21))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            closed_q = q_explicit(p, n, z)
            r = int(rng.integers(2 * p.m, 15))
            j = int(rng.integers(0, p.m))
            closed_d = dual_explicit(p, r, j, z)
        except NearSingularConfiguration:
            continue
        ref = q_poly(p, n)(z)
        worst = max(worst, abs(closed_q - ref) / (1.0 + abs(ref)))
        ref = dual_vector(p, r).components[j](z)
        worst = max(worst, abs(closed_d - ref) / (1.0 + abs(ref)))
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(capsys, 2, ok, f"200 draws, max mismatch {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_operator_identities(capsys):
    start = time.perf_counter()
    worst = 0.0
    conj = 0.0
    for m, (lam, mu) in RATES.items():
        p = QueueParams(lam=lam, mu=mu, m=m)
        spec = OperatorSpec("A", p, 70)
        for n in range(13):
            worst = max(worst, basis_jump_check(spec, n))
            worst = max(worst, dual_jump_check(p, n, 70))
            for r in range(13):
                pairing = biorthogonality_check(p, n, r, 70)
                worst = max(worst, abs(pairing - (1.0 if n == r else 0.0)))
        conj = max(conj, lambda_conjugation_residual(p, N=60))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and conj <= 1e-14 and elapsed < 10.0
    _report(
        capsys, 3,
        ok,
        f"max jump/pairing residual {worst:.2e}, conjugation {conj:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_star_quadrature(capsys):
    worst_mass = worst_exact = 0.0
    interlaced = True
    for m, (lam, mu) in RATES.items():
        cfg = AlgebraicConfig(c=mu * lam**m, m=m)
        spec = OperatorSpec("T", cfg, 200)
        for n in range(m + 1, 3 * (m + 1) + 2):
            rule = star_quadrature(cfg, n)
            assert np.all(rule.weights > 0.0)
            mass = abs(rule.weights.sum() - (m + 1) * cfg.c) / ((m + 1) * cfg.c)
            worst_mass = max(worst_mass, float(mass))
            s = n % (m + 1)
            for s_prime in range(rule.exactness_degree + 1):
                nu = s_prime + s
                if nu % (m + 1):
                    continue
                want = moment(spec, nu, 1)
                err = abs(rule.monomial_moment(nu) - want) / max(1.0, abs(want))
                worst_exact = max(worst_exact, float(err))
        prev = None
        for n in range(m + 1, 101):
            zs = h_zeros(cfg, n)
            if prev is not None and len(prev) > 0:
                if len(zs) == len(prev):
                    interlaced &= all(
                        prev[i] < zs[i]
                        and (i + 1 >= len(zs) or zs[i] < prev[i + 1])
                        for i in range(len(zs))
                    )
                else:
                    interlaced &= all(
                        zs[i] < prev[i] < zs[i + 1] for i in range(len(prev))
                    )
            prev = zs
    ok = worst_mass <= 1e-10 and worst_exact <= 1e-9 and interlaced
    _report(
        capsys, 4,
        ok,
        f"mass residual {worst_mass:.2e}, exactness residual {worst_exact:.2e}, "
        f"interlacing {'held' if interlaced else 'BROKEN'}",
    )


def test_criterion_05_spectral_measures(capsys):
    rng = np.random.default_rng(5)
    worst_markov = worst_vanish = worst_match = 0.0
    for m, (lam, mu) in RATES.items():
        p = QueueParams(lam=lam, mu=mu, m=m)
        cfg = AlgebraicConfig(c=mu / lam, m=m)
        geo = star_geometry(cfg)
        a = geo.arm_length
        arms = [
            t * geo.rotation**k
            for k in range(m + 1)
            for t in np.linspace(0.0, a, 60)
        ]
        done = 0
        while done < 50:
            z = complex(rng.uniform(-3 * a, 3 * a), rng.uniform(-3 * a, 3 * a))
            if min(abs(z - arm) for arm in arms) <= 0.2 * a:
                continue
            j = int(rng.integers(1, m + 1))
            worst_markov = max(worst_markov, markov_residual(cfg, j, z))
            done += 1
        spec = OperatorSpec("A", p, 48)
        for j in range(m):
            for nu in range(9):
                want = moment(spec, nu, j + 1)
                got = sigma_apply(p, j, lambda x, nu=nu: x**nu)
                worst_match = max(worst_match, abs(got - want) / max(1.0, abs(want)))
        star = AlgebraicConfig(c=mu * lam**m, m=m)
        for j in range(2, m + 1):
            ts, ws, dens = _arm_density(star, j, 64, 24)
            for nu in range(j - 1):
                phase = sum(
                    cmath.exp(2j * cmath.pi * k * (nu + 1 - j) / (m + 1))
                    for k in range(m + 1)
                )
                full = phase * float(np.sum(dens * ws * ts**nu))
                worst_vanish = max(worst_vanish, abs(full))
    ok = worst_markov <= 1e-7 and worst_vanish <= 1e-8 and worst_match <= 1e-7
    _report(
        capsys, 5,
        ok,
        f"markov {worst_markov:.2e}, vanishing {worst_vanish:.2e}, "
        f"moment match {worst_match:.2e}",
    )


def test_criterion_06_integrated_orthogonality(capsys):
    worst = 0.0
    for m, (lam, mu) in RATES.items():
        gram = pairing_matrix(QueueParams(lam=lam, mu=mu, m=m), 13)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(13)))))
    ok = worst <= 1e-6
    _report(capsys, 6, ok, f"max |pairing - delta| {worst:.2e} over n,r <= 12")


def test_criterion_07_transition_grid(capsys):
    start = time.perf_counter()
    reports = _cross_reports()
    worst_spec = max(rep.max_spectral_diff for rep in reports.values())
    least = min(min(row[3] for row in rep.rows) for rep in reports.values())
    worst_honesty = worst_semi = 0.0
    for m, (lam, mu) in RATES.items():
        p = QueueParams(lam=lam, mu=mu, m=m)
        for n, t in ((0, 1.0), (3, 2.0)):
            worst_honesty = max(
                worst_honesty, abs(honesty_check(p, n, t, n + 50) - 1.0)
            )
        worst_semi = max(worst_semi, semigroup_check(p, 0, 1, 0.5, 0.5, 60))
        worst_semi = max(worst_semi, semigroup_check(p, 2, 3, 0.3, 0.7, 80))
    elapsed = time.perf_counter() - start
    ok = (
        worst_spec <= 1e-6
        and worst_honesty <= 1e-6
        and worst_semi <= 1e-6
        and least >= -1e-7
        and elapsed < 120.0
    )
    _report(
        capsys, 7,
        ok,
        f"1215-point grid: spectral-vs-oracle {worst_spec:.2e}, honesty "
        f"{worst_honesty:.2e}, semigroup {worst_semi:.2e}, min value {least:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_picard(capsys):
    bounds_hold = True
    for m, (lam, mu) in RATES.items():
        p = QueueParams(lam=lam, mu=mu, m=m)
        for t in (0.5, 1.0, 2.0):
            for n in (0, 2):
                state = picard_solve(p, n, 80, t, 50)
                bounds_hold &= all(
                    sup <= bound
                    for sup, bound in zip(state.increment_sup, state.bound)
                )
    worst = max(rep.max_picard_diff for rep in _cross_reports().values())
    ok = bounds_hold and worst <= 1e-8
    _report(
        capsys, 8,
        ok,
        f"increment bounds {'held' if bounds_hold else 'BROKEN'}, "
        f"picard-vs-oracle {worst:.2e}",
    )


def test_criterion_09_monte_carlo(capsys):
    start = time.perf_counter()
    coverages = []
    for p, start_state, t in (
        (QueueParams(lam=1.0, mu=1.0, m=1), 0, 1.0),
        (QueueParams(lam=1.0, mu=2.0, m=3), 5, 2.0),
    ):
        reps = 100_000
        ref = expm_uniformization(p, 64, t)[start_state]
        cells = [r for r in range(64) if ref[r] * reps >= 10.0]
        hits = total = 0
        for seed in range(20):
            res = simulate_mc(
                p, McConfig(replications=reps, seed=seed, start=start_state, horizon=t)
            )
            for r in cells:
                sim = res.freq[r] if r < len(res.freq) else 0.0
                se = res.stderr[r] if r < len(res.freq) else 0.0
                hits += abs(sim - ref[r]) <= 3.0 * se
                total += 1
        coverages.append(hits / total)
    elapsed = time.perf_counter() - start
    ok = all(cov >= 0.85 for cov in coverages) and elapsed < 60.0
    _report(
        capsys, 9,
        ok,
        f"3-sigma coverage {coverages[0]:.1%} and {coverages[1]:.1%} "
        f"across 20 seeds, {elapsed:.1f}s",
    )


def test_criterion_10_decay(capsys):
    sign_rng = np.random.default_rng(10)
    signs_ok = True
    for _ in range(100):
        p = QueueParams(
            sign_rng.uniform(0.2, 3.0),
            sign_rng.uniform(0.2, 3.0),
            int(sign_rng.integers(1, 5)),
        )
        signs_ok &= decay_rate(p) <= 0.0
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    fitted = 0
    while fitted < 14:
        m = int(rng.integers(1, 4))
        mu = rng.uniform(0.3, 2.0)
        lam = rng.uniform(0.1, 0.8) * m * mu  # strictly subcritical
        p = QueueParams(lam=lam, mu=mu, m=m)
        closed = decay_rate(p)
        if closed > -0.25:
            continue  # too near critical for the window to see the rate
        try:
            rel = abs(fitted_decay_rate(p) - closed) / abs(closed)
        except QuadratureNotConverged:
            # a rotating-mode pole decays at nearly the tip rate, so the
            # remainder is below round-off on the window; the engine says so
            continue
        worst_rel = max(worst_rel, rel)
        fitted += 1
    ok = signs_ok and worst_rel <= 0.15
    _report(
        capsys, 10,
        ok,
        f"rate nonpositive on 100 draws ({'yes' if signs_ok else 'NO'}), "
        f"worst fit error {worst_rel:.1%} of the closed form over {fitted} cases",
    )


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
