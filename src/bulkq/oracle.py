"""Independent ground-truth engines for the transition probabilities.

Three routes to the same matrix exponential, none sharing code with the
spectral engine:

* uniformization — the Poisson mixture of powers of the substochastic
  matrix ``S = I + A/q``, the workhorse oracle;
* successive approximation — the integral-equation iteration whose k-th
  increment is exactly ``t^k A^k b / k!``, with executable error bounds;
* discrete-event simulation — vectorized lockstep runs of the queue
  itself on a counter-based random stream.

The cross-validation report runs all of them against the spectral values
over a query grid and applies the package's tolerance policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import IterationBudgetExceeded, TruncationTooSmall
from .model import QueueParams, build_generator, validate_params
from .transition import (
    TransitionQuery,
    _poisson_quantile,
    _poisson_tail,
    decay_rate,
    fitted_decay_rate,
    transition_spectral,
)

# scipy is imported where it is used: loading it costs about 25 MB and a
# fifth of a second, which the spectral engine and most commands never need
if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "PicardState",
    "McConfig",
    "McResult",
    "CrossReport",
    "expm_uniformization",
    "picard_solve",
    "simulate_mc",
    "cross_validate",
]

#: acceptable truncation leak in the rows a caller reads
LEAK_TOL = 1e-9
#: hard ceiling for the auto-doubling truncation
N_CAP = 4096
#: series cut tolerance defaults
UNIF_TOL = 1e-10
#: engine agreement targets of the cross-validation policy
SPECTRAL_VS_EXPM = 1e-6
PICARD_VS_EXPM = 1e-8
#: the long-time decay fit is only meaningful with spectral headroom;
#: near criticality (rate -> 0) it is skipped rather than asserted
DECAY_MARGIN = -0.25
DECAY_REL = 0.15


def _substochastic(p: QueueParams, N: int) -> sparse.csr_matrix:
    """S = I + A/q with q = lam + mu (nonnegative, rows sum to <= 1)."""
    from scipy import sparse
    a = np.array(build_generator(p, N).entries)
    return sparse.csr_matrix(np.eye(N) + a / (p.lam + p.mu))


def expm_uniformization(
    p: QueueParams, N: int, t: float, tol: float = UNIF_TOL, *, rows: int | None = None
) -> np.ndarray:
    """Truncated ``e^{tA}`` as a Poisson mixture of substochastic powers.

    The series ``sum_k e^{-qt}(qt)^k/k! S^k`` is cut once the Poisson tail
    drops below ``tol``.  The first ``rows`` rows (default N//4) must keep
    their truncation leak below 1e-9; otherwise the truncation is doubled,
    up to 4096, before giving up.  The returned matrix is square with the
    final (possibly enlarged) truncation.

    Raises
    ------
    TruncationTooSmall
        If N violates the drift precondition, or the leak target is still
        missed at the cap.
    """
    from scipy.special import gammaln
    validate_params(p)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if N < 4 * (p.m + p.lam * t):
        raise TruncationTooSmall(
            f"need N >= 4*(m + lam*t) = {4 * (p.m + p.lam * t):.1f}, got {N}"
        )
    if rows is None:
        rows = max(1, N // 4)
    a = (p.lam + p.mu) * t
    while True:
        if a == 0.0:
            out = np.eye(N)
        else:
            ks = np.arange(_poisson_quantile(a, tol) + 1)
            w = np.exp(-a + ks * math.log(a) - gammaln(ks + 1))
            s_mat = _substochastic(p, N)
            term = np.eye(N)
            out = w[0] * term
            for wk in w[1:]:
                term = term @ s_mat
                out += wk * term
        leak = 1.0 - float(out[: min(rows, N)].sum(axis=1).min())
        if leak <= LEAK_TOL + tol:
            return out
        if 2 * N > N_CAP:
            raise TruncationTooSmall(
                f"leak {leak:.2e} in first {rows} rows still above {LEAK_TOL:.0e} "
                f"at the truncation cap {N_CAP}"
            )
        N *= 2


@dataclass(frozen=True, eq=False)
class PicardState:
    """Outcome of the successive-approximation solve for one row of P(t).

    Attributes
    ----------
    N, t, iterations : truncation, horizon and iteration count.
    y : numpy.ndarray
        The final iterate (row ``n`` of P(t) on the truncation).
    increment_sup : tuple of float
        Sup norm of each increment g_k, k = 1..K.
    bound : tuple of float
        The banded-operator bound ``(l M t)^k / k!`` for the same k, with
        ``l = m + 2`` and ``M = lam + mu``; every increment must sit below
        its bound.
    """

    N: int
    t: float
    iterations: int
    y: np.ndarray
    increment_sup: tuple[float, ...]
    bound: tuple[float, ...]


def picard_solve(
    p: QueueParams, n: int, N: int, t: float, K: int, *, tol: float | None = None
) -> PicardState:
    """Row ``n`` of ``P(t)`` by Picard iteration ``y_k = b + int_0^t A y_{k-1}``.

    For the linear system the k-th increment is exactly ``t^k b A^k / k!``,
    so the iteration is a factorially convergent Taylor scheme.  With
    ``tol`` given, the executable tail certificate
    ``e^{lMt} P[Pois(lMt) > K] < tol`` is enforced up front (l = m + 2,
    M = lam + mu); without it the caller's K is taken as-is — the zeroth
    iterate is the initial vector itself.

    Raises
    ------
    IterationBudgetExceeded
        If ``tol`` is given and K fails the tail certificate.
    """
    from scipy import sparse
    from scipy.special import gammaln
    validate_params(p)
    if not 0 <= n < N:
        raise ValueError(f"need 0 <= n < N, got n={n}, N={N}")
    if K < 0 or not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"need K >= 0 and finite t >= 0, got K={K}, t={t}")
    ell, big_m = p.m + 2, p.lam + p.mu
    a = ell * big_m * t
    if tol is not None:
        tail = math.exp(a) * _poisson_tail(K, a)
        if tail >= tol:
            raise IterationBudgetExceeded(
                f"tail certificate {tail:.2e} at K={K} not below {tol:.0e} "
                f"(rule of thumb: K >= e*l*M*t + margin = {math.e * a:.0f} + margin)"
            )
    gen_t = sparse.csr_matrix(np.array(build_generator(p, N).entries).T)
    y = np.zeros(N)
    y[n] = 1.0
    g = y.copy()
    sups, bounds = [], []
    for k in range(1, K + 1):
        g = (t / k) * (gen_t @ g)
        y = y + g
        sups.append(float(np.max(np.abs(g))))
        bounds.append(
            0.0 if a == 0.0 else float(np.exp(k * math.log(a) - gammaln(k + 1)))
        )
    return PicardState(
        N=N,
        t=t,
        iterations=K,
        y=y,
        increment_sup=tuple(sups),
        bound=tuple(bounds),
    )


def _picard_vector(gen_t: sparse.csr_matrix, b: np.ndarray, t: float, K: int) -> np.ndarray:
    """One Picard solve from an arbitrary start vector (no bookkeeping)."""
    y = b.copy()
    g = b.copy()
    for k in range(1, K + 1):
        g = (t / k) * (gen_t @ g)
        y = y + g
    return y


def _picard_chain(p: QueueParams, gen_t: sparse.csr_matrix, n: int, t: float) -> np.ndarray:
    """Row n of P(t) by composing short Picard legs.

    A single Taylor run over a long horizon climbs a hump of increments
    of size up to e^{lMt} before cancelling back to probabilities, and
    the round-off from the hump survives; capping each leg at lM*dt <= 10
    keeps the intermediate terms small, and the legs chain by the
    semigroup property.
    """
    a_full = (p.m + 2) * (p.lam + p.mu) * t
    legs = max(1, math.ceil(a_full / 10.0))
    dt = t / legs
    K = _poisson_quantile(a_full / legs, 1e-12) + 5
    y = np.zeros(gen_t.shape[0])
    y[n] = 1.0
    for _ in range(legs):
        y = _picard_vector(gen_t, y, dt, K)
    return y


@dataclass(frozen=True)
class McConfig:
    """Replication count, stream seed, start state and horizon."""

    replications: int
    seed: int
    start: int
    horizon: float

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        if self.start < 0 or int(self.start) != self.start:
            raise ValueError(f"start state must be an integer >= 0, got {self.start}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon}")


@dataclass(frozen=True, eq=False)
class McResult:
    """Empirical distribution over states at the horizon.

    ``freq[r]`` estimates P_{start,r}(horizon); ``stderr`` holds the
    binomial standard errors sqrt(f(1-f)/reps).
    """

    freq: np.ndarray
    stderr: np.ndarray
    replications: int


def simulate_mc(p: QueueParams, cfg: McConfig) -> McResult:
    """Vectorized lockstep discrete-event runs of the queue.

    From state i < m only arrivals fire (rate lam); from i >= m the clock
    runs at lam + mu and the event is an arrival with probability
    lam/(lam+mu), else a batch departure removing m at once.  Every round
    draws for all replications from one counter-based (Philox) stream, so
    a given seed reproduces the result bit for bit.
    """
    validate_params(p)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    reps = cfg.replications
    state = np.full(reps, cfg.start, dtype=np.int64)
    clock = np.zeros(reps)
    alive = np.ones(reps, dtype=bool)
    p_depart = p.mu / (p.lam + p.mu)
    while alive.any():
        rate = np.where(state >= p.m, p.lam + p.mu, p.lam)
        nxt = clock + rng.exponential(size=reps) / rate
        fire = alive & (nxt < cfg.horizon)
        clock = np.where(fire, nxt, clock)
        depart = fire & (state >= p.m) & (rng.random(reps) < p_depart)
        state = state + np.where(fire, np.where(depart, -p.m, 1), 0)
        alive = fire
    freq = np.bincount(state) / reps
    stderr = np.sqrt(freq * (1.0 - freq) / reps)
    return McResult(freq=freq, stderr=stderr, replications=reps)


@dataclass(frozen=True, eq=False)
class CrossReport:
    """Side-by-side engine comparison over a query grid.

    ``rows`` holds (n, r, t, spectral, uniformization, picard, montecarlo)
    with NaN in the last column when the simulation was not requested.
    """

    rows: tuple[tuple[int, int, float, float, float, float, float], ...]
    max_spectral_diff: float
    max_picard_diff: float
    mc_within_3se: float | None
    decay_rel_err: float | None
    passed: bool


def cross_validate(
    p: QueueParams,
    grid,
    *,
    mc_reps: int = 0,
    seed: int = 0,
) -> CrossReport:
    """Run every engine over ``grid`` (an iterable of (n, r, t) triples).

    Policy: |spectral - uniformization| <= 1e-6 per point, |picard -
    uniformization| <= 1e-8 per point and, when simulation is requested,
    at least 85% of the cells within three standard errors.  When the
    spectral decay rate has real headroom (<= -0.25) the long-time fit
    must land within 15% of the closed form; otherwise — in particular
    at criticality, where the rate is 0 — that assertion is skipped.
    An empty grid passes vacuously.
    """
    from scipy import sparse
    validate_params(p)
    pts = [(int(n), int(r), float(t)) for (n, r, t) in grid]
    if not pts:
        return CrossReport(
            rows=(), max_spectral_diff=0.0, max_picard_diff=0.0,
            mc_within_3se=None, decay_rel_err=None, passed=True,
        )
    n_max = max(n for n, _, _ in pts)
    r_max = max(r for _, r, _ in pts)
    t_max = max(t for _, _, t in pts)
    N = 64
    floor = max(4 * (p.m + p.lam * t_max), 2 * (n_max + r_max + 2))
    while N < floor:
        N *= 2
    mats: dict[float, np.ndarray] = {}
    for t in sorted({t for _, _, t in pts}):
        mats[t] = expm_uniformization(p, N, t, rows=n_max + 1)
    N = max(mat.shape[0] for mat in mats.values())  # pick up any auto-doubling
    gen_t = sparse.csr_matrix(np.array(build_generator(p, N).entries).T)
    pic: dict[tuple[int, float], np.ndarray] = {}
    for n, t in sorted({(n, t) for n, _, t in pts}):
        pic[n, t] = _picard_chain(p, gen_t, n, t)
    mc: dict[tuple[int, float], McResult] = {}
    if mc_reps > 0:
        for n, t in sorted({(n, t) for n, _, t in pts}):
            mc[n, t] = simulate_mc(
                p, McConfig(replications=mc_reps, seed=seed, start=n, horizon=t)
            )
    rows = []
    worst_spec = worst_pic = 0.0
    mc_hits = mc_cells = 0
    for n, r, t in pts:
        spec = transition_spectral(p, TransitionQuery(n, r, (t,))).values[0]
        unif = float(mats[t][n, r])
        pica = float(pic[n, t][r])
        worst_spec = max(worst_spec, abs(spec - unif))
        worst_pic = max(worst_pic, abs(pica - unif))
        sim = math.nan
        if mc_reps > 0:
            res = mc[n, t]
            sim = float(res.freq[r]) if r < len(res.freq) else 0.0
            if unif * mc_reps >= 10.0:  # only cells with real expected mass
                se = max(float(res.stderr[r]) if r < len(res.freq) else 0.0, 1e-12)
                mc_cells += 1
                mc_hits += abs(sim - unif) <= 3.0 * se
        rows.append((n, r, t, spec, unif, pica, sim))
    coverage = None if mc_cells == 0 else mc_hits / mc_cells
    passed = worst_spec <= SPECTRAL_VS_EXPM and worst_pic <= PICARD_VS_EXPM
    if coverage is not None:
        passed = passed and coverage >= 0.85
    closed = decay_rate(p)
    decay_rel = None
    if closed <= DECAY_MARGIN:
        decay_rel = abs(fitted_decay_rate(p) - closed) / abs(closed)
        passed = passed and decay_rel <= DECAY_REL
    return CrossReport(
        rows=tuple(rows),
        max_spectral_diff=worst_spec,
        max_picard_diff=worst_pic,
        mc_within_3se=coverage,
        decay_rel_err=decay_rel,
        passed=passed,
    )
