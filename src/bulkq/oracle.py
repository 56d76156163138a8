"""Independent ground-truth engines for the transition probabilities.

Three routes to the same matrix exponential, none sharing code with the
spectral engine:

* uniformization — the Poisson mixture of powers of the substochastic
  matrix ``S = I + A/q``, the workhorse oracle;
* successive approximation — the integral-equation iteration whose k-th
  increment is exactly ``t^k A^k b / k!``, with executable error bounds;
* Monte Carlo simulation — vectorized lockstep runs of the uniformized
  queue on a counter-based random stream, one run recording the state at
  every requested horizon from every start.  A departure removes exactly
  m, so the starts share the arrivals and the level of each is a
  reflected walk of them.  It draws Poisson event counts and uniforms
  only, never builds the generator, and costs about reps * (lam + mu) *
  t_max draws whatever the load and however many starts share the run.
  With 20,000 replications from the 9 starts 0..8 and horizons up to 29
  (CPU time on a 2-vCPU VM), the one shared run was 5.3-9.4x faster than
  one run per start.  Against 9 runs of the event-driven loop that the
  uniformized one replaced, it was 1.7x faster at (lam, mu, m) =
  (0.2, 5, 2), where mu >> lam and most draws are self-loops, 2.2x at
  (0.1, 10, 1) and 8-20x at (1.2, 0.8, 3), (0.5, 2, 1), (0.8, 1.5, 2)
  and (2, 1, 2).

The cross-validation report runs all of them against the spectral values
over a query grid and applies the package's tolerance policy.  Each oracle
runs once per time or per set of times, never once per grid cell: the
uniformization rows up to the largest start per time, one Picard block
carrying every start as a column per time, one simulation per set of
times covering every start with those times, and one spectral block solve
for the whole grid.  The starts of a simulation share one stream on
purpose: every count stays what a run from that start alone gives, at the
price of Monte Carlo errors that are correlated across starts.

The oracles use numpy alone and build no N x N matrix: the banded
products read the generator's band values and add their terms in the
order scipy's CSR product does, and the Poisson weights come from
:func:`math.lgamma`, so loading them costs no scipy import (about 25 MB).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import IterationBudgetExceeded, TruncationTooSmall
from .model import (
    QueueParams, generator_bands, poisson_quantile, poisson_tail, require_int, require_state,
    require_time, validate_params,
)
from .transition import STATE_CAP, TransitionQuery, decay_rate, fitted_decay_rate, transition_block

__all__ = [
    "PicardState",
    "McConfig",
    "McResult",
    "CrossReport",
    "truncation_size",
    "expm_uniformization",
    "picard_solve",
    "simulate_mc",
    "cross_validate",
]

#: acceptable truncation leak in the rows a caller reads
LEAK_TOL = 1e-9
#: hard ceiling for the auto-doubling truncation
N_CAP = 4096
#: Poisson tail at which the uniformization series is cut
UNIF_TOL = 1e-10
#: engine agreement targets of the cross-validation policy
SPECTRAL_VS_EXPM = 1e-6
PICARD_VS_EXPM = 1e-8
#: the long-time decay fit is only meaningful with spectral headroom;
#: near criticality (rate -> 0) it is skipped rather than asserted
DECAY_MARGIN = -0.25
DECAY_REL = 0.15


def truncation_size(p: QueueParams, t: float, states: int) -> int:
    """Smallest power of two N >= 64 with N >= 4(m + lam t) and N >= 2 states.

    The oracles' starting truncation for horizons up to t when the first
    ``states`` states matter; :func:`expm_uniformization` doubles it further
    if the leak demands.
    """
    N = 64
    while N < max(4 * (p.m + p.lam * t), 2 * states):
        N *= 2
    return N


class _BandedT:
    """The product ``g -> a^T g`` for a vector or an (N, cols) block g.

    a is :func:`~bulkq.model.band_section` ``(m, bands, N)``, held as its
    main diagonal and two scalar bands; N < m + 2 raises
    :class:`TruncationTooSmall`.  The main band's term comes first, then
    iota's and eta's: the order in which scipy's CSR product adds each
    entry's terms, so the result is the same bit for bit.
    """

    def __init__(self, m: int, bands: tuple, N: int) -> None:
        if N < m + 2:
            raise TruncationTooSmall(f"need N >= m + 2 = {m + 2}, got {N}")
        gamma, self.iota, self.eta, xi = bands
        self.m, self.N = m, N
        self.main = np.full((N, 1), -xi)
        self.main[:m] = -gamma

    def __call__(self, g: np.ndarray) -> np.ndarray:
        h = g if g.ndim == 2 else g[:, None]
        out = self.main * h
        out[1:] += self.iota * h[:-1]
        out[: self.N - self.m] += self.eta * h[self.m :]
        return out if g.ndim == 2 else out[:, 0]


def expm_uniformization(p: QueueParams, N: int, t: float, *, rows: int | None = None) -> np.ndarray:
    """Truncated ``e^{tA}`` as a Poisson mixture of substochastic powers.

    The series ``sum_k e^{-qt}(qt)^k/k! S^k`` is cut once the Poisson tail
    drops below ``UNIF_TOL``.  Only the first ``rows`` rows (default N//4)
    are computed, as ``eye(N)[:rows] @ S^k``, and they must keep their
    truncation leak below 1e-9; otherwise the truncation is doubled, up to
    4096, before giving up.  Returns those rows on the final (possibly
    enlarged) truncation N_final, shape (min(rows, N_final), N_final).

    Raises
    ------
    ValueError
        If N or rows is not an integer >= 1, or t is not finite and >= 0.
    TruncationTooSmall
        If N violates the drift precondition, or the leak target is still
        missed at the cap.
    """
    gamma, iota, eta, xi = generator_bands(p)  # validates p
    require_int("N", N, 1)
    if rows is None:
        rows = max(1, N // 4)
    require_int("rows", rows, 1)
    t = require_time("t", t)
    if N < 4 * (p.m + p.lam * t):
        raise TruncationTooSmall(
            f"need N >= 4*(m + lam*t) = {4 * (p.m + p.lam * t):.1f}, got {N}"
        )
    # S = I + A/q with q = lam + mu: nonnegative, rows sum to <= 1; the
    # terms are carried transposed, as columns, with S^T applied to them
    q = p.lam + p.mu
    s_bands = (-(1.0 - gamma / q), iota / q, eta / q, -(1.0 - xi / q))
    a = q * t
    while True:
        head = np.eye(min(rows, N), N)
        if a == 0.0:
            out = head
        else:
            ks = np.arange(poisson_quantile(a, UNIF_TOL) + 1)
            log_fact = np.array([math.lgamma(k + 1) for k in ks.tolist()])
            w = np.exp(-a + ks * math.log(a) - log_fact)
            s_t = _BandedT(p.m, s_bands, N)
            term_t = np.ascontiguousarray(head.T)
            out = w[0] * head
            for wk in w[1:]:
                term_t = s_t(term_t)
                out += wk * term_t.T
        leak = 1.0 - float(out.sum(axis=1).min())
        if leak <= LEAK_TOL + UNIF_TOL:
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
    ValueError
        If N is not an integer >= 1, n not one in [0, N), K not one >= 0,
        or t not finite and >= 0.
    IterationBudgetExceeded
        If ``tol`` is given and K fails the tail certificate.
    """
    validate_params(p)
    require_int("N", N, 1)
    require_int("n", n, 0)
    require_int("K", K, 0)
    if n >= N:
        raise ValueError(f"need 0 <= n < N, got n={n}, N={N}")
    t = require_time("t", t)
    ell, big_m = p.m + 2, p.lam + p.mu
    a = ell * big_m * t
    if tol is not None:
        tail = math.exp(a) * poisson_tail(K, a)
        if tail >= tol:
            raise IterationBudgetExceeded(
                f"tail certificate {tail:.2e} at K={K} not below {tol:.0e} "
                f"(rule of thumb: K >= e*l*M*t + margin = {math.e * a:.0f} + margin)"
            )
    b = np.zeros(N)
    b[n] = 1.0
    y, sups = _picard(_BandedT(p.m, generator_bands(p), N), b, t, K, track=True)
    bounds = [
        0.0 if a == 0.0 else float(np.exp(k * math.log(a) - math.lgamma(k + 1)))
        for k in range(1, K + 1)
    ]
    return PicardState(
        N=N,
        t=t,
        iterations=K,
        y=y,
        increment_sup=tuple(sups),
        bound=tuple(bounds),
    )


def _picard(gen_t: _BandedT, b: np.ndarray, t: float, K: int, track: bool = False):
    """``b + g_1 + ... + g_K``, ``g_k = (t/k) A^T g_{k-1}``, for a vector or block ``b``.

    ``gen_t`` applies A^T (a :class:`_BandedT`).  With ``track``, also the
    sup norm of every increment (else an empty list).
    """
    y, g, sups = b.copy(), b, []
    for k in range(1, K + 1):
        g = gen_t(g)
        g *= t / k
        y += g
        if track:
            sups.append(float(np.max(np.abs(g))))
    return y, sups


def _picard_chain(p: QueueParams, gen_t: _BandedT, starts, t: float) -> np.ndarray:
    """Rows ``starts`` of P(t) as the columns of one block, by short Picard legs.

    A single Taylor run over a long horizon climbs a hump of increments
    of size up to e^{lMt} before cancelling back to probabilities, and
    the round-off from the hump survives; capping each leg at lM*dt <= 10
    keeps the intermediate terms small, and the legs chain by the
    semigroup property.  The banded product ``gen_t`` treats each column
    on its own, so a column equals the one-column block bit for bit.
    """
    a_full = (p.m + 2) * (p.lam + p.mu) * t
    legs = max(1, math.ceil(a_full / 10.0))
    dt = t / legs
    K = poisson_quantile(a_full / legs, 1e-12) + 5
    y = np.zeros((gen_t.N, len(starts)))
    y[starts, np.arange(len(starts))] = 1.0
    for _ in range(legs):
        y, _ = _picard(gen_t, y, dt, K)
    return y


@dataclass(frozen=True)
class McConfig:
    """Replication count, stream seed, start state and horizon.

    The start passes :func:`~bulkq.model.require_state` up to ``STATE_CAP``,
    the spectral engine's domain, and the horizon ``require_time``; they
    become an int and a float.
    """

    replications: int
    seed: int
    start: int
    horizon: float

    def __post_init__(self) -> None:
        require_int("replications", self.replications, 1)
        require_int("seed", self.seed, 0)
        object.__setattr__(self, "start", require_state("start", self.start, STATE_CAP))
        object.__setattr__(self, "horizon", require_time("horizon", self.horizon))


@dataclass(frozen=True, eq=False)
class McResult:
    """Empirical distribution over states at the horizon.

    ``freq[r]`` estimates P_{start,r}(horizon); ``stderr`` holds the
    binomial standard errors sqrt(f(1-f)/reps).
    """

    freq: np.ndarray
    stderr: np.ndarray
    replications: int


def _lockstep(p: QueueParams, starts, horizons, reps: int, seed: int):
    """State histograms of ``reps`` runs of the queue from each start, one per horizon.

    ``horizons`` must ascend.  The runs are uniformized (Jensen 1953): every
    replication sees events at the constant rate q = lam + mu, and an event
    is an arrival with probability lam/q, else a batch departure (removing
    m) when the state is at least m, else a self-loop.  One Philox stream
    first draws each replication's event count in every interval between
    horizons (Poisson, never truncated), so a horizon sees the state after
    its cumulative count of events.  The replications are stably sorted by
    descending total, which keeps the ones with events left a prefix, and
    round k records every (replication, horizon) pair whose count is k and
    then draws one uniform per replication still live.

    Every start shares that stream.  A departure removes exactly m, so the
    residue of the state mod m moves only with the arrivals, and the level
    floor(state / m) is a reflected walk (Lindley 1952; Bailey 1954).
    After k events, A of them arrivals, a start n = m l0 + c with c < m has
    free walk W = floor((c + A) / m) - (k - A), which arrivals lift by the
    carries of c + A and every other event lowers by 1.  At level 0 such
    an event is a self-loop (the level goes to max(level - 1, 0)), so the
    level is W plus the reflection max(l0, -L), L the running minimum of W
    over 0..k (W = 0 at k = 0).
    So the state is m (W + max(l0, -L)) + (c + A) mod m, and one A and one
    L per residue class c in use carry every start.  Round k costs one
    draw, one compare and one pass for A, then four passes per class.
    The run takes about q * max(horizons) rounds and reps * q *
    max(horizons) draws whatever the load; memory is O(reps * horizons).

    Returns, per start, int64 counts of shape (len(horizons), S), S one past
    the larger of the start and the largest state counted: a list for a
    sequence of starts, the one array for a single int start.
    """
    hs = np.asarray(horizons, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    q = p.lam + p.mu
    events = np.cumsum(rng.poisson(q * np.diff(hs, prepend=0.0), size=(reps, hs.size)), axis=1)
    # small unsigned keys let numpy's stable sort run as a radix sort
    events = events.astype(np.min_scalar_type(events[:, -1].max()))
    total = events[:, -1]
    events = events[np.argsort(total.max() - total, kind="stable")]
    # (replication, horizon) pairs grouped by the event count that ends at the horizon
    flat = events.ravel()
    pairs = np.argsort(flat, kind="stable")
    pair_rep = pairs // hs.size
    edges = np.concatenate(([0], np.cumsum(np.bincount(flat)))).tolist()
    live = (reps - np.cumsum(np.bincount(events[:, -1]))).tolist()  # replications with > k events
    m = p.m
    ns = np.atleast_1d(starts).tolist()
    classes = sorted({n % m for n in ns})
    arrivals = np.zeros(reps, dtype=np.int32)
    low = {c: np.zeros(reps, dtype=np.int32) for c in classes}  # running minima L of W
    seen_arrivals = np.empty(pairs.size, dtype=np.int32)
    seen_low = {c: np.empty(pairs.size, dtype=np.int32) for c in classes}
    u = np.empty(reps)
    walk = np.empty(reps, dtype=np.int32)
    p_arrive = p.lam / q
    for k, n_live in enumerate(live):
        lo, hi = edges[k], edges[k + 1]
        if hi > lo:
            at = pair_rep[lo:hi]
            seen_arrivals[lo:hi] = arrivals[at]
            for c in classes:
                seen_low[c][lo:hi] = low[c][at]
        if n_live == 0:
            break
        a = arrivals[:n_live]
        a += rng.random(out=u[:n_live]) < p_arrive
        w = walk[:n_live]
        for c in classes:
            # W after k + 1 events: floor((c + A - m (k + 1)) / m) + A
            np.add(a, c - m * (k + 1), out=w)
            w //= m
            w += a
            np.minimum(low[c][:n_live], w, out=low[c][:n_live])
    # after k events the state from n is n + A - m (k - A) + m max(0, -(l0 + L))
    free = seen_arrivals - m * (flat[pairs].astype(np.int32) - seen_arrivals)
    counts = []
    for n in ns:
        state = n + free + m * np.maximum(0, -(n // m) - seen_low[n % m])
        S = max(n, int(state.max())) + 1
        flat_counts = np.bincount((pairs % hs.size) * S + state, minlength=hs.size * S)
        counts.append(flat_counts.reshape(hs.size, S))
    return counts if np.ndim(starts) else counts[0]


def _mc_result(counts: np.ndarray, reps: int) -> McResult:
    """Frequencies and binomial standard errors from one horizon's state counts."""
    freq = np.trim_zeros(counts, "b") / reps
    return McResult(freq=freq, stderr=np.sqrt(freq * (1.0 - freq) / reps), replications=reps)


def simulate_mc(p: QueueParams, cfg: McConfig) -> McResult:
    """Vectorized lockstep runs of the uniformized queue up to one horizon.

    Each replication sees Poisson((lam + mu) * horizon) events, drawn up
    front and never truncated, so the law is exact; each event is an
    arrival with probability lam/(lam+mu), else a batch departure removing
    m when at least m wait, else a self-loop.  This is the one-start,
    one-horizon case of the run :func:`cross_validate` makes per set of
    times, on one counter-based (Philox) stream, so a given seed reproduces
    the result bit for bit.  It costs about replications * (lam + mu) * horizon
    uniform draws, whatever the load (see the module docstring for where
    that is slow).
    """
    validate_params(p)
    counts = _lockstep(p, (cfg.start,), (cfg.horizon,), cfg.replications, cfg.seed)[0]
    return _mc_result(counts[0], cfg.replications)


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


def _grid_queries(grid) -> list[TransitionQuery]:
    """One single-time query per (n, r, t) triple of ``grid``, built before any engine runs."""
    if not np.iterable(grid):
        raise ValueError(f"grid must be an iterable of (n, r, t) triples, got {grid!r}")
    queries = []
    for point in grid:
        try:
            n, r, t = point
            queries.append(TransitionQuery(n, r, (t,)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"grid point (n, r, t) = {point!r}: {exc}") from exc
    return queries


def _grouped(pairs) -> dict:
    """The distinct values per key of ``(key, value)`` pairs, both in ascending order."""
    out = defaultdict(set)
    for key, value in pairs:
        out[key].add(value)
    return {key: sorted(values) for key, values in sorted(out.items())}


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

    Each engine runs once per time or per set of times, not per point:
    the uniformization rows up to the largest start and one Picard block
    per time, one simulation per set of times for every start with
    exactly those times, and one :func:`~bulkq.transition.transition_block`
    call for the grid.  The starts share the stream of ``seed`` on
    purpose: each start's counts are those of a run from it alone, so the
    column does not depend on which other starts the grid holds, but the
    Monte Carlo errors of different starts are correlated.

    Raises
    ------
    ValueError
        If ``mc_reps`` or ``seed`` is not an integer >= 0 (``mc_reps = 0``
        runs no simulation), or a state is not an integer in [0, STATE_CAP]
        or a time is not finite and >= 0; all are checked before any engine
        runs.
    """
    validate_params(p)
    require_int("mc_reps", mc_reps, 0)
    require_int("seed", seed, 0)
    queries = _grid_queries(grid)
    pts = [(q.n, q.r, q.times[0]) for q in queries]
    if not pts:
        return CrossReport(
            rows=(), max_spectral_diff=0.0, max_picard_diff=0.0,
            mc_within_3se=None, decay_rel_err=None, passed=True,
        )
    n_max = max(n for n, _, _ in pts)
    r_max = max(r for _, r, _ in pts)
    N = truncation_size(p, max(t for _, _, t in pts), n_max + r_max + 2)
    starts_at = _grouped((t, n) for n, _, t in pts)
    times_from = _grouped((n, t) for n, _, t in pts)
    mats = {t: expm_uniformization(p, N, t, rows=n_max + 1) for t in starts_at}
    N = max(mat.shape[1] for mat in mats.values())  # pick up any auto-doubling
    gen_t = _BandedT(p.m, generator_bands(p), N)
    pic: dict[tuple[int, float], np.ndarray] = {}
    for t, starts in starts_at.items():
        block = _picard_chain(p, gen_t, starts, t)
        pic.update(((n, t), block[:, j]) for j, n in enumerate(starts))
    mc: dict[tuple[int, float], McResult] = {}
    if mc_reps > 0:
        for horizons, starts in _grouped((tuple(ts), n) for n, ts in times_from.items()).items():
            for n, counts in zip(starts, _lockstep(p, starts, horizons, mc_reps, seed)):
                mc.update(((n, t), _mc_result(row, mc_reps)) for t, row in zip(horizons, counts))
    spec = [res.values[0] for res in transition_block(p, queries)]
    rows = []
    worst_spec = worst_pic = 0.0
    mc_hits = mc_cells = 0
    for (n, r, t), value in zip(pts, spec):
        unif = float(mats[t][n, r])
        pica = float(pic[n, t][r])
        worst_spec = max(worst_spec, abs(value - unif))
        worst_pic = max(worst_pic, abs(pica - unif))
        sim = math.nan
        if mc_reps > 0:
            res = mc[n, t]
            sim = float(res.freq[r]) if r < len(res.freq) else 0.0
            if unif * mc_reps >= 10.0:  # only cells with real expected mass
                se = max(float(res.stderr[r]) if r < len(res.freq) else 0.0, 1e-12)
                mc_cells += 1
                mc_hits += abs(sim - unif) <= 3.0 * se
        rows.append((n, r, t, value, unif, pica, sim))
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
