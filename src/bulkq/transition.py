"""Transient transition probabilities of the queue.

P_{n,r}(t) inverts the Laplace transform of the resolvent entry on Talbot's
contour (Weideman & Trefethen, Math. Comp. 76, 2007).  One banded solve per
node gives a resolvent row down to its start; past the start the row is
exactly a power of the dominant branch; point queries, row sums and the
chain rule share that evaluator.  Each accepted input gets a value within
1e-6 of uniformization or a typed ``BulkqError``.  Values are tested at
lam = 1, m in {1, 3, 6}, load 0.5 to 1.5 and t from 1e-8 to 100.  From m = 4
on, t of about 15 to 50 can be refused ((lam, mu, m) = (1, 0.5, 6) at t = 20),
when a pole or arm that matters lies outside the contour or the rules differ.
The guard's poles, from
:func:`~bulkq.spectral.resolvent_poles`, and arm samples are built once per
parameter set.  States and times pass :mod:`bulkq.model`'s checks, states
up to ``STATE_CAP`` = 64.  On top sit honesty (row sums), the chain rule,
and the decay rate with a late-window fit of the transient part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebraic import dominant_roots, star_geometry
from .errors import QuadratureNotConverged, TailNotControlled
from .model import QueueParams, branch_config, poisson_quantile, poisson_tail, validate_params
from .model import require_state, require_time
from .spectral import arm_pole_residues, resolvent_poles

__all__ = [
    "TransitionQuery",
    "TransitionResult",
    "transition_block",
    "transition_spectral",
    "honesty_check",
    "semigroup_check",
    "decay_rate",
    "fitted_decay_rate",
]

#: largest accepted rule gap, and largest weight of a singularity left outside
TRANS_TOL = 1e-9
#: analytic probabilities may poke this far outside [0, 1]
EPS_NEG = 1e-7
#: largest start/end state the point engine accepts (desk scale)
STATE_CAP = 64
#: Poisson tail budget for honesty / chain-rule cutoffs
TAIL_TOL = 1e-8

#: Talbot nodes per time, and the denser rule on the same curve whose gap is
#: the error estimate.  A coarser rule on its own, narrower curve would not
#: do: at (1.5, 0.2, 6) and t = 10, 32 nodes err by 5e-6 where 48 give 4e-11.
NODES = 48
NODES_CHECK = 64
#: Weideman-Trefethen contour s(th) = (NODES/t)(A th cot(B th) - C + i D th)
_TALBOT_A, _TALBOT_B, _TALBOT_C, _TALBOT_D = 0.5017, 0.6407, 0.6122, 0.2645
_T_MIN = 1e-290  # shorter times overflow the node scale NODES / t
#: the two rules' nodes within a row of :func:`_nodes`
_RULES = (slice(0, NODES // 2), slice(NODES // 2, None))


@dataclass(frozen=True, slots=True)
class TransitionQuery:
    """Start state, end state, and the evaluation times.

    The CLI and ``cross_validate`` build every query before any engine runs.

    Parameters
    ----------
    n, r : int
        States up to ``STATE_CAP``, as :func:`~bulkq.model.require_state` returns them.
    times : sequence of float
        Nonempty and ascending times, each through :func:`~bulkq.model.require_time`;
        a tuple of floats is kept as it is, anything else is copied into one.
    """

    n: int
    r: int
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", require_state("n", self.n, STATE_CAP))
        object.__setattr__(self, "r", require_state("r", self.r, STATE_CAP))
        ts = self.times
        if type(ts) is tuple and all(type(t) is float for t in ts):
            for t in ts:
                require_time("times", t)
        else:
            if isinstance(ts, (str, bytes)) or not np.iterable(ts):
                raise ValueError(f"times must be a sequence of times, got {ts!r}")
            ts = tuple(require_time("times", t) for t in ts)
            object.__setattr__(self, "times", ts)
        if not ts:
            raise ValueError("need at least one evaluation time")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"times must be ascending, got {ts}")


@dataclass(frozen=True, slots=True)
class TransitionResult:
    """Per-time values of P_{n,r} with their error estimates.

    Values must land in [-1e-7, 1 + 1e-7].
    """

    values: tuple[float, ...]
    error_estimate: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.error_estimate):
            raise ValueError("values and error_estimate must have equal length")
        for v in self.values:
            if not -EPS_NEG <= v <= 1.0 + EPS_NEG:
                raise ValueError(f"analytic probability out of range: {v}")


def decay_rate(p: QueueParams) -> float:
    """Largest real part over the spectral support of the generator.

    Closed form ``-lam - mu + lam * a(mu/lam)`` with ``a`` the arm length of
    the rescaled star.  The arithmetic-geometric mean inequality puts this
    at or below zero for every parameter choice, with equality exactly on
    the critical line ``lam = m mu``; only round-off can leak a positive
    sliver there, which is clamped.
    """
    validate_params(p)
    arm = star_geometry(branch_config(p)).arm_length
    return min(-p.lam - p.mu + p.lam * arm, 0.0)


# --------------------------------------------------------------------------
# Talbot contour and the resolvent-row solve


def _talbot(K: int, t) -> tuple[np.ndarray, np.ndarray]:
    """Upper-half nodes and weights of the K-node midpoint rule at time t, or a column of times.

    The curve is the one tuned for ``NODES`` nodes whatever K is, so two rules differ by
    discretisation alone.  For F real on the real axis the inverse transform is
    ``Im(sum(weights * F(nodes)))``.  Both are the t-free :func:`_talbot_unit` arrays over t.
    """
    return tuple(a / t for a in _talbot_unit(K))


@lru_cache(maxsize=None)
def _talbot_unit(K: int) -> tuple[np.ndarray, np.ndarray]:
    """``s t`` at the K-node rule's nodes, and ``t`` times their weights ``(2/K) e^{st} ds``."""
    th = (np.arange(K // 2) + 0.5) * (2.0 * math.pi / K)
    b = _TALBOT_B * th
    st = NODES * (_TALBOT_A * th / np.tan(b) - _TALBOT_C + 1j * _TALBOT_D * th)
    dst = NODES * (_TALBOT_A * (1.0 / np.tan(b) - b / np.sin(b) ** 2) + 1j * _TALBOT_D)
    return st, (2.0 / K) * np.exp(st) * dst


@lru_cache(maxsize=64)
def _singular_points(p: QueueParams) -> np.ndarray:
    """The resolvent poles and 65 samples per arm of the star, in the generator's x."""
    geo = star_geometry(branch_config(p))
    arms = np.multiply.outer(geo.rotation ** np.arange(geo.arm_count), np.linspace(0, 1, 65))
    poles = [x for x, _, _ in resolvent_poles(p)]
    x = np.concatenate([poles, p.lam * geo.arm_length * arms.ravel() - p.lam - p.mu])
    x.setflags(write=False)
    return x


def _guard(p: QueueParams, t: np.ndarray) -> None:
    """Refuse if a pole or arm point of weight above TRANS_TOL escapes the curve at a time of t.

    The weight of x is ``e^{t Re x}``.  x is inside when it lies left of the
    curve at height |Im x|; above the end of the arc it is outside.  The
    points do not depend on t and are computed once per p.  t is a column of
    ascending times, checked in one pass; the message names the first refused.
    """
    if t.min() < _T_MIN:
        raise QuadratureNotConverged(
            f"t={t.min():g} is below {_T_MIN:g}, where the contour overflows"
        )
    x = _singular_points(p)
    weight = np.exp(t * x.real)
    th = np.clip(np.abs(x.imag) * t / (_TALBOT_D * NODES), 1e-12, math.pi)
    edge = (NODES / t) * (_TALBOT_A * th / np.tan(_TALBOT_B * th) - _TALBOT_C)
    escaped = ((th >= math.pi) | (x.real >= edge)) & (weight > TRANS_TOL)
    if np.any(escaped):
        i = int(np.argmax(escaped.any(axis=1)))
        k = int(np.argmax(np.where(escaped[i], weight[i], 0.0)))
        raise QuadratureNotConverged(
            f"at t={t[i, 0]:g} the singular point x={complex(x[k]):.6g} lies outside the "
            f"Talbot contour with weight e^(t Re x) = {weight[i, k]:.2e} above {TRANS_TOL:.0e}"
        )


@lru_cache(maxsize=64)
def _nodes(p: QueueParams, times: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guarded contour data at the ascending ``times``, cached: callers must not mutate it.

    A row per time of nodes, ``NODES`` then ``NODES_CHECK`` of them (the two slices of
    ``_RULES``), their weights, and the dominant root at every node from one batched solve.
    """
    t = np.array(times)[:, None]
    _guard(p, t)
    s, w = (np.hstack(rule) for rule in zip(_talbot(NODES, t), _talbot(NODES_CHECK, t)))
    return s, w, dominant_roots(branch_config(p), (s + p.lam + p.mu) / p.lam)


def _resolvent_rows(
    p: QueueParams, starts: np.ndarray, J: int, s: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Entries 0..J-1 of the resolvent rows ``n in starts`` at every node.

    Solves ``(s - A)^T y = e_n``.  Past its start the row solves the
    homogeneous recurrence, whose only decaying solution is a power of the
    dominant root: row r > J-1 is exactly ``y_{J-1} omega**-(r-J+1)``.  That
    folds into column J-1 and leaves a band with one diagonal below and m
    above, eliminated without pivoting; the forward sweep of y starts at the
    lowest start, since rows below it are zero until the back-substitution.
    Needs ``m <= J`` and starts below J; the shape is (J, starts, nodes).
    """
    lam, mu, m = p.lam, p.mu, p.m
    band = np.zeros((J, m + 1, s.size), dtype=complex)  # band[r, d] multiplies y[r + d]
    band[:, 0] = s + lam + mu
    band[:m, 0] -= mu
    band[: J - m, m] = -mu
    for r in range(J - m, J):
        band[r, J - 1 - r] -= mu * (1.0 / omega) ** (r + m - J + 1)
    y = np.zeros((J, len(starts), s.size), dtype=complex)
    y[starts, np.arange(len(starts))] = 1.0
    lo = int(np.min(starts))
    for k in range(J - 1):
        f = lam / band[k, 0]
        band[k + 1, :m] += f * band[k, 1:]
        if k >= lo:
            y[k + 1] += f * y[k]
    for k in range(J - 1, -1, -1):
        top = min(m, J - 1 - k)
        if top:
            y[k] -= np.einsum("dn,dsn->sn", band[k, 1 : top + 1], y[k + 1 : k + top + 1])
        y[k] /= band[k, 0]
    return y


def _transition_block(p: QueueParams, starts, rmax: int, times) -> tuple[np.ndarray, np.ndarray]:
    """P_{n,r}(t) and error estimates for n in ``starts``, r <= rmax, each time.

    Arrays of shape (len(starts), rmax + 1, len(times)).  The banded solve
    stops at row max(max start, m - 1); rows past it, up to rmax, are that
    row times powers of ``1/omega``, omega the dominant root.  Time zero is
    exact, P(0) = I.  Below ``_T_MIN`` the contour overflows, so there the
    value is I with error estimate (lam + mu) t, the most probability that
    can leave a state by time t, if that is within ``TRANS_TOL``.  Otherwise
    the value is the ``NODES``-node integral of the resolvent row and the
    error its gap to the ``NODES_CHECK``-node one, which must stay within
    ``TRANS_TOL`` (relative, floored at scale 1), or
    ``QuadratureNotConverged`` is raised, as it is when :func:`_guard` is.
    """
    starts = np.asarray(list(starts), dtype=int)
    times = np.asarray(times, dtype=float)
    eye = starts[:, None, None] == np.arange(rmax + 1)[:, None]
    vals = np.broadcast_to(eye, (starts.size, rmax + 1, times.size)).astype(float)
    errs = np.zeros_like(vals)
    rate = p.lam + p.mu
    tiny = (times > 0.0) & (times < _T_MIN) & (times <= TRANS_TOL / rate)
    errs[:, :, tiny] = rate * times[tiny]
    live = np.flatnonzero((times > 0.0) & ~tiny)
    if live.size:
        s, weights, omega = _nodes(p, tuple(times[live].tolist()))
        J = max(int(starts.max()) + 1, p.m)
        y = _resolvent_rows(p, starts, J, s.ravel(), omega.ravel())
        k = np.arange(1, rmax + 2 - J)[:, None, None]  # empty unless rmax >= J
        y = np.concatenate([y, y[-1] * (1.0 / omega.ravel()) ** k])[: rmax + 1]
        y = y.reshape(y.shape[:2] + s.shape)
        est = [np.einsum("rakn,kn->ark", y[..., q], weights[:, q]).imag for q in _RULES]
        gap = np.abs(est[0] - est[1])
        bad = np.argwhere(gap > TRANS_TOL * np.maximum(1.0, np.abs(est[0])))
        if bad.size:
            i, r, k = bad[0]
            raise QuadratureNotConverged(
                f"P_({starts[i]},{r})(t={times[live[k]]:g}): the {NODES}- and "
                f"{NODES_CHECK}-node Talbot rules differ by {gap[i, r, k]:.2e}"
            )
        vals[:, :, live], errs[:, :, live] = est[0], gap
    return vals, errs


# --------------------------------------------------------------------------
# public engine


def transition_block(p: QueueParams, queries) -> tuple[TransitionResult, ...]:
    """Evaluate many queries by the spectral formula in one block solve.

    Returns one result per :class:`TransitionQuery`, in the order given.
    One banded solve per node covers the distinct starts and the union of
    the times.  It stops at the largest start (or at row m - 1); every r
    past it, up to the largest one queried, is that row times a power of
    the dominant root.  A time of zero is answered exactly, P(0) = I, and a
    time below 1e-290 by P(t) = I with error estimate (lam + mu) t while
    that is within ``TRANS_TOL``.
    The rest integrate resolvent rows on Talbot's contour; the gap between
    the 48- and 64-node rules is the error estimate and must stay within
    ``TRANS_TOL`` = 1e-9 (relative, floored at scale 1).

    Raises
    ------
    QuadratureNotConverged
        If at some time a pole or arm that matters lies outside the
        contour, the two rules disagree in any solved cell, or a time
        below 1e-290 has (lam + mu) t above ``TRANS_TOL``.
    """
    validate_params(p)
    queries = tuple(queries)
    if not queries:
        return ()
    starts = sorted({q.n for q in queries})
    times = sorted({t for q in queries for t in q.times})
    block = _transition_block(p, starts, max(q.r for q in queries), times)
    vals, errs = (a.tolist() for a in block)
    row, col = {n: i for i, n in enumerate(starts)}, {t: k for k, t in enumerate(times)}
    out = []
    for q in queries:
        v, e = vals[row[q.n]][q.r], errs[row[q.n]][q.r]
        ks = [col[t] for t in q.times]
        out.append(TransitionResult(tuple(v[k] for k in ks), tuple(e[k] for k in ks)))
    return tuple(out)


def transition_spectral(p: QueueParams, q: TransitionQuery) -> TransitionResult:
    """P_{n,r}(t) at each query time: :func:`transition_block` of the one query.

    Every r' <= r of the row of n is solved, and each must converge.
    """
    return transition_block(p, (q,))[0]


#: tail budget for the internal summation cutoff (below the honesty tol)
_WORK_TAIL = 1e-9


def _work_cutoff(p: QueueParams, n: int, t: float, label: str, cutoff: int, what: str) -> int:
    """Last state summed from n at time t, if ``P[Pois(lam t) > cutoff - n] < TAIL_TOL``."""
    tail = poisson_tail(cutoff - n, p.lam * t)
    if tail >= TAIL_TOL:
        raise TailNotControlled(
            f"{what} {tail:.3e} above {TAIL_TOL:.0e} at cutoff {label}={cutoff}"
        )
    return int(min(cutoff, n + poisson_quantile(p.lam * t, _WORK_TAIL) + 2))


def honesty_check(p: QueueParams, n: int, t: float, R: int) -> float:
    """Partial row sum ``sum_{r <= R} P_{n,r}(t)`` of the spectral engine.

    The state climbs only by single arrivals, so the chance of exceeding
    the cutoff from n by time t is at most the Poisson tail
    ``P[Pois(lam t) > R - n]``; the cutoff must keep that below 1e-8.

    Entries above the same quantile at budget 1e-9 are below round-off
    relevance and are not evaluated.

    Raises
    ------
    TailNotControlled
        If the cutoff leaves too much probability above R.
    ValueError
        If n or R is not an integer >= 0, or t is not finite and >= 0.
    """
    validate_params(p)
    n, R, t = require_state("n", n), require_state("R", R), require_time("t", t)
    work = _work_cutoff(p, n, t, "R", R, "Poisson tail")
    vals, _ = _transition_block(p, [n], work, (t,))
    return float(np.sum(vals))


def semigroup_check(
    p: QueueParams, n: int, r: int, s: float, t: float, K: int
) -> float:
    """Chain-rule residual ``|P_{n,r}(s+t) - sum_{k <= K} P_{n,k}(s) P_{k,r}(t)|``.

    The intermediate-state cutoff must control the Poisson upcrossing tail
    ``P[Pois(lam s) > K - n] < 1e-8``.  As in :func:`honesty_check`, the
    sum is actually evaluated up to the 1e-9 quantile: the dropped terms
    are bounded by that tail, each column factor being at most 1.

    Raises
    ------
    TailNotControlled
        If the cutoff leaves too much intermediate probability above K.
    ValueError
        If n, r or K is not an integer >= 0, or s or t is not finite and >= 0.
    """
    validate_params(p)
    n, r, K = require_state("n", n), require_state("r", r), require_state("K", K)
    s, t = require_time("s", s), require_time("t", t)
    work = _work_cutoff(p, n, s, "K", K, "intermediate tail")
    row, _ = _transition_block(p, [n], max(work, r), (s, s + t))
    block, _ = _transition_block(p, range(work + 1), r, (t,))
    chain = row[0, : work + 1, 0] @ block[:, r, 0]
    return abs(float(row[0, r, 1]) - float(chain))


#: the late window of the decay fit and its number of equispaced times
_FIT_WINDOW = (5.0, 30.0)
_FIT_POINTS = 26


def fitted_decay_rate(p: QueueParams) -> float:
    """Exponential rate of the transient part of P_{0,0} on a late window.

    Subtracts every resolvent-pole mode (steady state and rotating modes)
    from P_{0,0}(t), each weighted by its atom in sigma_0, a pole on an arm
    with the mean of its two one-sided residues
    (:func:`~bulkq.spectral.arm_pole_residues`), then least-squares fits
    ``log y = c0 - (3/2) log t + rate * t + c1 / t``; the -3/2 power is the
    branch-point contribution at the arm tip.  Meaningful only for clearly
    subcritical parameters — the window cannot resolve rates near zero.

    Raises
    ------
    QuadratureNotConverged
        If the transient part drowns in round-off over most of the window.
    """
    validate_params(p)
    ts = np.linspace(*_FIT_WINDOW, _FIT_POINTS)
    vals = np.asarray(transition_spectral(p, TransitionQuery(0, 0, tuple(ts))).values)
    modes = [(x, res) for x, _, res in resolvent_poles(p)] + list(arm_pole_residues(p))
    for x, res in modes:
        vals = vals - (res[0] * np.exp(x * ts)).real
    keep = vals > 0.0
    if int(keep.sum()) < max(8, _FIT_POINTS // 2):
        raise QuadratureNotConverged(
            "transient part of P_00 lost to round-off on the fit window"
        )
    tk, yk = ts[keep], vals[keep]
    design = np.column_stack([np.ones_like(tk), tk, 1.0 / tk])
    sol, *_ = np.linalg.lstsq(design, np.log(yk) + 1.5 * np.log(tk), rcond=None)
    return float(sol[1])
