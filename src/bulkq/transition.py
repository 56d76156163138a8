"""Transient transition probabilities of the queue.

P_{n,r}(t) inverts the Laplace transform of the resolvent entry on Talbot's
contour (Weideman & Trefethen, Math. Comp. 76, 2007).  One banded solve per
node gives a whole resolvent row, whose tail past the requested states is
exactly a power of the dominant branch; point queries, row sums and the
chain rule share that evaluator.  It refuses a time at which a pole or arm
that matters lies outside the contour (m = 12 at t = 50, say); m <= 6 is
tested up to t = 100.  The guard's poles, from
:func:`~bulkq.spectral.resolvent_poles`, and arm samples are built once per
parameter set.  On top sit honesty (row sums), the chain rule, and the decay
rate with a late-window fit of the transient part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebraic import AlgebraicConfig, dominant_roots, star_geometry
from .errors import QuadratureNotConverged, TailNotControlled
from .model import QueueParams, poisson_quantile, poisson_tail, validate_params
from .spectral import resolvent_poles

__all__ = [
    "TransitionQuery",
    "TransitionResult",
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


def _check_args(states, times) -> None:
    """Raise ValueError unless states are integers >= 0 and times finite and >= 0."""
    for label, k in states:
        if not (k >= 0 and float(k).is_integer()):
            raise ValueError(f"{label} must be an integer >= 0, got {k}")
    for label, t in times:
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"{label} must be finite and >= 0, got {t}")


@dataclass(frozen=True)
class TransitionQuery:
    """Start state, end state, and the evaluation times.

    Parameters
    ----------
    n, r : int
        Start and end states, both >= 0; integral floats become ints.
    times : sequence of float
        Nonempty, finite, nonnegative, sorted ascending.
    """

    n: int
    r: int
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        ts = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", ts)
        _check_args([("n", self.n), ("r", self.r)], [("times", t) for t in ts])
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "r", int(self.r))
        if not ts:
            raise ValueError("need at least one evaluation time")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"times must be ascending, got {ts}")


@dataclass(frozen=True)
class TransitionResult:
    """Per-time values of P_{n,r} with the engine tag and error estimates.

    The only tag is ``"spectral"``; values must land in [-1e-7, 1 + 1e-7].
    """

    values: tuple[float, ...]
    method: str
    error_estimate: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.method != "spectral":
            raise ValueError(f"method must be 'spectral', got {self.method!r}")
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
    arm = star_geometry(AlgebraicConfig(c=p.mu / p.lam, m=p.m, frame="A")).arm_length
    return min(-p.lam - p.mu + p.lam * arm, 0.0)


# --------------------------------------------------------------------------
# Talbot contour and the resolvent-row solve


def _talbot(K: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper-half nodes and weights of the K-node midpoint rule at time t.

    The curve is the one tuned for ``NODES`` nodes whatever K is, so two
    rules differ by discretisation alone.  For F real on the real axis the
    inverse transform is ``Im(sum(weights * F(nodes)))``.
    """
    th = (np.arange(K // 2) + 0.5) * (2.0 * math.pi / K)
    b = _TALBOT_B * th
    s = (NODES / t) * (_TALBOT_A * th / np.tan(b) - _TALBOT_C + 1j * _TALBOT_D * th)
    ds = (NODES / t) * (_TALBOT_A * (1.0 / np.tan(b) - b / np.sin(b) ** 2) + 1j * _TALBOT_D)
    return s, (2.0 / K) * np.exp(s * t) * ds


@lru_cache(maxsize=64)
def _singular_points(p: QueueParams) -> np.ndarray:
    """The resolvent poles and 65 samples per arm of the star, in the generator frame."""
    geo = star_geometry(AlgebraicConfig(c=p.mu / p.lam, m=p.m, frame="A"))
    arms = np.multiply.outer(geo.rotation ** np.arange(geo.arm_count), np.linspace(0, 1, 65))
    poles = [z for z, _, _ in resolvent_poles(p)]
    x = np.concatenate([poles, p.lam * geo.arm_length * arms.ravel()]) - p.lam - p.mu
    x.setflags(write=False)
    return x


def _guard(p: QueueParams, t: float) -> None:
    """Refuse t if a pole or arm point of weight above TRANS_TOL escapes the curve.

    The weight of x is ``e^{t Re x}``.  x is inside when it lies left of the
    curve at height |Im x|; above the end of the arc it is outside.  The
    points themselves do not depend on t and are computed once per p.
    """
    if t < _T_MIN:
        raise QuadratureNotConverged(f"t={t:g} is below {_T_MIN:g}, where the contour overflows")
    x = _singular_points(p)
    weight = np.exp(t * x.real)
    th = np.clip(np.abs(x.imag) * t / (_TALBOT_D * NODES), 1e-12, math.pi)
    edge = (NODES / t) * (_TALBOT_A * th / np.tan(_TALBOT_B * th) - _TALBOT_C)
    escaped = ((th >= math.pi) | (x.real >= edge)) & (weight > TRANS_TOL)
    if np.any(escaped):
        k = int(np.argmax(np.where(escaped, weight, 0.0)))
        raise QuadratureNotConverged(
            f"at t={t:g} the singular point x={complex(x[k]):.6g} lies outside the "
            f"Talbot contour with weight e^(t Re x) = {weight[k]:.2e} above {TRANS_TOL:.0e}"
        )


@lru_cache(maxsize=256)
def _nodes(p: QueueParams, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guarded contour data at one time, cached: callers must not mutate it.

    Nodes of both rules side by side, one weight row per rule (zero on the
    other rule's nodes), and the dominant root at every node.
    """
    _guard(p, t)
    (s0, w0), (s1, w1) = _talbot(NODES, t), _talbot(NODES_CHECK, t)
    s = np.concatenate([s0, s1])
    cfg = AlgebraicConfig(c=p.mu / p.lam, m=p.m, frame="A")
    weights = np.stack([np.r_[w0, 0 * w1], np.r_[0 * w0, w1]])
    return s, weights, dominant_roots(cfg, (s + p.lam + p.mu) / p.lam)


def _resolvent_rows(
    p: QueueParams, starts: np.ndarray, J: int, s: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Entries 0..J-1 of the resolvent rows ``n in starts`` at every node.

    Solves ``(s - A)^T y = e_n``.  Beyond J-1 the row is exactly
    ``y_{J-1} omega**-(r-J+1)``, which folds into column J-1 and leaves a
    band with one diagonal below and m above, eliminated without pivoting.
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
    for k in range(J - 1):
        f = lam / band[k, 0]
        band[k + 1, :m] += f * band[k, 1:]
        y[k + 1] += f * y[k]
    for k in range(J - 1, -1, -1):
        top = min(m, J - 1 - k)
        if top:
            y[k] -= np.sum(band[k, 1 : top + 1, None] * y[k + 1 : k + top + 1], axis=0)
        y[k] /= band[k, 0]
    return y


def _transition_block(p: QueueParams, starts, rmax: int, times) -> tuple[np.ndarray, np.ndarray]:
    """P_{n,r}(t) and error estimates for n in ``starts``, r <= rmax, each time.

    Arrays of shape (len(starts), rmax + 1, len(times)).  Time zero is exact,
    P(0) = I.  Below ``_T_MIN`` the contour overflows, so there the value is
    I with error estimate (lam + mu) t, the most probability that can leave
    a state by time t, if that is within ``TRANS_TOL``.  Otherwise the value
    is the ``NODES``-node integral of the resolvent row and the error its
    gap to the ``NODES_CHECK``-node one, which must stay within
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
        s, weights, omega = (np.stack(col) for col in zip(*(_nodes(p, times[k]) for k in live)))
        J = max(int(starts.max()) + 1, rmax + 1, p.m)
        y = _resolvent_rows(p, starts, J, s.ravel(), omega.ravel())[: rmax + 1]
        est = np.einsum("rakn,kqn->qark", y.reshape(y.shape[:2] + s.shape), weights).imag
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


def transition_spectral(p: QueueParams, q: TransitionQuery) -> TransitionResult:
    """Evaluate P_{n,r}(t) at each query time by the spectral formula.

    Times equal to zero are answered exactly from P(0) = I, and times
    below 1e-290 from P(t) = I with error estimate (lam + mu) t while that
    is within ``TRANS_TOL``; the rest integrate the resolvent row of n on
    Talbot's contour.  The gap between the 48- and 64-node rules is the
    error estimate and must stay within ``TRANS_TOL`` = 1e-9 (relative,
    floored at scale 1).

    Raises
    ------
    QuadratureNotConverged
        If a pole or arm that matters lies outside the contour at some
        query time, the two rules disagree, or a time below 1e-290 has
        (lam + mu) t above ``TRANS_TOL``.
    ValueError
        If a state index exceeds the desk-scale cap of 64.
    """
    validate_params(p)
    for label, k in (("n", q.n), ("r", q.r)):
        if k > STATE_CAP:
            raise ValueError(f"{label} must be <= {STATE_CAP}, got {k}")
    vals, errs = _transition_block(p, [q.n], q.r, q.times)
    return TransitionResult(
        values=tuple(float(v) for v in vals[0, q.r]),
        method="spectral",
        error_estimate=tuple(float(e) for e in errs[0, q.r]),
    )


#: tail budget for the internal summation cutoff (below the honesty tol)
_WORK_TAIL = 1e-9


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
    _check_args([("n", n), ("R", R)], [("t", t)])
    tail = poisson_tail(R - n, p.lam * t)
    if tail >= TAIL_TOL:
        raise TailNotControlled(
            f"Poisson tail {tail:.3e} above {TAIL_TOL:.0e} at cutoff R={R}"
        )
    work = int(min(R, n + poisson_quantile(p.lam * t, _WORK_TAIL) + 2))
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
    _check_args([("n", n), ("r", r), ("K", K)], [("s", s), ("t", t)])
    tail = poisson_tail(K - n, p.lam * s)
    if tail >= TAIL_TOL:
        raise TailNotControlled(
            f"intermediate tail {tail:.3e} above {TAIL_TOL:.0e} at cutoff K={K}"
        )
    work = int(min(K, n + poisson_quantile(p.lam * s, _WORK_TAIL) + 2))
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
    from P_{0,0}(t), each weighted by its atom in sigma_0, then least-squares fits
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
    for z, _, res in resolvent_poles(p):
        vals = vals - (res[0] * np.exp((z - p.lam - p.mu) * ts)).real
    keep = vals > 0.0
    if int(keep.sum()) < max(8, _FIT_POINTS // 2):
        raise QuadratureNotConverged(
            "transient part of P_00 lost to round-off on the fit window"
        )
    tk, yk = ts[keep], vals[keep]
    design = np.column_stack([np.ones_like(tk), tk, 1.0 / tk])
    sol, *_ = np.linalg.lstsq(design, np.log(yk) + 1.5 * np.log(tk), rcond=None)
    return float(sol[1])
