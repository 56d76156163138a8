"""The four workloads: seeded inputs, cache warm-up, the op, and the check.

Why each workload was chosen and which layer it loads:

* ``sweep`` -- a fresh (lam, mu, m), m in {1, 2, 3}, for every query, so every
  op pays the tube-pack build; loads ``algebraic.solve_branches`` (the per-node branch
  solve is about 99% of that build) and bypasses every cache.
* ``grid`` -- ``bulkq transition --json`` on 9x9x5 blocks with packs warmed
  in set-up; loads the warm contraction, the panel ladder and the CLI, and
  runs no branch solve while timed.
* ``xval`` -- ``cross_validate`` with Monte Carlo on warmed parameter sets;
  loads the oracle layer (simulation, uniformization, the Picard chain) and
  the decay fit, which no other workload reaches.
* ``deep`` -- single (n, r) pairs drawn over [0, 64]^2 with times up to 100,
  one set at criticality; the only workload whose ladder climbs to 48
  panels and whose ops fail today (``QuadratureNotConverged``).

Every workload runs in whole cycles.  A cycle visits each of its parameter
sets (or strata) equally often, so the median of a run is taken over the
same mix whatever the run length.  Inputs depend only on the seed and the
cycle number.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

#: largest difference from uniformization a value may have (the package's
#: SPECTRAL_VS_EXPM policy, fixed here so the benchmark cannot be loosened
#: from inside the package)
TOL = 1e-6
STATE_CAP = 64


class Reference:
    """Uniformization matrices, one per (parameter set, time), built on demand."""

    def __init__(self, bq, max_state: int) -> None:
        self.bq = bq
        self.max_state = max_state
        self._mats: dict = {}

    def value(self, p, n: int, r: int, t: float) -> float:
        key = (p, t)
        if key not in self._mats:
            size = 64
            floor = max(4 * (p.m + p.lam * t), 2 * (2 * self.max_state + 2))
            while size < floor:
                size *= 2
            self._mats[key] = self.bq.expm_uniformization(p, size, t, rows=self.max_state + 1)
        return float(self._mats[key][n, r])


class Workload:
    """Base class: subclasses define ``cycle``, ``run`` and ``check``."""

    #: cycles a traced run executes (fixed, so counters repeat exactly)
    trace_cycles = 1

    def __init__(self, bq, seed: int) -> None:
        self.bq = bq
        self.rng = random.Random(seed)

    def warm(self) -> None:
        """Cache warm-up that belongs to the workload's set-up."""

    def cycle(self, k: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, results) -> list:
        """Reasons, one per op, why a returned output is wrong (None if right).

        ``results`` is a list of ``(inp, out)`` for the ops that returned.
        """
        raise NotImplementedError


def check_queries(ref: Reference, results) -> list:
    """Check ``transition_spectral`` values of ``((p, query), values)`` pairs."""
    reasons = []
    for (p, q), values in results:
        worst = max(abs(v - ref.value(p, q.n, q.r, t)) for v, t in zip(values, q.times))
        reasons.append(None if worst <= TOL else f"{p} {q}: |diff| {worst:.2e}")
    return reasons


# --------------------------------------------------------------- sweep


class Sweep(Workload):
    """One cold ``transition_spectral`` query per fresh parameter set."""

    trace_cycles = 8
    #: Batch sizes, one query each per cycle.  For m >= 4 the panel ladder
    #: climbs to 48 panels on 5-20% of draws, so the number of climbs a seed
    #: happens to draw moved ops_per_s by up to a quarter between seeds; cold
    #: builds at m = 6 are timed in the set-up of ``grid`` and ``deep``.  An
    #: odd count keeps the median inside one stratum instead of in a gap.
    M_STRATA = (1, 2, 3)

    def __init__(self, bq, seed: int) -> None:
        super().__init__(bq, seed)
        self._seen: set = set()

    def _draw_params(self, m: int):
        rng = self.rng
        lam = rng.uniform(0.4, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 2.5)
        rho = rng.uniform(0.3, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.8)
        p = self.bq.QueueParams(lam=lam, mu=lam / (m * rho), m=m)
        for key in ((p.lam, p.mu, p.m), ("ratio", p.mu / p.lam)):
            if key in self._seen:
                raise RuntimeError(f"sweep drew a repeated parameter set: {p}")
            self._seen.add(key)
        return p

    def cycle(self, k: int) -> list:
        out = []
        for m in self.M_STRATA:
            p = self._draw_params(m)
            n, r = self.rng.randint(0, 8), self.rng.randint(0, 8)
            times = tuple(sorted(self.rng.uniform(0.05, 5.0) for _ in range(3)))
            out.append((p, self.bq.TransitionQuery(n, r, times)))
        return out

    def run(self, inp):
        p, q = inp
        return self.bq.transition_spectral(p, q).values

    def check(self, results) -> list:
        return check_queries(Reference(self.bq, 8), results)


# ---------------------------------------------------------------- grid


class Grid(Workload):
    """``bulkq transition --json`` on a 9x9x5 block; one op is one CLI call."""

    trace_cycles = 6
    #: load below, at and above criticality (rho = 0.5, 1, 1.25)
    SETS = ((1.0, 2.0, 1), (1.2, 0.4, 3), (1.5, 0.2, 6))

    def __init__(self, bq, seed: int) -> None:
        super().__init__(bq, seed)
        self.blocks = []
        for lam, mu, m in self.SETS:
            p = bq.QueueParams(lam=lam, mu=mu, m=m)
            times = tuple(self.rng.uniform(k + 0.5, k + 1.0) for k in range(5))
            args = ["transition", "--lambda", repr(p.lam), "--mu", repr(p.mu), "--m", str(m)]
            for flag in ("--n", "--r"):
                for s in range(9):
                    args += [flag, str(s)]
            for t in times:
                args += ["--t", repr(t)]
            self.blocks.append((p, times, args + ["--json"]))

    def warm(self) -> None:
        for block in self.blocks:
            self.run(block)

    def cycle(self, k: int) -> list:
        return list(self.blocks)

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.bq.cli.main(inp[2], standalone_mode=False)
        return buf.getvalue()

    def check(self, results) -> list:
        ref = Reference(self.bq, 8)
        reasons = []
        for (p, times, _), text in results:
            rows = json.loads(text)["rows"]
            got = {(row["n"], row["r"], row["t"]): row["spectral"] for row in rows}
            want = {(n, r, t) for n in range(9) for r in range(9) for t in times}
            if set(got) != want:
                reasons.append(f"{p}: CLI returned {len(got)} of {len(want)} cells")
                continue
            worst = max(abs(v - ref.value(p, n, r, t)) for (n, r, t), v in got.items())
            reasons.append(None if worst <= TOL else f"{p}: |diff| {worst:.2e}")
        return reasons


# ---------------------------------------------------------------- xval


class Xval(Workload):
    """``cross_validate`` with Monte Carlo over a 9x9x3 grid up to t = 30."""

    trace_cycles = 2
    #: the last two have decay_rate <= -0.25, so the decay fit runs on them
    SETS = ((1.2, 0.8, 3), (0.5, 2.0, 1), (0.8, 1.5, 2))
    MC_REPS = 20_000

    def __init__(self, bq, seed: int) -> None:
        super().__init__(bq, seed)
        self.cases = []
        for lam, mu, m in self.SETS:
            p = bq.QueueParams(lam=lam, mu=mu, m=m)
            # the longest time sets the cost of every oracle, so its stratum is narrow
            times = (
                self.rng.uniform(0.5, 2.0), self.rng.uniform(4.0, 10.0), self.rng.uniform(28.0, 30.0)
            )
            grid = [(n, r, t) for n in range(9) for r in range(9) for t in times]
            self.cases.append((p, times, grid))

    def warm(self) -> None:
        bq = self.bq
        for p, times, _ in self.cases:
            for n in range(9):
                for r in range(9):
                    bq.transition_spectral(p, bq.TransitionQuery(n, r, times))
            if bq.decay_rate(p) <= bq.oracle.DECAY_MARGIN:
                bq.transition.fitted_decay_rate(p)

    def cycle(self, k: int) -> list:
        return [(p, grid, self.rng.randrange(2**32)) for p, _, grid in self.cases]

    def run(self, inp):
        p, grid, mc_seed = inp
        return self.bq.cross_validate(p, grid, mc_reps=self.MC_REPS, seed=mc_seed)

    def check(self, results) -> list:
        ref = Reference(self.bq, 8)
        reasons = []
        for (p, grid, _), report in results:
            if not report.passed:
                reasons.append(f"{p}: CrossReport.passed is False")
                continue
            if len(report.rows) != len(grid):
                reasons.append(f"{p}: {len(report.rows)} rows for {len(grid)} points")
                continue
            worst = max(abs(row[3] - ref.value(p, row[0], row[1], row[2])) for row in report.rows)
            reasons.append(None if worst <= TOL else f"{p}: |diff| {worst:.2e}")
        return reasons


# ---------------------------------------------------------------- deep


class Deep(Workload):
    """Single pairs over [0, 64]^2, drawn from each cell of an 8x8 stratification."""

    trace_cycles = 1
    #: the last set is critical (lam == m mu)
    SETS = ((1.0, 2.0, 1), (1.2, 0.8, 3), (1.0, 0.3, 6), (1.0, 0.5, 2))
    #: fixed, so the seed moves only the pairs and the share of failures stays put
    TIMES = (1.0, 10.0, 100.0)
    STRATA = 8

    def __init__(self, bq, seed: int) -> None:
        super().__init__(bq, seed)
        self.params = [bq.QueueParams(lam=lam, mu=mu, m=m) for lam, mu, m in self.SETS]

    def warm(self) -> None:
        # the far corner exhausts the panel ladder, so every level is built
        for p in self.params:
            for s in (0, STATE_CAP):
                try:
                    self.bq.transition_spectral(p, self.bq.TransitionQuery(s, s, self.TIMES))
                except self.bq.BulkqError:
                    pass

    def _state(self, cell: int) -> int:
        width = STATE_CAP // self.STRATA
        top = STATE_CAP if cell == self.STRATA - 1 else width * (cell + 1) - 1
        return self.rng.randint(width * cell, top)

    def cycle(self, k: int) -> list:
        cells = [(i, j) for i in range(self.STRATA) for j in range(self.STRATA)]
        self.rng.shuffle(cells)
        out = []
        for i, j in cells:
            for p in self.params:
                out.append((p, self.bq.TransitionQuery(self._state(i), self._state(j), self.TIMES)))
        return out

    def run(self, inp):
        p, q = inp
        return self.bq.transition_spectral(p, q).values

    def check(self, results) -> list:
        return check_queries(Reference(self.bq, STATE_CAP), results)


WORKLOADS = {"sweep": Sweep, "grid": Grid, "xval": Xval, "deep": Deep}
