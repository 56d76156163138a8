"""Per-layer tracing of bulkq from outside the package.

The tracer replaces public functions of bulkq by timing wrappers.  It finds
every place a function is reachable by object identity: it scans the
namespace of each loaded ``bulkq`` module and swaps every attribute that
*is* the function, because modules import each other's functions by name
(``spectral``, ``oracle`` and ``cli`` hold their own references).  Nothing
inside the package is edited, and the lookup keeps working when code moves
between modules as long as the public names stay reachable.

Spans are kept in memory and handed to the caller at the end of the run.
The per-node branch solve is a leaf called thousands of times per pack
build, so it is aggregated into a count and a total per enclosing span
instead of one span per call.
"""

from __future__ import annotations

import sys
import time

from stats import median, self_times

#: (metric prefix, attribute path from the ``bulkq`` package)
SPANNED = (
    ("transition.transition_spectral", "transition_spectral"),
    ("transition.fitted_decay_rate", "transition.fitted_decay_rate"),
    ("cli.main", "cli.main"),
    ("oracle.cross_validate", "cross_validate"),
    ("oracle.simulate_mc", "simulate_mc"),
    ("oracle.expm_uniformization", "expm_uniformization"),
    ("model.build_generator", "build_generator"),
)
#: the aggregated leaf
LEAF = ("algebraic.solve_branches", "solve_branches")


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Collects spans while installed; ``region`` tags what they belong to."""

    def __init__(self) -> None:
        self.region = "setup"
        self.spans: list[tuple] = []
        self.leaf_totals: dict[str, list] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # ----------------------------------------------------------- wrappers

    def spanned(self, name: str, fn):
        """``fn`` wrapped so that every call records one span."""

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            self._next_id += 1
            # id, parent, direct leaf calls, direct leaf seconds, leaf calls incl. descendants
            frame = [self._next_id, parent, 0, 0.0, 0]
            self._stack.append(frame)
            exc = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = type(err).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][4] += frame[4]
                self.spans.append(
                    (frame[0], parent, name, self.region, start, end,
                     frame[2], frame[3], frame[4], exc)
                )

        return wrapper

    def leaf(self, name: str, fn):
        """``fn`` wrapped so that calls only add to counts and totals."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                agg = self.leaf_totals.setdefault(f"{name}@{self.region}", [0, 0.0])
                agg[0] += 1
                agg[1] += dt
                if self._stack:
                    top = self._stack[-1]
                    top[2] += 1
                    top[3] += dt
                    top[4] += 1

        return wrapper

    # ------------------------------------------------------- installation

    def install(self, package) -> None:
        """Swap every reference to a traced function in ``bulkq.*`` modules."""
        wrappers = {}
        for name, path in SPANNED:
            fn = _resolve(package, path)
            wrappers[id(fn)] = (fn, self.spanned(name, fn))
        fn = _resolve(package, LEAF[1])
        wrappers[id(fn)] = (fn, self.leaf(LEAF[0], fn))
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def span_dicts(self) -> list[dict]:
        keys = ("id", "parent", "name", "region", "start", "end",
                "leaf_calls", "leaf_s", "leaf_calls_incl", "exc")
        return [dict(zip(keys, s)) for s in self.spans]

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the timed region (and the leaf's set-up share)."""
        spans = [s for s in self.span_dicts() if s["region"] == "timed"]
        selfs = self_times(spans)
        out: dict[str, float] = {}
        for name, _ in SPANNED:
            mine = [s for s in spans if s["name"] == name]
            out[f"{name}.calls"] = len(mine)
            out[f"{name}.total_s"] = sum(s["end"] - s["start"] for s in mine)
            out[f"{name}.self_s"] = sum(selfs[s["id"]] for s in mine)
        ts = [s for s in spans if s["name"] == "transition.transition_spectral"]
        cold = [s for s in ts if s["leaf_calls_incl"] > 0]
        warm = [s["end"] - s["start"] for s in ts if s["leaf_calls_incl"] == 0 and s["exc"] is None]
        out["transition.transition_spectral.cold_calls"] = len(cold)
        out["transition.transition_spectral.cold_self_s"] = sum(selfs[s["id"]] for s in cold)
        out["transition.transition_spectral.warm_calls"] = len(warm)
        out["transition.transition_spectral.warm_p50_ms"] = 1e3 * median(warm) if warm else 0.0
        fails: dict[str, int] = {}
        for s in ts:
            if s["exc"] is not None:
                fails[s["exc"]] = fails.get(s["exc"], 0) + 1
        out["transition.transition_spectral.fail.QuadratureNotConverged"] = fails.pop(
            "QuadratureNotConverged", 0
        )
        out["transition.transition_spectral.fail.other"] = sum(fails.values())
        for reg, key in (("timed", ""), ("setup", "setup_")):
            calls, total = self.leaf_totals.get(f"{LEAF[0]}@{reg}", (0, 0.0))
            out[f"{LEAF[0]}.{key}calls"] = calls
            out[f"{LEAF[0]}.{key}total_s"] = total
        out["trace.spans"] = len(spans)
        return out


def per_call_overhead(reps: int = 20000) -> tuple[float, float]:
    """Seconds a span wrapper and a leaf wrapper add to one call.

    Measured on a function that does nothing, best of three, with a
    throwaway tracer so the calibration spans are not reported.
    """

    def noop():
        return None

    scratch = Tracer()
    cases = (noop, scratch.spanned("calibration", noop), scratch.leaf("calibration", noop))
    best = []
    for fn in cases:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            times.append(time.perf_counter() - start)
            scratch.spans.clear()
        best.append(min(times) / reps)
    return max(0.0, best[1] - best[0]), max(0.0, best[2] - best[0])
