"""One benchmark process: set-up, the timed region, then the reference check.

Started by ``run.py`` in a fresh interpreter for every run, so the package's
``lru_cache``s never carry over between runs or workloads.  Prints one JSON
object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _import_bulkq(root: Path):
    import bulkq
    import bulkq.cli  # noqa: F401  (the grid workload calls it; the tracer patches it)

    src = (root / "src").resolve()
    if src not in Path(bulkq.__file__).resolve().parents:
        raise RuntimeError(f"imported bulkq from {bulkq.__file__}, not from {src}")
    return bulkq


def _describe(inp) -> str:
    """Short text of an op input, without the long grids and argument lists."""
    text = repr(inp)
    return text if len(text) <= 300 else repr(inp[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    bq = _import_bulkq(args.root)
    from tracer import Tracer, per_call_overhead
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](bq, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(bq)
    workload.warm()
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp is comparable
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run_op = workload.run
    if tracer is not None:
        tracer.region = "timed"
        run_op = tracer.spanned("op", workload.run)
    ops = []  # (input, output or None, exception type or None, seconds)
    cycle_s = []
    start = time.perf_counter()
    k = 0
    while True:
        inputs = workload.cycle(k)
        c0 = time.perf_counter()
        for inp in inputs:
            t0 = time.perf_counter()
            try:
                out, exc = run_op(inp), None
            except Exception as err:  # every failure is counted, none ends the run
                out, exc = None, f"{type(err).__name__}: {err} [input {_describe(inp)}]"
            ops.append((inp, out, exc, time.perf_counter() - t0))
        cycle_s.append(time.perf_counter() - c0)
        k += 1
        if tracer is not None:
            if k == workload.trace_cycles:
                break
        elif time.perf_counter() - start + sum(cycle_s) / k > args.seconds:
            break
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cycles": k,
        "latencies_s": [o[3] for o in ops],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        span_cost, leaf_cost = per_call_overhead()
        overhead = (
            layers["trace.spans"] * span_cost
            + layers["algebraic.solve_branches.calls"] * leaf_cost
        )
        layers["trace.overhead_frac"] = overhead / max(wall_s - overhead, 1e-12)
        result["per_layer"] = layers
        result["spans"] = tracer.span_dicts()

    # reference check, outside set-up and the timed region
    returned = [(o[0], o[1]) for o in ops if o[2] is None]
    reasons = iter(workload.check(returned))
    errors = []
    for i, (_, _, exc, _) in enumerate(ops):
        if exc is None:
            reason = next(reasons)
            if reason is not None:
                errors.append({"op": i, "kind": "wrong", "detail": reason})
        else:
            errors.append({"op": i, "kind": exc.split(":", 1)[0], "detail": exc})
    result["errors"] = errors
    result["attempted"] = len(ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
