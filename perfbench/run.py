"""Benchmark for bulkq: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``sweep``, ``grid``,
``xval``, ``deep``.  One client sends ops one after another from a single
process (a closed loop), with BLAS pools capped at the CPU count.

With ``--trace 0`` the run measures end-to-end metrics, tracing off; with
``--trace 1`` it runs a fixed number of whole cycles with timing wrappers
around bulkq's public functions and reports per-layer metrics.  Each run
starts fresh interpreters; the untraced run also starts extra set-up-only
interpreters so that ``setup_s`` is a median.  Every value an op returns is
checked against uniformization after the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
the run (environment, samples, errors, spans) goes to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from stats import median, percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 3
#: wall-clock budget of one run, all processes included
BUDGET_S = 170.0
#: metric names and units come from the benchmark's manifest
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = ("BULKQ_THREADS",) + BLAS_VARS


def _worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, str(nproc))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def environment(args, env: dict, nproc: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _spawn(args, env: dict, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # run() kills and reaps the worker on timeout or any other exception
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bulkq" / "__init__.py").is_file():
        print(f"error: no bulkq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(nproc)
    record = {"env": environment(args, env, nproc)}
    try:
        setups = []
        if not args.trace:
            setups = [_spawn(args, env, deadline, True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        res = _spawn(args, env, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"error: {args.workload} run failed: {err}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    lat = res["latencies_s"]
    errors = res["errors"]
    attempted = res["attempted"]
    failed = len(errors)
    wrong = [e for e in errors if e["kind"] == "wrong"]
    by_kind: dict = {}
    for e in errors:
        by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
    flags = []
    if args.trace and args.workload in ("grid", "deep"):
        cold = res["per_layer"]["algebraic.solve_branches.calls"]
        if cold:
            flags.append(f"{cold} solve_branches calls in the timed region of a warm workload")

    print(f"# bulkq perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print(f"ops          {attempted} in {res['cycles']} cycles over {res['wall_s']:.3f} s")
    print(f"fail_frac    {failed / attempted:.4f}  ({failed}/{attempted}; {by_kind or 'none'})")
    for e in wrong[:5]:
        print(f"WRONG        op {e['op']}: {e['detail']}")
    for flag in flags:
        print(f"FLAG         {flag}")

    if args.trace:
        values = res["per_layer"]
        notes = {}
    else:
        values = {
            "setup_s": median(setups),
            "ops_per_s": attempted / res["wall_s"],
            "op_p50_ms": 1e3 * median(lat),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "ops_per_s": f"{attempted} ops / {res['wall_s']:.3f} s",
            "op_p50_ms": f"n={len(lat)}",
            "ok_frac": f"= 1 - fail_frac, n={attempted}",
            "peak_rss_mb": "ru_maxrss at the end of the timed region",
        }
    metrics = {}
    for spec in MANIFEST["per_layer" if args.trace else "end_to_end"]:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"{name:32s} {values[name]:.6g} {spec['unit']}  {notes.get(name, '')}")
    # ten samples beyond p90 need at least 100 ops
    if not args.trace and len(lat) >= 100:
        print(f"{'op_p90_ms':32s} {1e3 * percentile(lat, 0.9):.6g} ms  n={len(lat)}")

    record.update(setups_s=setups, flags=flags, result=res)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
