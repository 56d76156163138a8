"""Command-line front end: branch tables, transition probabilities,
the validation battery, and the simulator.

Exit codes are a stable contract: 0 success, 1 numeric or validation
failure, 2 argument error.  CSV output is RFC-4180 with LF endings, a
leading ``#`` comment echoing the full parameter set, and floats at 17
significant digits so diffs across machines are meaningful.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .algebraic import AlgebraicConfig, solve_branches, star_geometry
from .errors import NearSingularConfiguration
from .model import QueueParams, branch_config, validate_params
from .operators import (
    OperatorSpec,
    basis_jump_check,
    biorthogonality_check,
    dual_jump_check,
    lambda_conjugation_residual,
    moment,
)
from .oracle import (
    SPECTRAL_VS_EXPM,
    McConfig,
    cross_validate,
    expm_uniformization,
    simulate_mc,
    truncation_size,
)
from .polynomials import (
    dual_explicit,
    dual_vector,
    h_zeros,
    q_explicit,
    q_poly,
)
from .spectral import markov_residual, pairing_matrix, sigma_apply, star_quadrature
from .transition import (
    TransitionQuery,
    decay_rate,
    honesty_check,
    semigroup_check,
    transition_spectral,
)


def _g17(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # + 0.0 folds -0.0 into 0


def _vieta_residual(cfg: AlgebraicConfig, z: complex, omega) -> float:
    """Largest coefficient gap between the monic polynomial with roots
    ``omega`` and ``w**(m+1) - z w**m + c``, over ``max(1, |z|, c)``."""
    target = np.zeros(cfg.m + 2, dtype=complex)
    target[0], target[1], target[-1] = 1.0, -z, cfg.c
    return float(np.max(np.abs(np.poly(omega) - target)) / max(1.0, abs(z), cfg.c))


def _emit_csv(path: str | None, comment: str, header: list[str], rows) -> None:
    def write(stream) -> None:
        stream.write(comment + "\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if path in (None, "-"):
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write(handle)


def _emit_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _queue_options(fn):
    fn = click.option("--m", type=int, required=True, help="batch size (>= 1)")(fn)
    fn = click.option("--mu", type=float, required=True, help="batch service rate")(fn)
    fn = click.option(
        "--lambda", "lam", type=float, required=True, help="arrival rate"
    )(fn)
    return fn


def _build_params(lam: float, mu: float, m: int) -> QueueParams:
    try:
        p = QueueParams(lam=lam, mu=mu, m=m)
        validate_params(p)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return p


@click.group()
@click.version_option(__version__, prog_name="bulkq")
def main() -> None:
    """Transient analysis of the bulk-service queue."""


# --------------------------------------------------------------- branches


@main.command("branches")
@click.option("--m", type=int, required=True, help="batch size (>= 1)")
@click.option("--c", type=float, required=True, help="constant term of the branch equation")
@click.option("--z", "z_values", type=float, multiple=True, help="evaluation point (repeatable)")
@click.option("--star", is_flag=True, help="print the support geometry instead of a branch table")
@click.option("--output", "-o", default="-", show_default=True)
def cmd_branches(m, c, z_values, star, output) -> None:
    """Solve the branch equation on a z-grid, or report the star geometry."""
    try:
        cfg = AlgebraicConfig(c=c, m=m)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for z in z_values:
        if not math.isfinite(z):
            raise click.UsageError(f"evaluation points must be finite, got {z}")
    echo = f"# bulkq branches m={m} c={_g17(c)}"
    if star:
        geo = star_geometry(cfg)
        rows = [["arm_length", _g17(geo.arm_length), _g17(0.0)]]
        for k in range(geo.arm_count):
            d = geo.rotation**k
            rows.append([f"direction_{k}", _g17(d.real), _g17(d.imag)])
        _emit_csv(output, echo + " star=1", ["name", "re", "im"], rows)
        return
    if not z_values:
        raise click.UsageError("provide at least one --z (or use --star)")
    rows = []
    try:
        for z in z_values:
            branches = solve_branches(cfg, z)
            residual = _vieta_residual(cfg, z, branches.omega)
            row = [_g17(z)]
            for w in branches.omega:
                row.extend([_g17(w.real), _g17(w.imag)])
            row.append(_g17(residual))
            rows.append(row)
    except ArithmeticError as exc:
        raise click.ClickException(f"branch solve failed: {exc}")
    header = ["z"]
    for k in range(m + 1):
        header.extend([f"omega{k}_re", f"omega{k}_im"])
    header.append("vieta_residual")
    _emit_csv(output, echo, header, rows)


# ------------------------------------------------------------- transition


@main.command("transition")
@_queue_options
@click.option("--n", "n_values", type=int, multiple=True, required=True, help="start state (repeatable)")
@click.option("--r", "r_values", type=int, multiple=True, required=True, help="end state (repeatable)")
@click.option("--t", "t_values", type=float, multiple=True, required=True, help="horizon (repeatable)")
@click.option("--with-oracle", is_flag=True, help="add uniformization values and |diff|")
@click.option("--json", "as_json", is_flag=True, help="emit JSON instead of CSV")
@click.option("--output", "-o", default="-", show_default=True)
def cmd_transition(lam, mu, m, n_values, r_values, t_values, with_oracle, as_json, output) -> None:
    """Transition probabilities P_{n,r}(t) from the spectral engine."""
    p = _build_params(lam, mu, m)
    ts = tuple(sorted(set(t_values)))
    try:
        queries = [
            TransitionQuery(n, r, ts) for n in sorted(set(n_values)) for r in sorted(set(r_values))
        ]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    mats: dict[float, np.ndarray] = {}
    if with_oracle:
        size = truncation_size(p, ts[-1], max(n_values) + max(r_values) + 2)
        for t in ts:
            mats[t] = expm_uniformization(p, size, t, rows=max(n_values) + 1)
    rows = []
    try:
        for q in queries:
            for t, value in zip(ts, transition_spectral(p, q).values):
                ref = float(mats[t][q.n, q.r]) if with_oracle else None
                diff = None if ref is None else abs(value - ref)
                rows.append((q.n, q.r, t, value, ref, diff))
    except ArithmeticError as exc:
        raise click.ClickException(f"spectral evaluation did not converge: {exc}")
    if as_json:
        payload = {
            "schema": 1,
            "params": {"lambda": lam, "mu": mu, "m": m},
            "rows": [
                {"n": n, "r": r, "t": t, "spectral": v, "oracle": ref, "diff": diff}
                for n, r, t, v, ref, diff in rows
            ],
            "max_diff": max(row[5] for row in rows) if with_oracle else None,
        }
        _emit_text(output, json.dumps(payload, indent=2) + "\n")
        return
    echo = (
        f"# bulkq transition lambda={_g17(lam)} mu={_g17(mu)} m={m}"
        f" oracle={int(with_oracle)}"
    )
    csv_rows = [
        [
            str(n),
            str(r),
            _g17(t),
            _g17(v),
            _g17(ref) if ref is not None else "",
            _g17(diff) if diff is not None else "",
        ]
        for n, r, t, v, ref, diff in rows
    ]
    _emit_csv(
        output, echo, ["n", "r", "t", "p_spectral", "p_oracle", "abs_diff"], csv_rows
    )


# --------------------------------------------------------------- validate


def _battery_rates(m: int) -> tuple[float, float]:
    """Canonical subcritical rate pairs used by the validation battery."""
    table = {1: (1.0, 2.0), 2: (1.0, 1.0), 3: (1.2, 0.8)}
    return table.get(m, (1.0, 2.0 / m))


def _suite_branches(m_max: int, rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for m in range(1, m_max + 1):
        lam, mu = _battery_rates(m)
        for cfg in (branch_config(QueueParams(lam, mu, m)), AlgebraicConfig(c=mu * lam**m, m=m)):
            for _ in range(100):
                z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                branches = solve_branches(cfg, z)
                mods = np.abs(branches.omega)
                if np.any(mods[:-1] < mods[1:] - 1e-12):
                    return False, f"modulus ordering broken at m={m}, z={z}"
                worst = max(worst, _vieta_residual(cfg, z, branches.omega))
    return worst <= 1e-10, f"max Vieta residual {worst:.2e}"


def _suite_polynomials(m_max: int, n_max: int, rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for m in range(1, m_max + 1):
        lam, mu = _battery_rates(m)
        p = QueueParams(lam=lam, mu=mu, m=m)
        done = 0
        while done < 25:
            n = int(rng.integers(1, min(n_max, 20) + 1))
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                closed = q_explicit(p, n, z)
            except NearSingularConfiguration:
                continue
            ref = q_poly(p, n)(z)
            worst = max(worst, abs(closed - ref) / (1.0 + abs(ref)))
            r, j = int(rng.integers(2 * m, 15)), int(rng.integers(0, m))
            try:
                closed = dual_explicit(p, r, j, z)
            except NearSingularConfiguration:
                continue
            ref = dual_vector(p, r).components[j](z)
            worst = max(worst, abs(closed - ref) / (1.0 + abs(ref)))
            done += 1
    return worst <= 1e-8, f"max closed-form mismatch {worst:.2e}"


def _suite_quadrature(m_max: int, n_max: int) -> tuple[bool, str]:
    worst = 0.0
    for m in range(1, m_max + 1):
        lam, mu = _battery_rates(m)
        cfg = AlgebraicConfig(c=mu * lam**m, m=m)
        spec = OperatorSpec("T", cfg, max(120, (n_max + 4) * (m + 1)))
        for n in (m + 2, 2 * (m + 1), 3 * (m + 1) + 1):
            rule = star_quadrature(cfg, n)
            if np.any(rule.weights <= 0.0):
                return False, f"nonpositive weight at m={m}, n={n}"
            mass = abs(rule.weights.sum() - (m + 1) * cfg.c) / ((m + 1) * cfg.c)
            worst = max(worst, float(mass))
            s = n % (m + 1)
            for s_prime in range(rule.exactness_degree + 1):
                nu = s_prime + s
                if nu % (m + 1):
                    continue
                want = moment(spec, nu, 1)
                err = abs(rule.monomial_moment(nu) - want) / max(1.0, abs(want))
                worst = max(worst, float(err))
        prev = None
        for n in range(m + 1, min(n_max * (m + 1), 101)):
            zs = h_zeros(cfg, n)
            if prev is not None and len(prev) > 0:
                pairs = (
                    zip(zs, prev) if len(zs) == len(prev) + 1 else zip(prev, zs)
                )
                if not all(a < b for a, b in pairs):
                    return False, f"zero interlacing broken at m={m}, n={n}"
            prev = zs
    return worst <= 1e-9, f"max quadrature residual {worst:.2e}"


def _suite_moments(m_max: int, rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for m in range(1, m_max + 1):
        lam, mu = _battery_rates(m)
        p = QueueParams(lam=lam, mu=mu, m=m)
        cfg = branch_config(p)
        geo = star_geometry(cfg)
        a = geo.arm_length
        arms = [
            t * geo.rotation**k
            for k in range(m + 1)
            for t in np.linspace(0.0, a, 40)
        ]
        done = 0
        while done < 8:
            z = complex(rng.uniform(-3 * a, 3 * a), rng.uniform(-3 * a, 3 * a))
            if min(abs(z - arm) for arm in arms) <= 0.25 * a:
                continue
            j = int(rng.integers(1, m + 1))
            worst = max(worst, markov_residual(cfg, j, z))
            done += 1
        spec = OperatorSpec("A", p, 64)
        for j in range(m):
            for nu in range(7):
                want = moment(spec, nu, j + 1)
                got = sigma_apply(p, j, lambda x, nu=nu: x**nu)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst <= 1e-7, f"max moment residual {worst:.2e}"


def _suite_orthogonality(m_max: int, n_max: int) -> tuple[bool, str]:
    worst = 0.0
    top = min(n_max, 6)
    for m in range(1, m_max + 1):
        lam, mu = _battery_rates(m)
        p = QueueParams(lam=lam, mu=mu, m=m)
        gram = pairing_matrix(p, top + 1)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(top + 1)))))
        spec = OperatorSpec("A", p, 70)
        for n in (0, top // 2, top):
            worst = max(worst, basis_jump_check(spec, n))
            worst = max(worst, dual_jump_check(p, n, 70))
            for r in (0, top // 2, top):
                pairing = biorthogonality_check(p, n, r, 70)
                worst = max(worst, abs(pairing - (1.0 if n == r else 0.0)))
        worst = max(worst, lambda_conjugation_residual(p))
    return worst <= SPECTRAL_VS_EXPM, f"max orthogonality residual {worst:.2e}"


def _suite_transition_props(m_max: int, n_max: int) -> tuple[bool, str]:
    worst = 0.0
    top = min(n_max, 6)
    for m in range(1, m_max + 1):
        lam, mu = _battery_rates(m)
        p = QueueParams(lam=lam, mu=mu, m=m)
        grid = [
            (n, r, t)
            for n in range(0, top + 1, 2)
            for r in range(0, top + 1, 2)
            for t in (0.1, 1.0, 5.0)
        ]
        report = cross_validate(p, grid)
        if not report.passed:
            return False, f"cross-validation failed at m={m}"
        worst = max(worst, report.max_spectral_diff)
        if min(row[3] for row in report.rows) < -1e-7:
            return False, f"negative probability at m={m}"
        worst = max(worst, abs(honesty_check(p, 2, 1.5, 2 + 40) - 1.0))
        worst = max(worst, semigroup_check(p, 1, 2, 0.4, 0.6, 60))
        # continuity at 0: the linear term (lam+mu)*eps must sit inside the bound
        start = transition_spectral(p, TransitionQuery(3, 3, (1e-8,))).values[0]
        worst = max(worst, abs(start - 1.0))
        if decay_rate(p) > 0.0:
            return False, f"positive decay rate at m={m}"
    return worst <= SPECTRAL_VS_EXPM, f"max property residual {worst:.2e}"


@main.command("validate")
@click.option("--m-max", type=int, default=3, show_default=True)
@click.option("--n-max", type=int, default=12, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_validate(m_max, n_max, seed) -> None:
    """Run the full property battery; exit 0 only if every suite passes."""
    if m_max < 1 or n_max < 4:
        raise click.UsageError(f"need m-max >= 1 and n-max >= 4, got {m_max}, {n_max}")
    if seed < 0:
        raise click.UsageError(f"seed must be an integer >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    suites = [
        ("branches", lambda: _suite_branches(m_max, rng)),
        ("polynomials", lambda: _suite_polynomials(m_max, n_max, rng)),
        ("quadrature", lambda: _suite_quadrature(m_max, n_max)),
        ("moments", lambda: _suite_moments(m_max, rng)),
        ("orthogonality", lambda: _suite_orthogonality(m_max, n_max)),
        ("transition properties", lambda: _suite_transition_props(m_max, n_max)),
    ]
    failed = []
    for name, run in suites:
        try:
            ok, detail = run()
        except ArithmeticError as exc:
            ok, detail = False, f"engine failure: {exc}"
        click.echo(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}")
        if not ok:
            failed.append(name)
    if failed:
        raise click.ClickException("failed suites: " + ", ".join(failed))


# --------------------------------------------------------------- simulate


@main.command("simulate")
@_queue_options
@click.option("--start", type=int, default=0, show_default=True, help="initial state")
@click.option("--t", type=float, required=True, help="horizon")
@click.option("--reps", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--compare", is_flag=True, help="add uniformization values and 3-sigma flags")
@click.option("--output", "-o", default="-", show_default=True)
def cmd_simulate(lam, mu, m, start, t, reps, seed, compare, output) -> None:
    """Simulate the queue and report the empirical distribution."""
    p = _build_params(lam, mu, m)
    try:
        cfg = McConfig(replications=reps, seed=seed, start=start, horizon=t)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        result = simulate_mc(p, cfg)
        ref = None
        if compare:
            size = truncation_size(p, t, len(result.freq))
            ref = expm_uniformization(p, size, t, rows=start + 1)[start]
    except ArithmeticError as exc:
        raise click.ClickException(f"engine failure: {exc}")
    echo = (
        f"# bulkq simulate lambda={_g17(lam)} mu={_g17(mu)} m={m} start={start}"
        f" t={_g17(t)} reps={reps} seed={seed} compare={int(compare)}"
    )
    header = ["state", "frequency", "stderr"]
    if compare:
        header += ["p_oracle", "within_3se"]
    rows = []
    for state in range(len(result.freq)):
        row = [str(state), _g17(result.freq[state]), _g17(result.stderr[state])]
        if compare:
            want = float(ref[state])
            hit = abs(result.freq[state] - want) <= 3.0 * result.stderr[state]
            row += [_g17(want), str(int(hit))]
        rows.append(row)
    _emit_csv(output, echo, header, rows)


if __name__ == "__main__":
    main()
