"""End-to-end tests of the command-line interface."""

import json
import sys

import pytest
from click.testing import CliRunner

from bulkq.cli import main

ORACLE_TOL = 1e-6


@pytest.fixture()
def runner():
    return CliRunner()


def _rows(output: str) -> list[list[str]]:
    lines = [ln for ln in output.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]  # skip the header


def test_branches_quadratic_golden(runner):
    result = runner.invoke(main, ["branches", "--m", "1", "--c", "1", "--z", "3"])
    assert result.exit_code == 0
    assert result.output.startswith("# bulkq branches")
    assert "2.6180339887498949" in result.output
    assert "0.38196601125010515" in result.output
    (row,) = _rows(result.output)
    assert float(row[-1]) <= 1e-10  # Vieta residual column


def test_branches_rejects_zero_batch(runner):
    result = runner.invoke(main, ["branches", "--m", "0", "--c", "1", "--z", "3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("c, z", [("nan", "3"), ("inf", "3"), ("1", "nan"), ("1", "inf")])
def test_branches_rejects_non_finite(runner, c, z):
    result = runner.invoke(main, ["branches", "--m", "1", "--c", c, "--z", z])
    assert result.exit_code == 2
    assert "finite" in result.output


def test_branches_requires_points_or_star(runner):
    result = runner.invoke(main, ["branches", "--m", "1", "--c", "1"])
    assert result.exit_code == 2


def test_branches_star_geometry(runner):
    result = runner.invoke(main, ["branches", "--m", "2", "--c", "1", "--star"])
    assert result.exit_code == 0
    assert "1.8898815748423097" in result.output
    rows = _rows(result.output)
    assert [row[0] for row in rows] == [
        "arm_length", "direction_0", "direction_1", "direction_2",
    ]


def test_transition_zero_time_is_certain(runner):
    result = runner.invoke(
        main,
        ["transition", "--lambda", "1", "--mu", "1", "--m", "2",
         "--n", "0", "--r", "0", "--t", "0"],
    )
    assert result.exit_code == 0
    (row,) = _rows(result.output)
    assert row[:4] == ["0", "0", "0", "1"]


def test_transition_oracle_agreement(runner):
    result = runner.invoke(
        main,
        ["transition", "--lambda", "1", "--mu", "1", "--m", "2",
         "--n", "0", "--n", "1", "--r", "0", "--r", "2",
         "--t", "0.5", "--t", "1", "--with-oracle"],
    )
    assert result.exit_code == 0
    rows = _rows(result.output)
    assert len(rows) == 8
    assert all(float(row[5]) <= ORACLE_TOL for row in rows)


def test_transition_json_schema(runner):
    result = runner.invoke(
        main,
        ["transition", "--lambda", "1", "--mu", "1", "--m", "2",
         "--n", "0", "--r", "2", "--t", "1", "--with-oracle", "--json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    assert payload["params"] == {"lambda": 1.0, "mu": 1.0, "m": 2}
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["n"] == 0 and payload["rows"][0]["r"] == 2
    assert payload["max_diff"] <= ORACLE_TOL


def test_transition_json_without_oracle_has_null_diff(runner):
    result = runner.invoke(
        main,
        ["transition", "--lambda", "1", "--mu", "1", "--m", "1",
         "--n", "0", "--r", "1", "--t", "0.5", "--json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["max_diff"] is None
    assert payload["rows"][0]["oracle"] is None


def test_transition_rejects_out_of_cap_state(runner):
    result = runner.invoke(
        main,
        ["transition", "--lambda", "1", "--mu", "1", "--m", "1",
         "--n", "100", "--r", "0", "--t", "1"],
    )
    assert result.exit_code == 2


def test_transition_reports_nonconvergence(runner):
    # at m = 12 and t = 50 singular points of weight ~1e-3 lie outside the
    # Talbot contour; the command must fail loudly, not print noise
    result = runner.invoke(
        main,
        ["transition", "--lambda", "1", "--mu", "0.08333333333333333", "--m", "12",
         "--n", "0", "--r", "0", "--t", "50"],
    )
    assert result.exit_code == 1
    assert "converge" in result.output
    assert "at t=50 the singular point x=" in result.output


def test_transition_reports_rule_gap(runner):
    # at (1, 0.5, 6) and t = 20 the guard passes but the two Talbot rules
    # disagree above the tolerance: the command exits 1 and names both rules
    result = runner.invoke(
        main,
        ["transition", "--lambda", "1", "--mu", "0.5", "--m", "6",
         "--n", "64", "--r", "0", "--t", "20"],
    )
    assert result.exit_code == 1
    assert "the 48- and 64-node Talbot rules differ by" in result.output


def test_transition_far_tail_critical_entry(runner):
    # a far-tail entry in the critical case, where the panel ladder used to give up
    result = runner.invoke(
        main,
        ["transition", "--lambda", "2", "--mu", "1", "--m", "2",
         "--n", "0", "--r", "60", "--t", "0.1", "--with-oracle"],
    )
    assert result.exit_code == 0
    (row,) = _rows(result.output)
    assert float(row[-1]) <= ORACLE_TOL


def test_transition_output_deterministic(tmp_path, runner):
    args = ["transition", "--lambda", "1.1", "--mu", "0.9", "--m", "2",
            "--n", "1", "--r", "3", "--t", "0.7", "--with-oracle"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert runner.invoke(main, args + ["--output", str(path)]).exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    text = paths[0].read_text(encoding="utf-8")
    assert "\r" not in text and text.startswith("#")


def test_simulate_zero_horizon_point_mass(runner):
    result = runner.invoke(
        main,
        ["simulate", "--lambda", "1", "--mu", "2", "--m", "1",
         "--start", "3", "--t", "0", "--reps", "500", "--seed", "1"],
    )
    assert result.exit_code == 0
    rows = _rows(result.output)
    assert rows[3][:3] == ["3", "1", "0"]


def test_simulate_deterministic_and_compare_flags(tmp_path, runner):
    args = ["simulate", "--lambda", "1", "--mu", "1", "--m", "1",
            "--t", "1", "--reps", "20000", "--seed", "7", "--compare"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert runner.invoke(main, args + ["--output", str(path)]).exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    rows = _rows(paths[0].read_text(encoding="utf-8"))
    assert all(row[4] in {"0", "1"} for row in rows)
    # every cell with real mass should sit inside three standard errors
    assert all(row[4] == "1" for row in rows if float(row[1]) >= 1e-3)


def test_simulate_rejects_bad_replications(runner):
    result = runner.invoke(
        main,
        ["simulate", "--lambda", "1", "--mu", "1", "--m", "1",
         "--t", "1", "--reps", "0"],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("start", ["65", str(2**31)])
def test_simulate_rejects_a_start_past_the_cap(runner, start):
    result = runner.invoke(
        main,
        ["simulate", "--lambda", "1", "--mu", "1", "--m", "2",
         "--start", start, "--t", "1", "--reps", "10"],
    )
    assert result.exit_code == 2
    assert f"start must be <= 64, got {start}" in result.output


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--lambda", "1", "--mu", "1", "--m", "1", "--t", "1", "--reps", "100"],
        ["validate"],
    ],
)
def test_rejects_negative_seed(runner, command):
    result = runner.invoke(main, command + ["--seed", "-1"])
    assert result.exit_code == 2
    assert "seed must be an integer >= 0" in result.output


def test_validate_default_battery_passes(runner):
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 0, result.output
    assert result.output.count("PASS") == 6
    assert "FAIL" not in result.output


def test_validate_checks_both_sides_of_the_zero_interlacing(runner, monkeypatch):
    # at each step that keeps the zero count, lift the first zero past the
    # second old one: it stays above its own old zero, so only a two-sided
    # check sees it
    from bulkq import cli

    real = cli.h_zeros

    def lifted(cfg, n):
        zs, prev = real(cfg, n).copy(), real(cfg, n - 1)
        if len(zs) == len(prev) >= 2:
            zs[0] = 0.5 * (prev[1] + zs[1])
        return zs

    monkeypatch.setattr(cli, "h_zeros", lifted)
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 1
    assert "zero interlacing broken" in result.output


def test_validate_rejects_bad_tolerance(runner):
    result = runner.invoke(main, ["validate", "--tol", "-1"])
    assert result.exit_code == 2


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
