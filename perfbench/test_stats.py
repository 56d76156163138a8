"""Unit tests for the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/test_stats.py``.
"""

import statistics

import pytest

from stats import covered_length, median, percentile, self_times
from tracer import Tracer


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]  # sorted: 1 2 3 4, rank of q is 3q
    assert percentile(xs, 0.0) == 1.0
    assert percentile(xs, 1.0) == 4.0
    assert percentile(xs, 0.5) == pytest.approx(2.5)
    assert percentile(xs, 0.9) == pytest.approx(3.7)
    assert percentile([7.0], 0.9) == 7.0


def test_median_matches_statistics_module():
    for xs in ([3.0, 1.0, 2.0], [5.0, 1.0, 4.0, 2.0], [0.1] * 5 + [9.0]):
        assert median(xs) == pytest.approx(statistics.median(xs))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_children_and_leaf_time():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0, "leaf_s": 0.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0, "leaf_s": 1.5},
        {"id": 3, "parent": 1, "start": 5.0, "end": 6.0, "leaf_s": 0.0},
        {"id": 4, "parent": 2, "start": 2.0, "end": 3.0, "leaf_s": 0.0},
    ]
    out = self_times(spans)
    assert out[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert out[2] == pytest.approx(3.0 - 1.0 - 1.5)
    assert out[3] == pytest.approx(1.0)
    assert out[4] == pytest.approx(1.0)


def test_tracer_nests_spans_and_aggregates_leaves():
    tr = Tracer()
    leaf = tr.leaf("leaf", lambda: None)

    def inner():
        leaf()
        leaf()

    inner_w = tr.spanned("inner", inner)

    def outer(fail):
        inner_w()
        if fail:
            raise KeyError("x")

    outer_w = tr.spanned("outer", outer)
    tr.region = "timed"
    outer_w(False)
    with pytest.raises(KeyError):
        outer_w(True)
    spans = tr.span_dicts()
    assert [s["name"] for s in spans] == ["inner", "outer", "inner", "outer"]
    assert spans[0]["parent"] == spans[1]["id"]
    assert spans[0]["leaf_calls"] == 2 and spans[1]["leaf_calls"] == 0
    assert spans[1]["leaf_calls_incl"] == 2
    assert spans[3]["exc"] == "KeyError" and spans[1]["exc"] is None
    assert tr.leaf_totals["leaf@timed"][0] == 4
