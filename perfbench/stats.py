"""Order statistics and span arithmetic used by the benchmark.

Kept free of numpy so the parent process and the unit tests can use it
without importing the numeric stack.
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1) with linear interpolation between ranks.

    Same rule as numpy's default ``linear`` method: the sorted sample is
    read at fractional rank ``q * (n - 1)``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping each to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is an iterable of mappings with keys ``id``, ``parent`` (an id
    or None), ``start``, ``end`` and ``leaf_s``.  ``leaf_s`` is time spent in
    aggregated leaf calls made directly from the span; those calls are not
    spans of their own and never overlap its child spans, so their time is
    subtracted as is.  Returns ``{id: self_seconds}``.
    """
    spans = list(spans)
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        covered = covered_length(kids, s["start"], s["end"]) + s.get("leaf_s", 0.0)
        out[s["id"]] = max(0.0, (s["end"] - s["start"]) - covered)
    return out
