"""Arithmetic of the benchmark: latency summaries, failure accounting,
self time from spans and run-to-run spread.

Pure functions of their arguments, so the tests in test_bench.py can pin them
down without running the program.
"""
from __future__ import annotations

import math
import statistics

# A call fails when it exits with a code other than 0 or its output check
# fails. A failed call counts as missing any latency bound, so it enters the
# latency summaries as an infinite latency.
FAILED_LATENCY = math.inf


def tail(latencies, beyond: int = 10):
    """Highest percentile of `latencies` with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond). Over n sorted samples that is
    the order statistic at index n - beyond - 1: exactly `beyond` samples lie
    beyond it, and it sits at percentile 100 * (n - beyond) / n. With `beyond`
    samples or fewer no percentile qualifies, and the maximum is returned at
    percentile 100 with 0 samples beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("tail needs at least one sample")
    if n <= beyond:
        return xs[-1], 100.0, 0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def call_failed(exit_code, check_ok: bool) -> bool:
    """A unit call fails when it exits non-zero (or raises) or fails its check."""
    return exit_code != 0 or not check_ok


def failed_fraction(outcomes) -> tuple[int, int, float]:
    """(attempted, failed, failed / attempted) over (exit_code, check_ok) pairs."""
    attempted = len(outcomes)
    failed = sum(1 for code, ok in outcomes if call_failed(code, ok))
    return attempted, failed, (failed / attempted if attempted else 0.0)


def _covered(intervals) -> int:
    """Length of the union of half-open [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the time its children cover.

    `spans` is a sequence of (start, end, parent) with parent the index of the
    enclosing span or -1. Children are clipped to their parent's interval, and
    overlapping or adjacent children are merged before subtracting, so a
    grandchild is never subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        out.append((end - start) - _covered([(s, e) for s, e in kids if e > s]))
    return out


def bracketing(gaps) -> list[float]:
    """Reference time of each call: the slower of the gaps just before and after it.

    `gaps` holds one reference time per gap, so len(gaps) is one more than the
    number of calls they bracket. A slow spell that overlaps a call and one of
    its gaps is caught by taking the slower gap; the mean of the two would
    halve it and leave the call high in the latency tail.
    """
    if not gaps:
        raise ValueError("bracketing needs at least one gap")
    return [max(a, b) for a, b in zip(gaps, gaps[1:])]


def at_reference_speed(wall_s: float, reference_s: float, nominal_s: float) -> float:
    """`wall_s` as it would read with the reference kernel taking `nominal_s`.

    The kernel took `reference_s` around the measured interval, so the machine
    ran nominal_s / reference_s as fast as at reference speed.
    """
    return wall_s * nominal_s / reference_s


def quartile_spread(values) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
