"""Arithmetic the benchmark reports with; covered by ``selftest.py``."""

import math
import statistics

#: Candidate percentiles, highest first, for :func:`tail`.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """``(pct, value)`` of the highest percentile in :data:`PERCENTILES`
    with at least :data:`TAIL_SAMPLES` samples ranked beyond it, or
    ``None`` when there are too few samples for any of them."""
    count = len(values)
    for pct in PERCENTILES:
        if count - math.ceil(pct / 100.0 * count) >= TAIL_SAMPLES:
            return pct, percentile(values, pct)
    return None


def summary(values):
    """Median, tail percentile and sample count of a timing."""
    found = tail(values)
    return {"median": statistics.median(values), "n": len(values),
            "tail_pct": found[0] if found else None,
            "tail": found[1] if found else None}


def spread(values):
    """Distance between the first and third quartile (0 for one sample),
    as ``statistics.quantiles(values, n=4)`` places them."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def noise_over_signal(values):
    """True when the spread of ``values`` exceeds their median.

    A per-layer number this noisy is reported with the mark instead of
    being clamped or zeroed.  One sample has no measured spread.
    """
    return len(values) >= 2 and spread(values) > abs(
        statistics.median(values))


def reduction_ratio(ti_us, ts_us, to_us):
    """Section 6.2's ``r = (Ti - Ts) / (Ti - To)``; 0 when Ti == To."""
    if ti_us == to_us:
        return 0.0
    return (ti_us - ts_us) / (ti_us - to_us)


def mitigation(ratios):
    """``(mean ratio in percent, count of ratios > 0)``."""
    ratios = list(ratios)
    return 100.0 * sum(ratios) / len(ratios), sum(1 for r in ratios if r > 0)
