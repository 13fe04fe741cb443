"""Arithmetic of the benchmark: percentiles, open-loop latencies, goodput.

Kept apart from run.py so that test_stats.py can check it on synthetic
samples without building or running anything.
"""

import math
import statistics

# Percentiles considered for a tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty list; failures (inf) sort to the top."""
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND of n
    samples beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            return p
    return None


def tail(values):
    """(percentile, value) of the tail, or None for too few samples."""
    p = tail_percentile(len(values))
    return None if p is None else (p, percentile(values, p))


def open_loop(due, sent, done, ok):
    """Latency and generator lag of open-loop requests, in ms.

    Each request is timed from the moment it was due, so a stall that delays
    later sends is charged to them. A failed or refused request has infinite
    latency: it misses every limit and sorts into the tail.
    """
    latency = [(d - u) * 1000.0 if good else math.inf
               for u, d, good in zip(due, done, ok)]
    lag = [(s - u) * 1000.0 for u, s in zip(due, sent)]
    return latency, lag


def limit_misses(latency_ms, limit_ms):
    """Requests that missed the latency limit, failures included."""
    return sum(1 for x in latency_ms if not x <= limit_ms)


def goodput(latency_ms, limit_ms, seconds):
    """Requests answered OK within the limit, per second."""
    return (len(latency_ms) - limit_misses(latency_ms, limit_ms)) / seconds


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def share_pct(part, whole):
    """100 * part / whole; 0 when the whole is 0."""
    return 100.0 * part / whole if whole else 0.0


def unattributed_pct(total_ms, span_ms):
    """Share of a measured time that no span covers (negative when the
    replayed spans took longer than the live call)."""
    return share_pct(total_ms - span_ms, total_ms)


def overhead_pct(traced, untraced):
    """Relative slow-down of the traced timing over the untraced one."""
    return share_pct(traced - untraced, untraced)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
