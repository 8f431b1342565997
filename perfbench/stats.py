"""Statistics and trace arithmetic for perfbench/run.py.

Everything here is a pure function of recorded samples, so it is tested on
synthetic inputs by perfbench/test_stats.py.
"""

import math

# A tail percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def tail_percentile(values, target=0.95, min_beyond=MIN_BEYOND):
    """The highest nearest-rank percentile <= `target` that keeps at least
    `min_beyond` samples strictly beyond it, never below the median.

    Returns (value, quantile, n, beyond): nearest rank k (1-based) is
    ceil(q * n), and `beyond` = n - k samples lie above the reported one.
    With too few samples for a tail, the middle sample is reported.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("percentile of no samples")
    k = max(1, math.ceil(target * n - 1e-9))
    # Never below the median: rank n // 2 + 1 is the middle sample (odd n)
    # or the upper of the middle pair (even n).
    k = max(min(k, n - min_beyond), n // 2 + 1)
    return s[k - 1], k / n, n, n - k


def paced_schedule(rate_qps, seconds):
    """Due offsets of an open-loop schedule at `rate_qps` over `seconds`:
    round(rate * seconds) arrivals, evenly spaced, each submitted when due
    whether or not earlier queries have finished."""
    count = max(1, round(rate_qps * seconds))
    return [(i + 0.5) / rate_qps for i in range(count)]


def due_latencies(records, fail_ms):
    """Per-query latency from its due time to its verified result, in ms.

    A record is a dict with `due`, `sent`, `done` (seconds) and `status`.
    Queries that did not end "ok" count as `fail_ms`, so they miss any
    latency limit below it."""
    return [
        (r["done"] - r["due"]) * 1e3 if r["status"] == "ok" else fail_ms
        for r in records
    ]


def generator_lateness(records):
    """How late the client sent each query after its due time, in ms."""
    return [(r["sent"] - r["due"]) * 1e3 for r in records
            if r.get("sent") is not None]


def goodput(records, limit_ms, span_s):
    """Results that were correct and within `limit_ms` of their due time,
    per second of `span_s`.  Failed or wrong results never count."""
    good = sum(1 for r in records if r["status"] == "ok"
               and (r["done"] - r["due"]) * 1e3 <= limit_ms)
    return good / span_s


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children are merged first).

    `spans` is a list of dicts with name/start/end/parent (parent is an
    index into the list or -1).  Returns a list parallel to `spans`."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda c: spans[c]["start"]):
            lo = max(s["start"], spans[c]["start"])
            hi = min(s["end"], spans[c]["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (s["end"] - s["start"]) - covered))
    return out


def layer_self_seconds(spans):
    """Sum of self time per layer; a span's layer is its name up to the
    first dot ("core.build" -> "core", "query" -> "query")."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + t
    return totals
