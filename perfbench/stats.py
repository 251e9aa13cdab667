"""Statistics and result formatting for the benchmark.

Kept free of I/O so test_stats.py can check it directly:

- percentiles follow the nearest-rank rule, and a percentile is only
  supported by a sample when at least ten samples lie beyond it;
- ingest_rps and the p50s are taken over the least disturbed segments
  of a run: lowest_segments cuts the rounds into whole segments and
  keeps the given share of those in which a metric's median was lowest;
- quartiles are the ones Python's statistics.quantiles(values, n=4)
  gives, and spread is their distance as a share of the median;
- the result line is one JSON object with exactly the keys correct,
  attempted, failed and metrics, each metric a {"value", "unit"} pair.
"""

import json
import math
import statistics

# Samples that must lie beyond a percentile for it to be reported.
SAMPLES_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile of `values` for 0 < q <= 1."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError("percentile rank must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of `n` samples lie strictly beyond the q-th percentile."""
    return n - max(1, math.ceil(q * n))


def supported(n, q):
    """True when a sample of `n` has SAMPLES_BEYOND samples past q."""
    return n > 0 and samples_beyond(n, q) >= SAMPLES_BEYOND


def lowest_segments(values, segment, share):
    """Indices, in order, of the rounds in the `share` of segments whose
    median of `values` is lowest.

    `values` holds one sample per round; a negative one marks a round
    without a sample and is ignored. The rounds are cut into whole
    segments of `segment` consecutive rounds (a trailing partial segment
    is dropped); the int(share * n) segments, at least one, with the
    lowest median are kept.
    """
    segment = int(segment)
    n = len(values) // segment if segment >= 1 else 0
    if n == 0:
        raise ValueError("fewer rounds than one segment")
    medians = []
    for i in range(n):
        present = [v for v in values[i * segment:(i + 1) * segment] if v >= 0]
        medians.append(statistics.median(present) if present else math.inf)
    kept = sorted(sorted(range(n), key=lambda i: medians[i])
                  [:max(1, int(share * n))])
    return [i * segment + r for i in kept for r in range(segment)]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf
    return (q3 - q1) / abs(q2)


def metric(value, unit):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("metric value must be finite")
    return {"value": value, "unit": unit}


def result_line(correct, attempted, failed, metrics):
    """The benchmark's final output line."""
    if int(attempted) != attempted or attempted < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if int(failed) != failed or failed < 0:
        raise ValueError("failed must be a whole number >= 0")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not math.isfinite(m["value"]):
            raise ValueError("malformed metric " + name)
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        sort_keys=False,
    )
