"""Summary statistics shared by the benchmark workloads.

Pure functions only: percentiles under the benchmark's tail rule,
open-loop latency accounting and the service-level check of one rate
rung.  They are unit-tested in ``perfbench/tests``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: A tail percentile is only reported with at least this many samples
#: beyond it.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(rank, 1)) - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, sample_count)``, or ``None`` when the
    sample is too small for even the median to have ten samples beyond it.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        if count * (100.0 - percentile) / 100.0 >= MIN_SAMPLES_BEYOND:
            return percentile, nearest_rank(ordered, percentile), count
    return None


def open_loop_latencies(records: Sequence[Dict[str, float]]) -> List[float]:
    """Latency of each completed open-loop request, timed from its due time.

    A request's latency runs from when it was *due* to be sent, not from
    when it was sent, so a stall that delays later requests is charged
    to them.  Records without a ``done`` time (never completed) are
    skipped; callers count them as failures.
    """
    return [
        (record["done"] - record["due"]) * 1000.0
        for record in records
        if record.get("done") is not None
    ]


def rung_summary(
    records: Sequence[Dict[str, float]],
    rate: float,
    slo_ms: float,
    grace_s: float,
) -> Dict[str, object]:
    """Latency, failure and backlog figures of one open-loop rate rung.

    The rung meets its objective when nothing failed, its tail latency
    (from due time) is at most *slo_ms*, and the backlog did not grow:
    every request completed within *grace_s* of the last due time.
    """
    latencies = open_loop_latencies(records)
    failed = sum(1 for record in records if not record.get("ok"))
    tail = tail_percentile(latencies)
    last_due = max((record["due"] for record in records), default=0.0)
    last_done = max(
        (record["done"] for record in records if record.get("done") is not None),
        default=last_due,
    )
    backlog_ok = last_done - last_due <= grace_s
    tail_ms = tail[1] if tail else math.inf
    return {
        "rate": rate,
        "requests": len(records),
        "failed": failed,
        "p50_ms": statistics.median(latencies) if latencies else math.inf,
        "tail_pct": tail[0] if tail else None,
        "tail_ms": tail_ms,
        "samples": len(latencies),
        "drain_s": last_done - last_due,
        "meets_slo": failed == 0 and backlog_ok and tail_ms <= slo_ms,
    }
