"""Metric arithmetic: one record per attempted query, reduced to the reported figures."""

from __future__ import annotations

import statistics
from dataclasses import dataclass


# The seconds one reference unit stands for where a metric must be in
# seconds (setup_s): about the reference task's time on the 2-vCPU VM the
# benchmark was written on.
REFERENCE_S = 0.1


@dataclass(frozen=True)
class QueryRecord:
    """One attempted query: its wall time, its outcome and the machine's speed.

    A failed query keeps the time it took to fail, so slow failures weigh on
    the median like slow answers do.  `reference_s` is the wall time of the
    reference task (reference.py) timed shortly before the query.
    """

    seconds: float
    failure: str | None   # exception class name when the query raised
    reference_s: float

    @property
    def ref(self) -> float:
        """The query's time in units of the reference task's time."""
        return self.seconds / self.reference_s


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


@dataclass(frozen=True)
class LoopSummary:
    attempted: int
    failed: int
    query_p50_s: float
    queries_per_s: float
    query_p50_ref: float
    queries_per_ref: float

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted


def summarize(records: list[QueryRecord]) -> LoopSummary:
    """Medians over every attempted query, failures at their time to failure;
    throughput counts every query that ended, answered or failed, over the
    time spent in the queries."""
    if not records:
        raise ValueError("no query was attempted")
    if any(r.seconds <= 0.0 or r.reference_s <= 0.0 for r in records):
        raise ValueError("query and reference times must be positive")
    return LoopSummary(
        attempted=len(records),
        failed=sum(r.failure is not None for r in records),
        query_p50_s=median(r.seconds for r in records),
        queries_per_s=len(records) / sum(r.seconds for r in records),
        query_p50_ref=median(r.ref for r in records),
        queries_per_ref=len(records) / sum(r.ref for r in records),
    )


def setup_seconds(setups: list[tuple[float, float]]) -> float:
    """Median set-up time at the reference speed: each (wall time, reference
    time) pair gives a time in reference units, reported in seconds."""
    return median(t / ref for t, ref in setups) * REFERENCE_S
