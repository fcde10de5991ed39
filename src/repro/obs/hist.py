"""Log-scale duration histograms.

Latencies span six orders of magnitude (a cached fragment lookup is
microseconds, a blocked ingest can be seconds), so the buckets are fixed
powers of two: bucket ``i`` holds observations in ``(2^(MIN_EXP+i-1),
2^(MIN_EXP+i)]`` seconds, covering ~1 µs to ~64 s with 27 buckets plus an
overflow bucket.  Fixed buckets mean an observation is a ``math.frexp``
(one float decomposition, no search) and one increment — cheap enough to
sit on the firing hot path — and make histograms mergeable and directly
exportable as a Prometheus cumulative ``le`` series.

Quantiles are estimated by linear interpolation inside the owning bucket;
the exact ``min``/``max``/``sum`` are tracked on the side so the tails
reported by ``repro top`` never exceed an actually observed value.

Single writer, no lock: one thread observes (the firing thread, for the
engine's histograms).  ``observe`` updates min, max and sum *before* the
bucket, and every reader derives count, buckets and quantiles from one
copy of the bucket list, reading min/max/sum after it — so any observation
a reader counts is already inside its min/max and sum.
"""

from __future__ import annotations

import math

#: Exponent of the smallest bucket upper bound: 2**-20 s ≈ 0.95 µs.
MIN_EXP = -20
#: Exponent of the largest finite bucket upper bound: 2**6 s = 64 s.
MAX_EXP = 6
#: Finite buckets; one extra overflow bucket (+inf) follows.
BUCKETS = MAX_EXP - MIN_EXP + 1


def bucket_index(seconds: float) -> int:
    """Bucket of an observation (0-based; ``BUCKETS`` = overflow)."""
    if seconds <= 0.0:
        return 0
    exp = math.frexp(seconds)[1]  # seconds in (2**(exp-1), 2**exp]
    if math.ldexp(1.0, exp - 1) == seconds:  # exact power of two: inclusive ub
        exp -= 1
    if exp <= MIN_EXP:
        return 0
    if exp > MAX_EXP:
        return BUCKETS
    return exp - MIN_EXP


def bucket_upper(index: int) -> float:
    """Inclusive upper bound of bucket ``index`` (+inf for the overflow)."""
    if index >= BUCKETS:
        return math.inf
    return math.ldexp(1.0, MIN_EXP + index)


def _quantile(counts: list[int], count: int, lo: float, hi: float, q: float) -> float:
    """The ``q``-quantile of one bucket copy holding ``count``
    observations in ``[lo, hi]`` (0.0 when empty)."""
    if count == 0:
        return 0.0
    rank = q * count
    seen = 0.0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if seen + bucket_count >= rank:
            upper = bucket_upper(index)
            if math.isinf(upper):
                return hi
            lower = 0.0 if index == 0 else bucket_upper(index - 1)
            value = lower + (rank - seen) / bucket_count * (upper - lower)
            return min(max(value, lo), hi)
        seen += bucket_count
    return hi  # pragma: no cover - rank <= count always hits


class LogHistogram:
    """Fixed-bucket log-scale histogram of durations in seconds."""

    def __init__(self) -> None:
        self.reset()

    @property
    def count(self) -> int:
        return sum(self._counts)

    def observe(self, seconds: float, weight: int = 1) -> None:
        """Record ``weight`` observations of ``seconds`` each."""
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        self.sum += seconds * weight
        self._counts[bucket_index(seconds)] += weight

    def merge_from(self, other: "LogHistogram") -> None:
        counts = list(other._counts)
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.sum += other.sum
        for i, c in enumerate(counts):
            self._counts[i] += c

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (0.0 on an empty histogram).

        Linear interpolation inside the owning bucket, clamped to the
        exact observed ``min``/``max`` so estimates never leave the
        observed range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts = list(self._counts)
        return _quantile(counts, sum(counts), self.min, self.max, q)

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs (Prometheus ``le``)."""
        return self.export()[0]

    def export(self) -> tuple[list[tuple[float, int]], float, int]:
        """``(cumulative buckets, sum, count)`` for exporters, from one
        bucket copy: ``le="+Inf" == count`` always holds."""
        counts = list(self._counts)
        total = self.sum
        cumulative = 0
        out = []
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            out.append((bucket_upper(index), cumulative))
        return out, total, cumulative

    def snapshot(self) -> dict[str, float]:
        """Summary stats: count, sum, min/max, mean, p50/p95/p99 — all
        from one bucket copy, so ``min <= p50 <= p95 <= p99 <= max``."""
        counts = list(self._counts)
        total, lo, hi = self.sum, self.min, self.max
        count = sum(counts)
        if count == 0:
            total = lo = hi = 0.0
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": total / count if count else 0.0,
            "p50": _quantile(counts, count, lo, hi, 0.50),
            "p95": _quantile(counts, count, lo, hi, 0.95),
            "p99": _quantile(counts, count, lo, hi, 0.99),
        }

    def reset(self) -> None:
        self._counts = [0] * (BUCKETS + 1)
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0
