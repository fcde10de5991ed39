"""Observability — tracing and metrics for a running DataCell engine.

The paper's evaluation attributes every sliding step's cost to main-plan
vs. merge/transition work (Figures 4-10); this package turns that
attribution into a first-class runtime facility instead of a benchmark
afterthought:

* **firing spans** (:mod:`repro.obs.spans`) — the scheduler wraps every
  factory firing in a :class:`FiringSpan` carrying the factory name,
  firing sequence number, tuples consumed/emitted, ready-wait time, and
  the per-tag (``main``/``merge``/``admin``) cost breakdown the
  interpreter already produces.  Spans land in a bounded ring buffer
  (:class:`SpanRecorder`); when observability is disabled the scheduler
  never constructs one, so the cost is a few ``is None`` checks;
* **latency histograms** (:mod:`repro.obs.hist`) — baskets stamp batch
  arrival, the scheduler closes the loop when the consuming firing
  emits, giving an ingest→emit latency distribution (p50/p95/p99) plus
  per-opcode duration histograms.  :class:`LogHistogram` uses fixed
  log-scale buckets and a single short lock per observation;
* **metrics export** (:mod:`repro.obs.metrics`) — engine-wide counters,
  gauges and histograms assembled into one structured snapshot by
  :meth:`DataCellEngine.metrics` and rendered as Prometheus text
  exposition format or JSON;
* **console views** (:mod:`repro.obs.console`) — ``repro top`` (live
  per-factory table: firings/s, basket depth, cache hit rate, lag) and
  ``repro trace --last N`` (recent span dump).

docs/OPERATIONS.md §6 is the operator guide; DESIGN.md §11 records the
design rationale.
"""

from repro.obs.core import Observability
from repro.obs.hist import LogHistogram
from repro.obs.metrics import collect_metrics, render_json, render_prometheus
from repro.obs.spans import FiringSpan, SpanRecorder

__all__ = [
    "Observability",
    "FiringSpan",
    "SpanRecorder",
    "LogHistogram",
    "collect_metrics",
    "render_prometheus",
    "render_json",
]
