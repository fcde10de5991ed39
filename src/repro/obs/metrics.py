"""Metrics assembly and export.

:func:`collect_metrics` folds every observable surface of an engine —
profiler counters, per-tag plan seconds, per-factory stats, per-stream
basket/overload stats, the fragment cache, and (when tracing is enabled)
the latency/duration histograms and span ring — into one plain-dict
snapshot.  That dict is the single source of truth: ``engine.metrics()``
returns it, :func:`render_json` serializes it, and
:func:`render_prometheus` flattens it into Prometheus text exposition
format (counters as ``_total``, histograms as cumulative ``le`` bucket
series) for scraping.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.core import Observability

#: Counters every snapshot carries, even before anything happened, so
#: dashboards and tests can rely on the keys existing.
BASE_COUNTERS = (
    "firings",
    "fragment_cache_hits",
    "fragment_cache_misses",
    "overflow_shed",
    "overflow_block_waits",
    "overflow_block_timeouts",
    "ingest_retries",
    "ingest_dropped",
    "emit_retries",
    "dead_letter_batches",
    "worker_errors",
    "tuples_consumed",
    "rows_emitted",
    "checkpoints",
    "checkpoint_bytes",
    "journal_records",
    "journal_bytes",
    "replayed_records",
    "recovery_suppressed",
    "landmark_spill_runs",
    "landmark_spill_bytes",
    "landmark_spill_pageins",
    "landmark_spill_pagein_bytes",
)


def collect_metrics(engine) -> dict:
    """One structured snapshot of everything the engine can report.

    ``engine`` is a :class:`~repro.core.engine.DataCellEngine` (duck-typed
    to avoid an import cycle: the engine imports this module).
    """
    profile = engine.profiler.snapshot()
    counters = {name: 0 for name in BASE_COUNTERS}
    counters.update(profile["counters"])

    factories = {}
    for name, stats in engine.scheduler.factory_stats().items():
        factories[name] = {
            "firings": stats["counters"].get("firings", 0),
            "counters": stats["counters"],
            "tags": stats["tags"],
        }

    obs = engine.obs
    metrics: dict = {
        "engine": {
            "queries": len(engine._queries),
            "streams": len(engine._logs),
            "partitions": getattr(engine, "partitions", 1),
            "observability": obs is not None,
        },
        "counters": counters,
        "tags": profile["tags"],
        "factories": factories,
        "streams": engine.overload_stats(),
        "fragment_cache": engine.fragment_cache.stats(),
    }
    partition = getattr(engine, "partition_stats", None)
    if partition is not None:
        stats = partition()
        if stats:
            metrics["partition"] = stats
    durability = getattr(engine, "durability_stats", None)
    if durability is not None:
        stats = durability()
        if stats:
            metrics["durability"] = stats
    spill = getattr(engine, "landmark_spill_stats", None)
    if spill is not None:
        stats = spill()
        if stats:
            metrics["landmark_spill"] = stats
    merge = getattr(engine, "merge_stats", None)
    if merge is not None:
        stats = merge()
        if stats:
            metrics["merge"] = stats
    if obs is not None:
        metrics["latency"] = obs.latency.snapshot()
        metrics["firing_duration"] = obs.firing_duration.snapshot()
        metrics["opcodes"] = {
            opcode: snap for opcode, snap in obs.iter_opcode_snapshots()
        }
        # One locked read: the separate len()/total/dropped properties
        # can tear against a concurrent record() mid-snapshot.
        metrics["spans"] = obs.spans.stats()
    return metrics


def render_json(metrics: dict, indent: int = 2) -> str:
    """The metrics snapshot as a JSON document."""
    return json.dumps(metrics, indent=indent, sort_keys=True, default=str)


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels(**labels: str) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in labels.items())
    return "{" + inner + "}"


class _PromWriter:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def header(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value: float, **labels: str) -> None:
        self.lines.append(f"{name}{_labels(**labels)} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _render_histogram(
    writer: _PromWriter, name: str, help_text: str, hist
) -> None:
    writer.header(name, "histogram", help_text)
    # Atomic read: Prometheus requires le="+Inf" == _count, which only
    # holds if buckets, sum, and count come from the same locked view.
    buckets, total, count = hist.export()
    for upper, cumulative in buckets:
        writer.sample(f"{name}_bucket", cumulative, le=_fmt(upper))
    writer.sample(f"{name}_sum", total)
    writer.sample(f"{name}_count", count)


def render_prometheus(metrics: dict, obs: Optional["Observability"] = None) -> str:
    """The metrics snapshot in Prometheus text exposition format.

    ``obs`` (optional) supplies raw histogram buckets for the latency and
    firing-duration series; without it only the counter/gauge families
    are rendered.
    """
    w = _PromWriter()

    w.header("repro_firings_total", "counter", "Factory firings engine-wide.")
    w.sample("repro_firings_total", metrics["counters"].get("firings", 0))

    counter_help = {
        "fragment_cache_hits": "Shared fragment-cache hits.",
        "fragment_cache_misses": "Shared fragment-cache misses.",
        "overflow_shed": "Tuples shed by bounded baskets.",
        "overflow_block_waits": "Appends that waited for basket room.",
        "overflow_block_timeouts": "Blocked appends that timed out.",
        "ingest_retries": "Receptor append retries after overflow.",
        "ingest_dropped": "Tuples dropped by background receptors.",
        "emit_retries": "Emitter delivery retries.",
        "dead_letter_batches": "Result batches routed to dead letter.",
        "worker_errors": "Factory firing failures seen by the scheduler.",
        "tuples_consumed": "Tuples consumed by firings.",
        "rows_emitted": "Result rows emitted by firings.",
        "compiled_fallbacks": "Programs the compiled backend handed back.",
        "checkpoints": "Consistent checkpoints committed.",
        "checkpoint_bytes": "Snapshot bytes written by checkpoints.",
        "journal_records": "Records appended to the input journal.",
        "journal_bytes": "Bytes appended to the input journal.",
        "replayed_records": "Journal records replayed during recovery.",
        "recovery_suppressed": "Duplicate emissions dropped after restore.",
        "landmark_spill_runs": "Cold landmark runs spilled to disk.",
        "landmark_spill_bytes": "Bytes written to landmark spill runs.",
        "landmark_spill_pageins": "Spilled landmark runs paged back in.",
        "landmark_spill_pagein_bytes": "Bytes read back from spill runs.",
    }
    for counter, help_text in counter_help.items():
        name = f"repro_{counter}_total"
        w.header(name, "counter", help_text)
        w.sample(name, metrics["counters"].get(counter, 0))

    w.header(
        "repro_plan_seconds_total",
        "counter",
        "Interpreter seconds by cost tag (main/merge/admin).",
    )
    for tag, seconds in sorted(metrics["tags"].items()):
        w.sample("repro_plan_seconds_total", seconds, tag=tag)

    w.header(
        "repro_factory_firings_total", "counter", "Firings per factory."
    )
    for factory, stats in sorted(metrics["factories"].items()):
        w.sample("repro_factory_firings_total", stats["firings"], factory=factory)

    stream_gauges = (
        ("parked", "repro_basket_parked", "Tuples parked in a stream's basket."),
        ("max_parked", "repro_basket_max_parked", "Deepest query cursor lag."),
        ("capacity", "repro_basket_capacity", "Configured capacity (0 = unbounded)."),
        ("baskets", "repro_stream_baskets", "Queries reading the stream's basket."),
    )
    for key, name, help_text in stream_gauges:
        w.header(name, "gauge", help_text)
        for stream, stats in sorted(metrics["streams"].items()):
            w.sample(name, stats[key], stream=stream)

    partition = metrics.get("partition")
    if partition:
        w.header(
            "repro_partition_routed_total",
            "counter",
            "Tuples hash-routed to each partition of a stream.",
        )
        for stream, stats in sorted(partition["streams"].items()):
            for p, routed in enumerate(stats["routed"]):
                w.sample(
                    "repro_partition_routed_total",
                    routed,
                    stream=stream,
                    partition=str(p),
                )
        w.header(
            "repro_partition_skew",
            "gauge",
            "Routing skew per stream: (max - min) / max tuples routed.",
        )
        for stream, stats in sorted(partition["streams"].items()):
            w.sample("repro_partition_skew", stats["skew"], stream=stream)
        w.header(
            "repro_partition_lag_windows",
            "gauge",
            "Window-progress spread across a query's partitions.",
        )
        for qname, stats in sorted(partition["queries"].items()):
            w.sample("repro_partition_lag_windows", stats["lag"], query=qname)
        w.header(
            "repro_partition_merged_windows_total",
            "counter",
            "Windows merged by the coordinator per partitioned query.",
        )
        for qname, stats in sorted(partition["queries"].items()):
            w.sample(
                "repro_partition_merged_windows_total",
                stats["windows"],
                query=qname,
            )
        w.header(
            "repro_partition_worker_parked",
            "gauge",
            "Tuples parked in one shard worker's baskets.",
        )
        for p, counters in enumerate(partition["workers"]):
            w.sample(
                "repro_partition_worker_parked",
                counters.get("parked", 0),
                partition=str(p),
            )

    durability = metrics.get("durability")
    if durability:
        w.header(
            "repro_journal_seq",
            "gauge",
            "Highest sequence number appended to the input journal.",
        )
        w.sample("repro_journal_seq", durability.get("seq", 0))
        w.header(
            "repro_journal_segment_bytes",
            "gauge",
            "Bytes in the live (post-checkpoint) journal segment.",
        )
        w.sample("repro_journal_segment_bytes", durability.get("journal_bytes", 0))
        w.header(
            "repro_checkpoint_snapshot_id",
            "gauge",
            "Identifier of the live snapshot (0 = none yet).",
        )
        w.sample("repro_checkpoint_snapshot_id", durability.get("snapshot_id", 0))
        last = durability.get("last_checkpoint") or {}
        w.header(
            "repro_last_checkpoint_bytes",
            "gauge",
            "Size of the most recent snapshot file.",
        )
        w.sample("repro_last_checkpoint_bytes", last.get("bytes", 0))
        w.header(
            "repro_last_checkpoint_seconds",
            "gauge",
            "Wall-clock duration of the most recent checkpoint.",
        )
        w.sample("repro_last_checkpoint_seconds", last.get("seconds", 0.0))

    spill = metrics.get("landmark_spill")
    if spill:
        spill_gauges = (
            ("hot_bytes", "repro_landmark_spill_hot_bytes",
             "In-memory landmark partial bytes (hot suffix)."),
            ("budget_bytes", "repro_landmark_spill_budget_bytes",
             "Configured per-query hot-state byte budget."),
            ("disk_bytes", "repro_landmark_spill_disk_bytes",
             "Bytes held in a query's on-disk spill runs."),
            ("runs", "repro_landmark_spill_run_files",
             "Spill run files currently on disk for a query."),
        )
        for key, name, help_text in spill_gauges:
            w.header(name, "gauge", help_text)
            for qname, stats in sorted(spill.items()):
                w.sample(name, stats.get(key, 0), query=qname)

    merge = metrics.get("merge")
    if merge:
        merge_families = (
            ("merge_cover_len", "repro_merge_cover_len", "gauge",
             "Bundles merged by a query's last firing (tree cover length)."),
            ("merge_nodes_sealed", "repro_merge_nodes_sealed_total", "counter",
             "Pre-merged merge-tree nodes a query has folded."),
            ("merge_nodes_live", "repro_merge_nodes_live", "gauge",
             "Pre-merged merge-tree nodes a query currently holds."),
        )
        for key, name, kind, help_text in merge_families:
            w.header(name, kind, help_text)
            for qname, stats in sorted(merge.items()):
                w.sample(name, stats.get(key, 0), query=qname)

    cache = metrics["fragment_cache"]
    w.header(
        "repro_fragment_cache_hit_rate",
        "gauge",
        "Shared fragment-cache hit rate over its lifetime.",
    )
    w.sample("repro_fragment_cache_hit_rate", cache.get("hit_rate", 0.0))

    if obs is not None:
        _render_histogram(
            w,
            "repro_ingest_emit_latency_seconds",
            "Latency from basket arrival to result dispatch.",
            obs.latency,
        )
        _render_histogram(
            w,
            "repro_firing_duration_seconds",
            "Duration of factory firings.",
            obs.firing_duration,
        )
        spans = metrics.get("spans", {})
        w.header("repro_spans_recorded", "gauge", "Spans held in the trace ring.")
        w.sample("repro_spans_recorded", spans.get("recorded", 0))
        w.header("repro_spans_dropped_total", "counter", "Spans evicted from the ring.")
        w.sample("repro_spans_dropped_total", spans.get("dropped", 0))
    return w.text()
