"""Text renderings of the observability state (``repro top`` / ``trace``).

Both renderers read only public engine surfaces (``metrics()``, the span
ring, per-query cursors), so they work on any engine regardless of how it
is driven.  They return strings rather than printing, which keeps them
testable and lets the CLI choose its own refresh/paging behaviour.
"""

from __future__ import annotations

import time


def _rate(spans) -> float:
    """Firings per second over the span window (0.0 if not measurable)."""
    if len(spans) < 2:
        return 0.0
    elapsed = spans[-1].wall - spans[0].wall
    if elapsed <= 0:
        return 0.0
    return (len(spans) - 1) / elapsed


def _pct(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "-"
    return f"{100.0 * numerator / denominator:.1f}%"


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


def render_top(engine) -> str:
    """One ``repro top`` frame: engine summary + per-factory table."""
    metrics = engine.metrics()
    counters = metrics["counters"]
    lines = []
    cache = metrics["fragment_cache"]
    summary = (
        f"queries={metrics['engine']['queries']} "
        f"streams={metrics['engine']['streams']} "
        f"firings={counters['firings']} "
        f"cache_hit_rate={cache.get('hit_rate', 0.0):.3f} "
        f"shed={counters['overflow_shed']} "
        f"worker_errors={counters['worker_errors']}"
    )
    lines.append(summary)
    partition = metrics.get("partition")
    if partition:
        for stream, stats in sorted(partition["streams"].items()):
            routed = "/".join(str(n) for n in stats["routed"])
            lines.append(
                f"partitions[{stream}] key={stats['key']} "
                f"routed={routed} skew={stats['skew']:.3f}"
            )
        for qname, stats in sorted(partition["queries"].items()):
            lines.append(
                f"partitioned {qname}: route={stats['route']} "
                f"flavor={stats['flavor']} windows={stats['windows']} "
                f"lag={stats['lag']}"
            )
    latency = metrics.get("latency")
    if latency is not None:
        lines.append(
            "ingest→emit latency: "
            f"p50={_ms(latency['p50'])}ms p95={_ms(latency['p95'])}ms "
            f"p99={_ms(latency['p99'])}ms max={_ms(latency['max'])}ms "
            f"(n={latency['count']})"
        )
    header = (
        f"{'FACTORY':<12} {'FIRINGS':>8} {'FIRE/S':>8} {'IN':>10} "
        f"{'OUT':>10} {'DEPTH':>7} {'CACHE%':>7} {'LAG ms':>8}"
    )
    lines.append(header)
    obs = engine.obs
    by_factory: dict[str, list] = {}
    if obs is not None:
        for span in obs.spans.last():
            by_factory.setdefault(span.factory, []).append(span)
    for name, stats in sorted(metrics["factories"].items()):
        fc = stats["counters"]
        spans = by_factory.get(name, [])
        waits = [s.ready_wait for s in spans]
        lag = _ms(sum(waits) / len(waits)) if waits else "-"
        hits = fc.get("fragment_cache_hits", 0)
        misses = fc.get("fragment_cache_misses", 0)
        try:
            depth = sum(len(b) for b in engine.query(name).baskets.values())
        except KeyError:  # factory registered outside submit()
            depth = 0
        lines.append(
            f"{name:<12} {fc.get('firings', 0):>8} {_rate(spans):>8.2f} "
            f"{fc.get('tuples_consumed', 0):>10} {fc.get('rows_emitted', 0):>10} "
            f"{depth:>7} {_pct(hits, hits + misses):>7} {lag:>8}"
        )
    if not metrics["factories"]:
        lines.append("(no factories registered)")
    return "\n".join(lines)


def render_trace(engine, last: int = 10) -> str:
    """The most recent ``last`` firing spans, oldest first."""
    obs = engine.obs
    if obs is None:
        return "observability is disabled (engine was built with observability=False)"
    spans = obs.spans.last(last)
    if not spans:
        return "(no spans recorded yet)"
    lines = []
    for span in spans:
        clock = time.strftime("%H:%M:%S", time.localtime(span.wall))
        millis = int((span.wall % 1) * 1000)
        tags = " ".join(
            f"{tag}={_ms(seconds)}ms" for tag, seconds in sorted(span.tags.items())
        )
        lines.append(
            f"{clock}.{millis:03d} {span.factory} #{span.seq} "
            f"{_ms(span.duration)}ms wait={_ms(span.ready_wait)}ms "
            f"in={span.consumed} out={span.emitted}"
            + (f" [{tags}]" if tags else "")
        )
    shown = len(spans)
    stats = obs.spans.stats()
    lines.append(
        f"({shown} span(s) shown, {stats['total']} recorded, "
        f"{stats['dropped']} evicted)"
    )
    return "\n".join(lines)
