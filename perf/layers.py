"""Per-layer metrics of the traced run.

A layer is a module of ``src/repro``.  Times come from the spans
``perf/trace.py`` recorded under the traced saturate phase; counts come
from the same spans or from the engine's public statistics, differenced
over that phase so both describe the same work.
"""

from __future__ import annotations

from perf.trace import Span, layer_self_seconds, self_times

#: Profiler opcodes folded into the kernel.algebra families reported.
OPCODE_FAMILIES = {
    "select": ("algebra.select", "algebra.thetaselect", "algebra.mask_select", "cand."),
    "join": ("algebra.join", "algebra.semijoin", "algebra.antijoin"),
    "group": ("group.",),
    "aggregate": ("aggr.",),
    "concat": ("mat.pack", "bat.append"),
    "calc": ("calc.",),
    "sort": ("algebra.sort", "algebra.firstn"),
}


def engine_stats(engine) -> dict:
    """The public statistics the layer metrics difference over a phase."""
    profile = engine.profiler.snapshot()
    return {
        "counters": profile["counters"],
        "opcodes": profile["opcodes"],
        "cache": engine.fragment_cache.stats(),
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _total(spans: list[Span], *names: str) -> float:
    return sum(s[3] - s[2] for s in spans if s[0] in names)


def _count(spans: list[Span], *names: str) -> int:
    return sum(1 for s in spans if s[0] in names)


def _values(spans: list[Span], *names: str) -> list:
    return [s[5] for s in spans if s[0] in names and s[5] is not None]


def saturate_metrics(spans: list[Span], before: dict, after: dict) -> dict[str, float]:
    """Metrics of the spans under the traced saturate root (``spans[0]``)."""
    own = self_times(spans)
    layer = layer_self_seconds(spans)
    wall = spans[0][3] - spans[0][2]

    def self_of(name: str) -> float:
        return sum(t for span, t in zip(spans, own) if span[0] == name)

    counters = _delta(after["counters"], before["counters"])
    opcodes = _delta(after["opcodes"], before["opcodes"])
    cache = _delta(after["cache"], before["cache"])

    appends = ("Basket.append_columns", "Basket.append_rows")
    tuples_in = sum(_values(spans, *appends))
    append_s = _total(spans, *appends)
    scans = _values(spans, "Scheduler.run_once")
    lookups = cache["hits"] + cache["misses"]
    attributed = sum(s for name, s in layer.items() if name != "driver")

    metrics = {
        "core.engine.feed_self_s": self_of("DataCellEngine.feed"),
        "core.engine.pump_self_s": self_of("DataCellEngine.run_until_idle"),
        "core.basket.append_calls": _count(spans, *appends),
        "core.basket.tuples_in": tuples_in,
        "core.basket.append_s": append_s,
        "core.basket.ns_per_tuple": append_s / tuples_in * 1e9 if tuples_in else 0.0,
        "core.scheduler.run_once_calls": len(scans),
        # run_until_idle's return also counts shard-worker firings.
        "core.scheduler.firings": sum(_values(spans, "DataCellEngine.run_until_idle")),
        "core.scheduler.fire_ratio": (
            sum(1 for fired in scans if fired) / len(scans) if scans else 0.0
        ),
        "core.scheduler.self_s": layer.get("core.scheduler", 0.0),
        "core.factory.step_calls": _count(spans, "IncrementalFactory.step"),
        "core.factory.self_s": layer.get("core.factory", 0.0),
        "core.factory.fragment_s": _total(spans, "run:fragment"),
        "core.factory.combine_s": _total(spans, "run:combine"),
        "core.factory.finalize_s": _total(spans, "run:finalize"),
        "core.factory.tuples_consumed": counters.get("tuples_consumed", 0),
        "core.factory.rows_emitted": counters.get("rows_emitted", 0),
        "core.partials.cache_hits": cache["hits"],
        "core.partials.cache_misses": cache["misses"],
        "core.partials.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "core.partials.self_s": layer.get("core.partials", 0.0),
        "kernel.execution.run_calls": sum(1 for s in spans if s[1] == "kernel.execution"),
        "kernel.execution.busy_s": layer.get("kernel.execution", 0.0),
        "kernel.execution.compiled_fallbacks": counters.get("compiled_fallbacks", 0),
        "core.emitter.batches": _count(spans, "CollectingEmitter.__call__"),
        "core.emitter.rows": sum(_values(spans, "CollectingEmitter.__call__")),
        "core.emitter.self_s": layer.get("core.emitter", 0.0),
        "core.partition.route_s": _total(spans, "route_columns"),
        "core.shard.ship_s": _total(spans, "ShardSet.feed_partition"),
        # The coordinator blocks in run() while workers fire: from outside,
        # this is the workers' busy time.
        "core.shard.wait_s": _total(spans, "ShardSet.run"),
        "core.shard.collect_s": _total(spans, "ShardSet.collect"),
        "core.shard.merge_s": _total(spans, "PartitionedQuery.drain"),
        "core.durability.journal_calls": _count(spans, "DurabilityManager.journal"),
        "core.durability.journal_s": _total(spans, "DurabilityManager.journal"),
        "core.durability.journal_bytes": counters.get("journal_bytes", 0),
        "driver.unattributed_frac": 1.0 - attributed / wall if wall else 0.0,
    }
    for family, prefixes in OPCODE_FAMILIES.items():
        metrics[f"kernel.algebra.{family}_s"] = sum(
            seconds
            for opcode, seconds in opcodes.items()
            if opcode.startswith(prefixes)
        )
    return metrics
