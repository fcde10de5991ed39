"""Per-instruction profiler.

DataCell's Figure 7 splits a sliding step's cost into the *main plan*
(original query operators) and the *merge* machinery (concat, compensation,
transition administration).  The interpreter tags every executed
instruction; this profiler accumulates wall time per tag and per opcode so
benchmarks report measured — not modelled — breakdowns.

Besides timings the profiler carries integer *counters* (factory firings,
fragment-cache hits/misses, ...) so the scheduler and the shared
fragment cache can report their behaviour through the same channel.

Thread-safety: the firing thread merges per-firing profilers into shared
per-factory and global profilers while receptors count retries and metrics
readers snapshot them, so every mutating or snapshotting method takes the
instance lock.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field

#: Counter names used across the engine (any name is accepted).
COUNTER_FIRINGS = "firings"
COUNTER_CACHE_HITS = "fragment_cache_hits"
COUNTER_CACHE_MISSES = "fragment_cache_misses"
#: Overload-control counters (bounded baskets; see docs/OPERATIONS.md).
COUNTER_SHED = "overflow_shed"
COUNTER_BLOCK_WAITS = "overflow_block_waits"
COUNTER_BLOCK_TIMEOUTS = "overflow_block_timeouts"
COUNTER_INGEST_RETRIES = "ingest_retries"
COUNTER_INGEST_DROPPED = "ingest_dropped"
COUNTER_EMIT_RETRIES = "emit_retries"
COUNTER_DEAD_LETTERS = "dead_letter_batches"
#: Scheduler/observability counters (see docs/OPERATIONS.md §6).
COUNTER_WORKER_ERRORS = "worker_errors"
COUNTER_TUPLES_CONSUMED = "tuples_consumed"
COUNTER_ROWS_EMITTED = "rows_emitted"
#: Programs the compiled backend handed to the interpreter instead
#: (unsupported opcode — see kernel.execution.backends).
COUNTER_COMPILED_FALLBACKS = "compiled_fallbacks"
#: Durability counters (checkpoint/restore; see docs/OPERATIONS.md §7).
COUNTER_CHECKPOINTS = "checkpoints"
COUNTER_CHECKPOINT_BYTES = "checkpoint_bytes"
COUNTER_JOURNAL_RECORDS = "journal_records"
COUNTER_JOURNAL_BYTES = "journal_bytes"
COUNTER_REPLAYED_RECORDS = "replayed_records"
COUNTER_RECOVERY_SUPPRESSED = "recovery_suppressed"
#: Landmark spill counters (bounded-memory landmark store; see
#: docs/OPERATIONS.md §8 and docs/METRICS.md).
COUNTER_LANDMARK_SPILL_RUNS = "landmark_spill_runs"
COUNTER_LANDMARK_SPILL_BYTES = "landmark_spill_bytes"
COUNTER_LANDMARK_PAGEINS = "landmark_spill_pageins"
COUNTER_LANDMARK_PAGEIN_BYTES = "landmark_spill_pagein_bytes"


@dataclass
class Profiler:
    """Accumulates instruction timings by cost tag and opcode."""

    by_tag: dict[str, float] = field(default_factory=lambda: defaultdict(float))  # guarded-by: _lock
    by_opcode: dict[str, float] = field(default_factory=lambda: defaultdict(float))  # guarded-by: _lock
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))  # guarded-by: _lock
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))  # guarded-by: _lock

    def __post_init__(self) -> None:
        # RLock: merge_from(other) locks both sides and snapshot() is
        # callable while the same thread holds the lock.
        self._lock = threading.RLock()
        # Optional per-observation hook (opcode, seconds): the scheduler
        # attaches the observability layer's per-opcode histograms here.
        self._observer = None  # guarded-by: _lock

    def set_observer(self, observer) -> None:
        """Attach a ``(opcode, seconds)`` callback invoked on every record.

        Used by the observability layer to feed per-opcode duration
        histograms; ``None`` (the default) keeps record() allocation-free.
        """
        with self._lock:
            self._observer = observer

    def record(self, tag: str, opcode: str, seconds: float) -> None:
        with self._lock:
            self.by_tag[tag] += seconds
            self.by_opcode[opcode] += seconds
            self.calls[opcode] += 1
            observer = self._observer
        if observer is not None:
            observer(opcode, seconds)

    def count(self, counter: str, amount: int = 1) -> None:
        """Bump an integer counter (firings, cache hits, ...)."""
        with self._lock:
            self.counters[counter] += amount

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self.by_tag.values())

    def tag_seconds(self, tag: str) -> float:
        with self._lock:
            return self.by_tag.get(tag, 0.0)

    def counter(self, counter: str) -> int:
        with self._lock:
            return self.counters.get(counter, 0)

    def merge_from(self, other: "Profiler") -> None:
        """Fold another profiler's timings and counters into this one."""
        with other._lock:
            tags = dict(other.by_tag)
            opcodes = dict(other.by_opcode)
            calls = dict(other.calls)
            counters = dict(other.counters)
        with self._lock:
            for tag, seconds in tags.items():
                self.by_tag[tag] += seconds
            for opcode, seconds in opcodes.items():
                self.by_opcode[opcode] += seconds
            for opcode, count in calls.items():
                self.calls[opcode] += count
            for counter, count in counters.items():
                self.counters[counter] += count

    def tags(self) -> dict[str, float]:
        """Plain-dict copy of the per-tag wall-time totals."""
        with self._lock:
            return dict(self.by_tag)

    def snapshot(self) -> dict[str, dict]:
        """Structured copy: ``{"tags", "opcodes", "calls", "counters"}``.

        Timings (float seconds) and counters (ints) live in separate
        sub-dicts, so a counter whose name happens to match a cost tag can
        never type-pun an int into the float timing view.
        """
        with self._lock:
            return {
                "tags": dict(self.by_tag),
                "opcodes": dict(self.by_opcode),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
            }

    def restore(self, snap: dict[str, dict]) -> None:
        """Replace all timings/counters with a prior :meth:`snapshot`.

        Error-path rollback: the compiled backend snapshots before running
        a traced program and restores on failure, so the segments recorded
        by the partially-executed fused body are not double-counted when
        the interpreter re-run records the whole program again.  The
        caller must own the profiler for the snapshot-restore span (true
        for per-firing profilers; merging happens after the firing).
        """
        with self._lock:
            self.by_tag.clear()
            self.by_tag.update(snap["tags"])
            self.by_opcode.clear()
            self.by_opcode.update(snap["opcodes"])
            self.calls.clear()
            self.calls.update(snap["calls"])
            self.counters.clear()
            self.counters.update(snap["counters"])

    def reset(self) -> None:
        with self._lock:
            self.by_tag.clear()
            self.by_opcode.clear()
            self.calls.clear()
            self.counters.clear()
