"""Per-instruction profiler.

DataCell's Figure 7 splits a sliding step's cost into the *main plan*
(original query operators) and the *merge* machinery (concat, compensation,
transition administration).  The interpreter tags every executed
instruction; this profiler accumulates wall time per tag and per opcode so
benchmarks report measured — not modelled — breakdowns.

Besides timings the profiler carries integer *counters* (factory firings,
fragment-cache hits/misses, ...) so the scheduler and the shared
fragment cache can report their behaviour through the same channel.

Single writer, no lock: each profiler is written by one thread — the
firing thread for per-firing, per-factory and scheduler-wide profilers, a
receptor's pushing thread for its own.  Readers on other threads copy:
each sub-dict copy is atomic under the GIL, and a copy taken at a scan
boundary (``Scheduler.scan_boundary``) sees no firing half-merged.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

#: Counter names used across the engine (any name is accepted).
COUNTER_FIRINGS = "firings"
COUNTER_CACHE_HITS = "fragment_cache_hits"
COUNTER_CACHE_MISSES = "fragment_cache_misses"
#: Overload-control counters (bounded baskets; see docs/OPERATIONS.md).
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
#: Durability counters (checkpoint/restore; see docs/OPERATIONS.md §7).
COUNTER_CHECKPOINTS = "checkpoints"
COUNTER_CHECKPOINT_BYTES = "checkpoint_bytes"
COUNTER_JOURNAL_RECORDS = "journal_records"
COUNTER_JOURNAL_BYTES = "journal_bytes"
COUNTER_REPLAYED_RECORDS = "replayed_records"
COUNTER_RECOVERY_SUPPRESSED = "recovery_suppressed"


@dataclass
class Profiler:
    """Accumulates instruction timings by cost tag and opcode."""

    by_tag: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    by_opcode: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, tag: str, opcode: str, seconds: float) -> None:
        self.by_tag[tag] += seconds
        self.by_opcode[opcode] += seconds
        self.calls[opcode] += 1

    def count(self, counter: str, amount: int = 1) -> None:
        """Bump an integer counter (firings, cache hits, ...)."""
        self.counters[counter] += amount

    @property
    def total(self) -> float:
        return sum(self.by_tag.values())

    def tag_seconds(self, tag: str) -> float:
        return self.by_tag.get(tag, 0.0)

    def counter(self, counter: str) -> int:
        return self.counters.get(counter, 0)

    def merge_from(self, other: "Profiler") -> None:
        """Fold another profiler's timings and counters into this one."""
        for tag, seconds in other.by_tag.items():
            self.by_tag[tag] += seconds
        for opcode, seconds in other.by_opcode.items():
            self.by_opcode[opcode] += seconds
        for opcode, count in other.calls.items():
            self.calls[opcode] += count
        for counter, count in other.counters.items():
            self.counters[counter] += count

    def tags(self) -> dict[str, float]:
        """Plain-dict copy of the per-tag wall-time totals."""
        return dict(self.by_tag)

    def snapshot(self) -> dict[str, dict]:
        """Structured copy: ``{"tags", "opcodes", "calls", "counters"}``.

        Timings (float seconds) and counters (ints) live in separate
        sub-dicts, so a counter whose name happens to match a cost tag can
        never type-pun an int into the float timing view.
        """
        return {
            "tags": dict(self.by_tag),
            "opcodes": dict(self.by_opcode),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

    def reset(self) -> None:
        self.by_tag.clear()
        self.by_opcode.clear()
        self.calls.clear()
        self.counters.clear()
