"""Firing spans — one trace record per factory firing.

A span is the observability twin of a Petri-net transition: it says *which*
factory fired, *when*, how long the firing took, what it consumed and
emitted, how long the factory had been ready before the scheduler fired it,
and how the interpreter's cost tags (``main``/``merge``/``admin``) split
the work.  The scheduler records spans into a :class:`SpanRecorder`, a
fixed-capacity ring buffer: tracing a long-running engine costs bounded
memory, and ``repro trace`` reads the most recent window of activity.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FiringSpan:
    """One factory firing, as observed by the scheduler."""

    #: Factory (continuous query) name.
    factory: str
    #: Per-factory firing sequence number (1-based, monotonic).
    seq: int
    #: Wall-clock time of the firing start (``time.time()``), for display.
    wall: float
    #: Firing duration in seconds (ready-check to dispatch completion).
    duration: float
    #: Tuples consumed from the factory's baskets by this firing.
    consumed: int
    #: Result rows emitted by this firing.
    emitted: int
    #: Seconds between the previous firing (while ready) and this one —
    #: how long enabled work sat waiting for the firing thread.
    ready_wait: float
    #: Per-tag cost breakdown of this firing (seconds by ``main``/
    #: ``merge``/``admin``), from the per-firing profiler.
    tags: dict[str, float] = field(default_factory=dict)


class SpanRecorder:
    """Bounded, thread-safe ring buffer of :class:`FiringSpan` records.

    ``capacity`` bounds memory; once full, each new span overwrites the
    oldest.  ``dropped`` counts the overwritten spans so dashboards can
    tell a quiet engine from an under-provisioned ring.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"span capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: list[FiringSpan | None] = [None] * capacity  # guarded-by: _lock
        self._next = 0  # total spans ever recorded; guarded-by: _lock
        self.dropped = 0  # guarded-by: _lock

    def record(self, span: FiringSpan) -> None:
        with self._lock:
            if self._next >= self.capacity:
                self.dropped += 1
            self._ring[self._next % self.capacity] = span
            self._next += 1

    def __len__(self) -> int:
        with self._lock:
            return min(self._next, self.capacity)

    @property
    def total(self) -> int:
        """Spans ever recorded (including those the ring overwrote)."""
        with self._lock:
            return self._next

    def stats(self) -> dict[str, int]:
        """Atomic snapshot of the ring counters.

        One lock acquisition, so ``recorded``/``total``/``dropped`` are
        mutually consistent — reading them as separate properties can
        tear against a concurrent :meth:`record`.
        """
        with self._lock:
            return {
                "recorded": min(self._next, self.capacity),
                "total": self._next,
                "capacity": self.capacity,
                "dropped": self.dropped,
            }

    def last(self, n: int | None = None) -> list[FiringSpan]:
        """The most recent ``n`` spans, oldest first (all retained if None)."""
        with self._lock:
            held = min(self._next, self.capacity)
            take = held if n is None else max(0, min(n, held))
            start = self._next - take
            return [
                self._ring[i % self.capacity]  # type: ignore[misc]
                for i in range(start, self._next)
            ]

    def clear(self) -> None:
        with self._lock:
            self._ring = [None] * self.capacity
            self._next = 0
            self.dropped = 0
