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
    #: Firing duration in seconds (from just after the ready check to
    #: dispatch completion).
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
    """Bounded ring buffer of :class:`FiringSpan` records.

    ``capacity`` bounds memory; once full, each new span overwrites the
    oldest.  ``dropped`` counts the overwritten spans so dashboards can
    tell a quiet engine from an under-provisioned ring.

    Single writer (the firing thread), no lock: every count derives from
    one read of ``_next``, and each slot holds ``(index, span)`` so a
    reader racing :meth:`record` skips a slot the writer has reused
    instead of returning the wrong span.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"span capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clear()

    def record(self, span: FiringSpan) -> None:
        index = self._next
        self._ring[index % self.capacity] = (index, span)
        self._next = index + 1

    def __len__(self) -> int:
        return min(self._next, self.capacity)

    @property
    def total(self) -> int:
        """Spans ever recorded (including those the ring overwrote)."""
        return self._next

    @property
    def dropped(self) -> int:
        return max(0, self._next - self.capacity)

    def stats(self) -> dict[str, int]:
        """The ring counters, mutually consistent (one read of the total)."""
        total = self._next
        return {
            "recorded": min(total, self.capacity),
            "total": total,
            "capacity": self.capacity,
            "dropped": max(0, total - self.capacity),
        }

    def last(self, n: int | None = None) -> list[FiringSpan]:
        """The most recent ``n`` spans, oldest first (all retained if None)."""
        end = self._next
        held = dict(slot for slot in list(self._ring) if slot is not None)
        take = min(end, self.capacity) if n is None else max(0, min(n, end, self.capacity))
        return [held[i] for i in range(end - take, end) if i in held]

    def clear(self) -> None:
        self._ring: list[tuple[int, FiringSpan] | None] = [None] * self.capacity
        self._next = 0
