"""The engine-wide observability hub.

One :class:`Observability` instance per engine owns every tracing sink:
the firing-span ring, the ingest→emit latency histogram, the firing
duration histogram, and the per-opcode duration histograms.  The engine
hands it to the scheduler, which observes each firing once: a span, the
latency marks the firing consumed, its duration, and its per-firing
profiler's opcode totals (:meth:`Observability.observe_opcodes`).

Everything here is written by the firing thread alone, without locks;
readers copy (see :mod:`repro.obs.hist` and :mod:`repro.obs.spans`).

Disabled observability is represented by *absence* — the engine passes
``None`` down the stack — so the disabled cost on the firing path is a
few ``is None`` tests, not flag checks inside a constructed object.
"""

from __future__ import annotations

from typing import Iterator

from repro.kernel.execution.profiler import Profiler
from repro.obs.hist import LogHistogram
from repro.obs.spans import SpanRecorder


class Observability:
    """Tracing sinks for one engine: spans + latency/duration histograms."""

    def __init__(self, span_capacity: int = 1024) -> None:
        #: Ring buffer of recent firing spans (``repro trace``).
        self.spans = SpanRecorder(span_capacity)
        #: Ingest→emit latency: basket arrival stamp → result dispatch.
        self.latency = LogHistogram()
        #: Wall time of whole firings (just after the ready check to
        #: dispatch completion).
        self.firing_duration = LogHistogram()
        self._opcodes: dict[str, LogHistogram] = {}

    # -- per-opcode histograms ------------------------------------------
    def observe_opcodes(self, profiler: Profiler) -> None:
        """Fold one firing's profiler into the per-opcode histograms.

        Each opcode observes the firing's mean instruction time, weighted
        by its call count: a histogram's ``count`` and ``sum`` stay exactly
        the profiler's calls and seconds, while its min, max and quantiles
        are those of per-firing means.
        """
        by_opcode = profiler.by_opcode
        for opcode, calls in profiler.calls.items():
            hist = self._opcodes.get(opcode)
            if hist is None:
                hist = self._opcodes[opcode] = LogHistogram()
            hist.observe(by_opcode[opcode] / calls, calls)

    def opcode_histograms(self) -> dict[str, LogHistogram]:
        """Point-in-time view of the per-opcode histograms."""
        return dict(self._opcodes)

    def iter_opcode_snapshots(self) -> Iterator[tuple[str, dict[str, float]]]:
        for opcode, hist in sorted(self.opcode_histograms().items()):
            yield opcode, hist.snapshot()

    def reset(self) -> None:
        self.spans.clear()
        self.latency.reset()
        self.firing_duration.reset()
        self._opcodes.clear()
