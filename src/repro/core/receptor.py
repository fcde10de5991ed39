"""Receptors — the ingress edge of the DataCell architecture (Figure 1).

A receptor feeds one stream.  Its target is anything with a basket's
``append_rows``/``append_columns`` pair: a bare basket, or — built by
:meth:`DataCellEngine.receptor` — the stream's :meth:`~DataCellEngine.feed`
path, so receptor batches are journaled and read by every query exactly
like fed ones.  The synchronous ``push_*`` methods are what benchmarks use
(bulk columnar appends measured as "loading" cost); the threaded mode
(:meth:`Receptor.start`) consumes an iterable of rows in the background
for the example applications.

Overload behaviour: when the basket is bounded (see
:mod:`repro.core.overflow`) an append can raise
:class:`~repro.errors.BasketOverflowError` — the ``Fail`` policy rejecting
a batch, or ``Block`` timing out.  The receptor honours the policy with a
bounded retry/backoff loop (``max_retries`` attempts, exponential backoff
starting at ``backoff`` seconds):

* the synchronous ``push_*`` methods re-raise once retries are exhausted,
  so the caller keeps control of the tuples;
* the background ingest loop cannot re-raise into anyone, so after the
  retries it shuts the batch at the receptor (counted in ``dropped`` and
  the ``ingest_dropped`` profiler counter) and keeps consuming — a stalled
  engine degrades into load shedding instead of an unbounded thread queue.

Every retry, drop, and delivery is surfaced through the receptor's
thread-safe :class:`~repro.kernel.execution.profiler.Profiler` (shared
with the engine's global profiler when built via
:meth:`DataCellEngine.receptor`), alongside the basket's own shed/blocked
counters.  docs/OPERATIONS.md shows how to read them together.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.errors import BasketOverflowError, StreamError
from repro.kernel.execution.profiler import (
    COUNTER_INGEST_DROPPED,
    COUNTER_INGEST_RETRIES,
    Profiler,
)


class Receptor:
    """Feeds tuples into a basket or stream, synchronously or from a thread.

    ``max_retries``/``backoff`` govern the overflow retry loop (see the
    module docstring); the defaults (no retries) make ``push_*`` surface
    a :class:`BasketOverflowError` on the first failure, which is the
    right behaviour for the ``Fail`` policy tests and for callers that
    implement their own shedding.
    """

    def __init__(
        self,
        target,
        batch_size: int = 1024,
        max_retries: int = 0,
        backoff: float = 0.005,
        profiler: Optional[Profiler] = None,
    ) -> None:
        #: Where batches go: a Basket, or the engine's feed path for a
        #: stream (both expose ``name``, ``append_rows``, ``append_columns``).
        self.target = target
        self.batch_size = batch_size
        self.max_retries = max_retries
        self.backoff = backoff
        self.profiler = profiler if profiler is not None else Profiler()
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        #: Tuples delivered to the target through this receptor.
        self.delivered = 0
        #: Tuples given up by the *background loop* after retries.
        self.dropped = 0

    # -- synchronous paths -------------------------------------------------
    def push_rows(
        self, rows: Iterable[Sequence], timestamps: Optional[Sequence[int]] = None
    ) -> int:
        """Append a row batch; returns what the target reports (a basket:
        tuples admitted; a stream's feed: the batch size).

        Retries overflow failures ``max_retries`` times with exponential
        backoff, then re-raises.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        return self._push(self.target.append_rows, rows, timestamps)

    def push_columns(
        self,
        columns: Mapping[str, Sequence | np.ndarray],
        timestamps: Optional[Sequence[int] | np.ndarray] = None,
    ) -> int:
        """Append a columnar batch (return value as :meth:`push_rows`)."""
        return self._push(self.target.append_columns, columns, timestamps)

    def _push(self, append: Callable, payload, timestamps) -> int:
        attempt = 0
        while True:
            try:
                count = append(payload, timestamps)
            except BasketOverflowError:
                if attempt >= self.max_retries:
                    raise
                attempt += 1
                self.profiler.count(COUNTER_INGEST_RETRIES)
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            else:
                self.delivered += count
                return count

    # -- background path -------------------------------------------------
    def start(
        self,
        source: Iterator[Sequence],
        on_batch: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Consume ``source`` rows into the target from a daemon thread.

        Batches that still overflow after the retry loop are dropped here
        (counted, never re-raised) so a slow consumer cannot wedge the
        ingest thread forever.
        """
        if self._thread is not None:
            raise StreamError("receptor already running")
        self._stop_event.clear()

        def deliver(batch: list[Sequence]) -> None:
            try:
                admitted = self.push_rows(batch)
            except BasketOverflowError:
                self.dropped += len(batch)
                self.profiler.count(COUNTER_INGEST_DROPPED, len(batch))
                admitted = 0
            if on_batch is not None:
                on_batch(admitted)

        def loop() -> None:
            batch: list[Sequence] = []
            for row in source:
                if self._stop_event.is_set():
                    break
                batch.append(row)
                if len(batch) >= self.batch_size:
                    deliver(batch)
                    batch = []
            if batch and not self._stop_event.is_set():
                deliver(batch)

        self._thread = threading.Thread(
            target=loop, name=f"receptor-{self.target.name}", daemon=True
        )
        self._thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the background source to be fully consumed."""
        if self._thread is not None:
            self._thread.join(timeout)
            if not self._thread.is_alive():
                self._thread = None

    def stop(self) -> None:
        self._stop_event.set()
        self.join()
