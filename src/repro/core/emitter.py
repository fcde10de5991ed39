"""Emitters — the egress edge of the DataCell architecture (Figure 1).

An emitter is a result sink: the scheduler hands it every
:class:`~repro.core.factory.ResultBatch` a factory produces.  Four
implementations cover the delivery spectrum:

* :class:`CollectingEmitter` — thread-safe in-memory retention (what
  :meth:`ContinuousQuery.results` reads); optionally ring-bounded via
  ``keep_last``;
* :class:`CallbackEmitter` — forwards each batch to client code (the
  example applications' "clients");
* :class:`CsvEmitter` — appends result rows to a CSV file, the egress
  twin of the CSV ingestion path;
* :class:`RetryingEmitter` — a robustness wrapper around any of the
  above (or any external sink): a sink exception is retried with
  exponential backoff, and once retries are exhausted the batch lands in
  a *dead-letter* collector instead of propagating into the scheduler —
  so a flaky downstream never kills the factory that produced the
  result.  Retry and dead-letter counts surface through the profiler
  counter channel (``emit_retries`` / ``dead_letter_batches``).

A sink is just a callable ``(factory_name, batch) -> None``; the scheduler
treats a raised exception as a firing failure, which is exactly why
external deliveries should go through :class:`RetryingEmitter`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.core.factory import ResultBatch
from repro.kernel.execution.profiler import (
    COUNTER_DEAD_LETTERS,
    COUNTER_EMIT_RETRIES,
    Profiler,
)


class CollectingEmitter:
    """Thread-safe in-memory result collector."""

    def __init__(self, keep_last: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._batches: list[ResultBatch] = []  # guarded-by: _lock
        self._keep_last = keep_last
        self.total_batches = 0  # guarded-by: _lock
        self.total_rows = 0  # guarded-by: _lock

    def __call__(self, factory_name: str, batch: ResultBatch) -> None:
        with self._lock:
            self.total_batches += 1
            self.total_rows += len(batch)
            self._batches.append(batch)
            if self._keep_last is not None and len(self._batches) > self._keep_last:
                del self._batches[: len(self._batches) - self._keep_last]

    def batches(self) -> list[ResultBatch]:
        with self._lock:
            return list(self._batches)

    def last(self) -> Optional[ResultBatch]:
        with self._lock:
            return self._batches[-1] if self._batches else None

    def clear(self) -> None:
        with self._lock:
            self._batches.clear()

    def drain(self) -> tuple[int, list[ResultBatch]]:
        """Hand over the retained batches and forget them.

        Returns ``(total_batches, batches)`` from one locked view, so a
        consumer that tracks how many batches it has taken can tell how
        many of the returned (newest-last) batches are new to it.
        """
        with self._lock:
            batches, self._batches = self._batches, []
            return self.total_batches, batches

    def snapshot_state(self) -> dict:
        """Serializable image for checkpointing (see repro.core.durability)."""
        with self._lock:
            return {
                "total_batches": self.total_batches,
                "total_rows": self.total_rows,
                "batches": [
                    {
                        "names": list(batch.names),
                        "columns": dict(batch.columns),
                        "window_index": batch.window_index,
                        "response_seconds": batch.response_seconds,
                        "breakdown": dict(batch.breakdown),
                    }
                    for batch in self._batches
                ],
            }

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self.total_batches = state["total_batches"]
            self.total_rows = state["total_rows"]
            self._batches = [
                ResultBatch(
                    names=list(entry["names"]),
                    columns=entry["columns"],
                    window_index=entry["window_index"],
                    response_seconds=entry["response_seconds"],
                    breakdown=entry["breakdown"],
                )
                for entry in state["batches"]
            ]


class CallbackEmitter:
    """Forwards each batch to a user callback."""

    def __init__(self, callback: Callable[[ResultBatch], None]) -> None:
        self._callback = callback

    def __call__(self, factory_name: str, batch: ResultBatch) -> None:
        self._callback(batch)


class CsvEmitter:
    """Appends every result row to a CSV file.

    The symmetric counterpart of the CSV ingestion path: result windows
    stream out to a file a downstream client can tail.  Each row is
    prefixed with the window index so clients can segment windows.
    Thread-safe; remember to :meth:`close` (or use as a context manager).
    """

    def __init__(self, path, write_header: bool = True) -> None:
        self._lock = threading.Lock()
        self._file = open(path, "w")
        self._write_header = write_header
        self._header_written = False  # guarded-by: _lock
        self.rows_written = 0  # guarded-by: _lock

    def __call__(self, factory_name: str, batch: ResultBatch) -> None:
        with self._lock:
            if self._write_header and not self._header_written:
                self._file.write(",".join(["window"] + batch.names) + "\n")
                self._header_written = True
            for row in batch.rows():
                self._file.write(
                    ",".join([str(batch.window_index)] + [str(v) for v in row])
                )
                self._file.write("\n")
                self.rows_written += 1
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            self._file.close()

    def __enter__(self) -> "CsvEmitter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RetryingEmitter:
    """Shields the scheduler from a failing downstream sink.

    Wraps any result sink; each batch is attempted ``1 + max_retries``
    times with exponential backoff (``backoff``, doubling per attempt).
    When every attempt fails the batch is routed to the ``dead_letter``
    sink (default: an internal :class:`CollectingEmitter`, readable via
    :meth:`dead_letters`) together with the last exception in
    ``last_error`` — and crucially the exception does **not** propagate,
    so the factory's firing succeeds and the stream keeps flowing.

    ``profiler`` (optional) receives ``emit_retries`` and
    ``dead_letter_batches`` counts; the plain attributes ``retries`` and
    ``dead_lettered`` track the same numbers for profiler-less use.
    """

    def __init__(
        self,
        sink: Callable[[str, ResultBatch], None],
        max_retries: int = 3,
        backoff: float = 0.005,
        dead_letter: Optional[Callable[[str, ResultBatch], None]] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self._sink = sink
        self.max_retries = max_retries
        self.backoff = backoff
        self._dead_letter = (
            dead_letter if dead_letter is not None else CollectingEmitter()
        )
        self._profiler = profiler
        self._lock = threading.Lock()
        self.retries = 0  # guarded-by: _lock
        self.dead_lettered = 0  # guarded-by: _lock
        self.last_error: Optional[BaseException] = None  # guarded-by: _lock

    def __call__(self, factory_name: str, batch: ResultBatch) -> None:
        delay = self.backoff
        error: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            try:
                self._sink(factory_name, batch)
                return
            except Exception as exc:
                error = exc
                if attempt < self.max_retries:
                    with self._lock:
                        self.retries += 1
                    if self._profiler is not None:
                        self._profiler.count(COUNTER_EMIT_RETRIES)
                    time.sleep(delay)
                    delay *= 2
        with self._lock:
            self.dead_lettered += 1
            self.last_error = error
        if self._profiler is not None:
            self._profiler.count(COUNTER_DEAD_LETTERS)
        self._dead_letter(factory_name, batch)

    def dead_letters(self) -> list[ResultBatch]:
        """Batches that exhausted their retries (when the default
        dead-letter collector is in use)."""
        if isinstance(self._dead_letter, CollectingEmitter):
            return self._dead_letter.batches()
        raise TypeError("custom dead-letter sink: read it directly")
