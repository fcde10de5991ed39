"""Benchmark drivers shared by the per-figure benchmarks.

Each of the paper's figures measures one of two metrics:

* per-window **response time** — the time from "all tuples of a slide are
  available" to "the window result is produced" (Figures 4–8).  The
  drivers here feed exactly one slide's worth of tuples and time
  ``factory.step()``;
* **total time** — wall time to consume a whole input and produce all
  windows (Figure 9), including parsing/loading.

Every driver works identically for incremental and re-evaluation factories
so DataCell and DataCellR always run the exact same workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.core.engine import ContinuousQuery, DataCellEngine
from repro.core.factory import ResultBatch
from repro.errors import ReproError
from repro.kernel.execution.profiler import Profiler


@dataclass
class WindowTimings:
    """Per-window measurements of one run."""

    response_seconds: list[float] = field(default_factory=list)
    breakdowns: list[dict[str, float]] = field(default_factory=list)
    #: Every window's result, for cross-checking two runs.
    batches: list[ResultBatch] = field(default_factory=list)

    @property
    def result_sizes(self) -> list[int]:
        return [len(batch) for batch in self.batches]

    def mean_response(self, skip_first: int = 0) -> float:
        samples = self.response_seconds[skip_first:]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def tag_mean(self, tag: str, skip_first: int = 0) -> float:
        samples = [b.get(tag, 0.0) for b in self.breakdowns[skip_first:]]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)


def _slice_columns(
    columns: Mapping[str, np.ndarray], start: int, stop: int
) -> dict[str, np.ndarray]:
    return {name: values[start:stop] for name, values in columns.items()}


def drive_single(
    engine: DataCellEngine,
    query: ContinuousQuery,
    stream: str,
    columns: Mapping[str, np.ndarray],
    window: int,
    step: int,
    num_windows: int,
    chunk_m: Optional[int] = None,
    chunker=None,
) -> WindowTimings:
    """Feed a single-stream query slide by slide, timing each step.

    ``chunk_m`` forces m-chunk processing; ``chunker`` (an
    :class:`~repro.core.chunking.AdaptiveChunker`) lets the factory adapt
    ``m`` while observing the measured response times.
    """
    total_needed = window + (num_windows - 1) * step
    first = next(iter(columns.values()))
    if len(first) < total_needed:
        raise ReproError(
            f"workload too small: need {total_needed} tuples, have {len(first)}"
        )
    timings = WindowTimings()
    factory = query.factory
    fed = 0
    for index in range(num_windows):
        take = window if index == 0 else step
        engine.feed(stream, columns=_slice_columns(columns, fed, fed + take))
        fed += take
        profiler = Profiler()
        if chunker is not None:
            batch = factory.step_chunked(chunker.current_m, profiler)
        elif chunk_m is not None:
            batch = factory.step_chunked(chunk_m, profiler)
        else:
            batch = factory.step(profiler)
        if batch is None:
            raise ReproError(f"factory not ready at window {index}")
        timings.response_seconds.append(batch.response_seconds)
        timings.breakdowns.append(batch.breakdown)
        timings.batches.append(batch)
        if chunker is not None:
            chunker.observe(batch.response_seconds)
    return timings


def drive_landmark(
    engine: DataCellEngine,
    query: ContinuousQuery,
    stream: str,
    columns: Mapping[str, np.ndarray],
    step: int,
    num_windows: int,
) -> WindowTimings:
    """Feed a landmark query slide by slide (window grows each step)."""
    timings = WindowTimings()
    factory = query.factory
    fed = 0
    for __ in range(num_windows):
        engine.feed(stream, columns=_slice_columns(columns, fed, fed + step))
        fed += step
        profiler = Profiler()
        batch = factory.step(profiler)
        if batch is None:
            raise ReproError("landmark factory not ready")
        timings.response_seconds.append(batch.response_seconds)
        timings.breakdowns.append(batch.breakdown)
        timings.batches.append(batch)
    return timings


def drive_join(
    engine: DataCellEngine,
    query: ContinuousQuery,
    left_stream: str,
    left_columns: Mapping[str, np.ndarray],
    right_stream: str,
    right_columns: Mapping[str, np.ndarray],
    window: int,
    step: int,
    num_windows: int,
) -> WindowTimings:
    """Feed a two-stream join query slide by slide (equal geometry)."""
    timings = WindowTimings()
    factory = query.factory
    fed = 0
    for index in range(num_windows):
        take = window if index == 0 else step
        engine.feed(left_stream, columns=_slice_columns(left_columns, fed, fed + take))
        engine.feed(right_stream, columns=_slice_columns(right_columns, fed, fed + take))
        fed += take
        profiler = Profiler()
        batch = factory.step(profiler)
        if batch is None:
            raise ReproError(f"join factory not ready at window {index}")
        timings.response_seconds.append(batch.response_seconds)
        timings.breakdowns.append(batch.breakdown)
        timings.batches.append(batch)
    return timings


def total_time_datacell(
    engine: DataCellEngine,
    feeds: list[tuple[str, Mapping[str, np.ndarray]]],
    chunk: int = 4096,
) -> float:
    """Total wall time to feed all data chunk-wise and drain the scheduler."""
    start = time.perf_counter()
    offsets = {stream: 0 for stream, __ in feeds}
    remaining = True
    while remaining:
        remaining = False
        for stream, columns in feeds:
            offset = offsets[stream]
            first = next(iter(columns.values()))
            if offset >= len(first):
                continue
            engine.feed(
                stream, columns=_slice_columns(columns, offset, offset + chunk)
            )
            offsets[stream] = offset + chunk
            remaining = True
        engine.run_until_idle()
    engine.run_until_idle()
    return time.perf_counter() - start


def total_time_systemx(systemx, feeds: list[tuple[str, list[tuple]]]) -> float:
    """Total wall time for SystemX to consume interleaved row batches."""
    start = time.perf_counter()
    iters = [(stream, iter(rows)) for stream, rows in feeds]
    live = True
    while live:
        live = False
        for stream, rows in iters:
            pushed = 0
            for row in rows:
                systemx.push(stream, row)
                pushed += 1
                if pushed >= 1024:
                    break
            if pushed:
                live = True
    return time.perf_counter() - start
