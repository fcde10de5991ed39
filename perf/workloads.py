"""The five workloads of the benchmark: queries, geometry, frozen counts.

Every workload is plain data.  ``perf/driver.py`` turns it into engine
calls, ``perf/verify.py`` recomputes sampled windows from the same
description, so both agree on what each query means without sharing any
engine code.

Counts are frozen at the reference run length ``REFERENCE_SECONDS`` and
scale linearly with ``--seconds``.  They were calibrated on the seed
commit (see perf/README.md) so that the saturate phase takes about 45 %
of the run length and the paced phase exactly 55 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Run length the counts below are frozen at; ``--seconds`` scales them.
REFERENCE_SECONDS = 16
#: Open-loop schedule: one tick every 5 ms.
TICK_SECONDS = 0.005
#: Paced ticks at the reference run length (55 % of 16 s).
PACED_TICKS = 1760
#: Event time per tuple position (microseconds) on streams that carry
#: generator timestamps: one event-time second is 4000 tuples.
TS_STEP_US = 250


@dataclass(frozen=True)
class Window:
    """One window geometry, in the terms the reference needs.

    ``kind`` is ``count`` (sliding or tumbling), ``landmark`` or ``time``;
    ``size``/``step`` are tuples, or microseconds for ``time``.
    """

    kind: str
    size: int
    step: int

    def clause(self) -> str:
        if self.kind == "landmark":
            return f"[LANDMARK SLIDE {self.step}]"
        if self.kind == "time":
            return (
                f"[RANGE {self.size // 1_000_000} SECONDS "
                f"SLIDE {self.step // 1_000_000} SECONDS]"
            )
        if self.size == self.step:
            return f"[RANGE {self.size}]"
        return f"[RANGE {self.size} SLIDE {self.step}]"

    def bounds(self, k: int) -> tuple[int, int]:
        """Stream positions ``[lo, hi)`` of window ``k`` (0-based)."""
        if self.kind == "landmark":
            return 0, (k + 1) * self.step
        if self.kind == "time":
            # Position p carries timestamp p * TS_STEP_US; origin is 0.
            return (
                -(-k * self.step // TS_STEP_US),
                -(-(k * self.step + self.size) // TS_STEP_US),
            )
        return k * self.step, k * self.step + self.size

    def needed(self, k: int) -> int:
        """Tuples that must have arrived for window ``k`` to close.

        A time window closes on the first tuple *at or past* its end, so
        it needs one tuple more than it holds.
        """
        hi = self.bounds(k)[1]
        return hi + 1 if self.kind == "time" else hi

    def fired(self, n: int) -> int:
        """Windows closed once ``n`` tuples of the stream have arrived."""
        if self.kind == "landmark":
            return n // self.step
        if self.kind == "time":
            watermark = (n - 1) * TS_STEP_US
            if n < 1 or watermark < self.size:
                return 0
            return (watermark - self.size) // self.step + 1
        if n < self.size:
            return 0
        return (n - self.size) // self.step + 1


@dataclass(frozen=True)
class Query:
    """One continuous query plus what the reference needs to recompute it.

    ``shape`` picks the reference reduction: ``gsum`` (``key, sum(val)``
    grouped by ``key``), ``cntavg`` (``count(val), avg(val)``), ``minmax``
    or ``join`` (Q2: ``max(left.val), avg(right.val)`` over an equi-join
    on ``key``).  ``threshold`` is the literal of ``WHERE filter > t``
    (None = no predicate).
    """

    name: str
    sql: str
    shape: str
    streams: tuple[str, ...]
    window: Window
    key: str = "x1"
    val: str = "x2"
    filter: str = "x1"
    threshold: int | None = None

    def fired(self, fed: dict[str, int]) -> int:
        """Windows closed once ``fed[stream]`` tuples of each input stream
        have arrived; a join fires when both of its sides can."""
        return min(self.window.fired(fed[stream]) for stream in self.streams)


@dataclass(frozen=True)
class Stream:
    name: str
    #: ``(column, exclusive upper bound)`` — all columns are uniform ints.
    columns: tuple[tuple[str, int], ...]
    partition_by: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    streams: tuple[Stream, ...]
    queries: tuple[Query, ...]
    #: Tuples per stream in one saturate op (one slide / one base tick).
    chunk: int
    #: Saturate ticks at the reference run length (each tick feeds every
    #: stream once, pumping after each feed).
    saturate_ticks: int
    #: Open-loop input rate, tuples/s summed over the streams.
    paced_tps: int
    #: Pre-generated tuples per stream; longer runs cycle the buffer.
    buffer: int
    workers: int = 1
    partitions: int = 1
    durable: bool = False
    #: Feed generator timestamps (time-based windows need them).
    timestamps: bool = False
    #: ``checkpoint()`` every this many saturate ticks (reference scale).
    checkpoint_every: int = 0
    #: Traced run only: ticks of the ``mode="reeval"`` baseline.
    reeval_ticks: int = 0
    #: Traced run only: ticks of the P=1 ephemeral baseline.
    p1_ticks: int = 0

    @property
    def paced_chunk(self) -> int:
        """Tuples per stream per 5 ms tick in the paced phase."""
        return max(1, round(self.paced_tps * TICK_SECONDS / len(self.streams)))

    def fill(self) -> int:
        """Tuples per stream after which every query has emitted once,
        rounded up to whole saturate chunks so later slides stay aligned."""
        need = max(q.window.needed(0) for q in self.queries)
        return -(-need // self.chunk) * self.chunk


XY = (("x1", 100), ("x2", 1000))


def _q1(window: Window) -> Query:
    # Paper Q1 at selectivity 0.8: x1 uniform in [0, 100), x1 > 19.
    return Query(
        "q1",
        f"SELECT x1, sum(x2) FROM s {window.clause()} WHERE x1 > 19 GROUP BY x1",
        "gsum",
        ("s",),
        window,
        threshold=19,
    )


Q1_FINE = Workload(
    name="q1_fine",
    why=(
        "Fig. 4a/7 regime: 400 new tuples but 512 partials merged per firing, "
        "so factory combine/transition and per-firing fixed cost dominate."
    ),
    streams=(Stream("s", XY),),
    queries=(_q1(Window("count", 204_800, 400)),),
    chunk=400,
    saturate_ticks=4000,
    paced_tps=115_000,
    buffer=1 << 20,
    reeval_ticks=150,
)

Q1_BULK = Workload(
    name="q1_bulk",
    why=(
        "Same query, 4 basic windows of 65536: kernel algebra and basket copy "
        "dominate and merging is negligible, so a merge-side win must not show here."
    ),
    streams=(Stream("s", XY),),
    queries=(_q1(Window("count", 262_144, 65_536)),),
    chunk=65_536,
    saturate_ticks=1700,
    paced_tps=8_000_000,
    buffer=1 << 22,
)

_Q2_WINDOW = Window("count", 32_768, 1_024)
Q2_JOIN = Workload(
    name="q2_join",
    why=(
        "Paper Q2 two-stream equi-join, 32x32 basic-window pairs: join kernel and "
        "PairStore; most paced feeds fire nothing, so the ingest-only path shows."
    ),
    # Join selectivity 1e-4: keys uniform in [0, 10000).
    streams=(
        Stream("stream1", (("x1", 100), ("x2", 10_000))),
        Stream("stream2", (("x1", 100), ("x2", 10_000))),
    ),
    queries=(
        Query(
            "q2",
            "SELECT max(s1.x1), avg(s2.x1) FROM "
            f"stream1 s1 {_Q2_WINDOW.clause()}, stream2 s2 {_Q2_WINDOW.clause()} "
            "WHERE s1.x2 = s2.x2",
            "join",
            ("stream1", "stream2"),
            _Q2_WINDOW,
            key="x2",
            val="x1",
        ),
    ),
    chunk=1_024,
    saturate_ticks=320,
    paced_tps=48_000,
    buffer=1 << 20,
)

#: Six geometries of the fleet: three count-sliding (two share a step, so
#: their fragments are shared across window sizes), tumbling, landmark,
#: and one time-sliding window over generator timestamps.
FLEET_GEOMETRIES = (
    Window("count", 8_192, 1_024),
    Window("count", 16_384, 1_024),
    Window("count", 8_192, 2_048),
    Window("count", 4_096, 4_096),
    Window("landmark", 0, 2_048),
    Window("time", 8_000_000, 1_000_000),
)


def _fleet_sql(shape: str, stream: str, alias: str, window: Window, t: int) -> str:
    p = f"{alias}." if alias else ""
    source = f"{stream} {alias} {window.clause()}" if alias else f"{stream} {window.clause()}"
    select = {
        "gsum": f"{p}x1, sum({p}x2)",
        "cntavg": f"count({p}x2), avg({p}x2)",
        "minmax": f"min({p}x2), max({p}x2)",
    }[shape]
    tail = f" GROUP BY {p}x1" if shape == "gsum" else ""
    return f"SELECT {select} FROM {source} WHERE {p}x1 > {t}{tail}"


def _fleet_queries() -> tuple[Query, ...]:
    """48 queries: 3 shapes x 2 thresholds x 6 geometries alternate over
    two streams (36), and every third one is submitted again under a
    table alias — 12 alpha-equivalent pairs, 24 queries in a pair."""
    queries: list[Query] = []
    index = 0
    for window in FLEET_GEOMETRIES:
        for threshold in (19, 49):
            for shape in ("gsum", "cntavg", "minmax"):
                stream = "sa" if index % 2 == 0 else "sb"
                aliases = ("", "r") if index % 3 == 0 else ("",)
                for alias in aliases:
                    queries.append(
                        Query(
                            f"f{len(queries):02d}",
                            _fleet_sql(shape, stream, alias, window, threshold),
                            shape,
                            (stream,),
                            window,
                            threshold=threshold,
                        )
                    )
                index += 1
    return tuple(queries)


FLEET_MIXED = Workload(
    name="fleet_mixed",
    why=(
        "48 queries on 2 streams, half in alpha-equivalent pairs: per-query basket "
        "fan-out, scheduler readiness scans and FragmentCache; kernels do little."
    ),
    streams=(Stream("sa", XY), Stream("sb", XY)),
    queries=_fleet_queries(),
    chunk=1_024,
    saturate_ticks=1200,
    paced_tps=100_000,
    buffer=1 << 20,
    # workers=1: the seed's workers=2 is slower and does not repeat
    # within a tenth (perf/README.md, seed findings).
    workers=1,
    timestamps=True,
)

_SD_WINDOW = Window("count", 16_384, 4_096)
SHARDED_DURABLE = Workload(
    name="sharded_durable",
    why=(
        "partitions=2 with a data_dir: partition routing, shm/pipe transport, "
        "collector merge, journal, checkpoint and restore; kernel work is small."
    ),
    streams=(Stream("s", (("k", 96), ("v", 1000)), partition_by="k"),),
    queries=(
        # Grouped by the partition key: the merge-free concat route.
        Query(
            "by_key",
            f"SELECT k, sum(v) FROM s {_SD_WINDOW.clause()} GROUP BY k",
            "gsum",
            ("s",),
            _SD_WINDOW,
            key="k",
            val="v",
        ),
        # Global aggregate: workers ship partials, coordinator re-aggregates.
        Query(
            "global",
            f"SELECT count(v), avg(v) FROM s {_SD_WINDOW.clause()}",
            "cntavg",
            ("s",),
            _SD_WINDOW,
            val="v",
        ),
    ),
    chunk=4_096,
    saturate_ticks=1750,
    paced_tps=500_000,
    buffer=1 << 22,
    partitions=2,
    durable=True,
    checkpoint_every=500,
    p1_ticks=250,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Q1_FINE, Q1_BULK, Q2_JOIN, FLEET_MIXED, SHARDED_DURABLE)
}


class Data:
    """A workload's pre-generated input, addressed by stream position.

    Position ``p`` of a stream holds ``buffer[p % length]``; each column
    carries a tail pad so any slice up to ``pad`` tuples is one
    contiguous view (no copy on the feed path).
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.length = workload.buffer
        self.pad = max(workload.chunk, workload.paced_chunk, workload.fill())
        if self.pad > self.length:
            raise ValueError(f"{workload.name}: buffer shorter than one feed")
        self.columns: dict[str, dict[str, np.ndarray]] = {}
        for stream in workload.streams:
            cols = {}
            for name, high in stream.columns:
                base = rng.integers(0, high, self.length, dtype=np.int64)
                cols[name] = np.concatenate([base, base[: self.pad]])
            self.columns[stream.name] = cols
        self.with_timestamps = workload.timestamps

    def take(self, stream: str, start: int, count: int):
        """``(columns, timestamps)`` of positions ``[start, start+count)``."""
        lo = start % self.length
        cols = {
            name: values[lo : lo + count]
            for name, values in self.columns[stream].items()
        }
        ts = None
        if self.with_timestamps:
            ts = np.arange(start, start + count, dtype=np.int64) * TS_STEP_US
        return cols, ts

    def gather(self, stream: str, column: str, lo: int, hi: int) -> np.ndarray:
        """Values at positions ``[lo, hi)`` (verification; copies)."""
        idx = np.arange(lo, hi, dtype=np.int64) % self.length
        return self.columns[stream][column][idx]
