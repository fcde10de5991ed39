"""Four-way differential oracle for generated continuous queries.

Each generated query is executed on up to six legs and every fired
window is compared across them:

* ``incremental`` — the paper's DataCell (split/replicate/merge plans);
* ``reeval`` — the DataCellR full-recompute baseline;
* ``systemx`` — the specialized tuple-at-a-time simulation (skipped for
  time-based windows and stream⋈table joins, which it rejects);
* ``reference`` — the naive Python evaluator
  (:mod:`repro.testing.fuzz.reference`);
* ``incremental-dup`` — a second identical incremental query in the same
  engine, which joins the pivot's factory as one more sink (whole-query
  sharing; with sharing off it runs a factory of its own);
* ``incremental-chunked`` — the same plan on its own engine, driven
  through ``step_chunked(m)`` (single-stream count-based sliding only);
* ``incremental-partitioned`` — the same query on a separate
  ``partitions=P`` engine (hash-routed partition engines plus the
  coordinator's merge, DESIGN.md §14; single-stream non-landmark shapes
  with a hashable key only);
* ``incremental-crash`` — the same query on a separate *durable* engine
  that is checkpointed, killed, and restored at deterministic points
  mid-run (DESIGN.md §15); recovery must reproduce the uninterrupted
  emission list exactly once.

Configurable axes (fragment sharing, feed chunking) shake the caching
layers with the *same* query; results must be invariant.  Window rows
are compared as multisets with float tolerance;
when the query has ORDER BY, each engine's emission order is additionally
checked for sortedness (ties stay unconstrained — LIMIT is never
generated).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from repro.core.engine import ContinuousQuery, DataCellEngine, _as_schema
from repro.dsms.engine import SystemX
from repro.errors import ReproError
from repro.testing.fuzz.generator import Feed, FuzzQuery, build_engine
from repro.testing.fuzz.reference import (
    ReferenceOracle,
    check_sorted,
    rows_equivalent,
)

#: Comparison legs in pivot-first order.
PIVOT = "incremental"


@dataclass
class OracleConfig:
    """One oracle run's execution axes."""

    fragment_sharing: bool = True
    duplicate: bool = False  # second incremental query (shares qi's factory)
    chunk_plan: Optional[dict[str, list[int]]] = None  # feed batch sizes
    step_chunk: Optional[int] = None  # m for step_chunked (chunk_ok only)
    float_tol: float = 1e-6
    partitions: int = 1  # extra sharded leg when > 1 (partition_ok only)
    crash: bool = False  # extra durable leg: checkpoint+kill+restore mid-run

    def to_json(self) -> dict:
        return {
            "fragment_sharing": self.fragment_sharing,
            "duplicate": self.duplicate,
            "chunk_plan": self.chunk_plan,
            "step_chunk": self.step_chunk,
            "float_tol": self.float_tol,
            "partitions": self.partitions,
            "crash": self.crash,
        }

    @staticmethod
    def from_json(data: dict) -> "OracleConfig":
        """Inverse of :meth:`to_json`; the keys must be exactly its keys."""
        keys = set(OracleConfig().to_json())
        if set(data) != keys:
            raise ReproError(
                f"oracle config keys {sorted(data)} are not {sorted(keys)}"
            )
        return OracleConfig(**data)

    def describe(self) -> str:
        parts = [f"sharing={self.fragment_sharing}"]
        if self.duplicate:
            parts.append("dup")
        if self.step_chunk:
            parts.append(f"m={self.step_chunk}")
        if self.chunk_plan:
            parts.append("chunked-feed")
        if self.partitions > 1:
            parts.append(f"partitions={self.partitions}")
        if self.crash:
            parts.append("crash")
        return " ".join(parts)


@dataclass
class Divergence:
    """One observed disagreement between two oracle legs."""

    kind: str  # "window-count" | "rows" | "order" | "error" | "lint"
    left: str
    right: str
    window: Optional[int]
    detail: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "left": self.left,
            "right": self.right,
            "window": self.window,
            "detail": self.detail,
        }

    def describe(self) -> str:
        where = f" window {self.window}" if self.window is not None else ""
        return f"{self.kind} {self.left} vs {self.right}{where}: {self.detail}"


@dataclass
class OracleResult:
    divergence: Optional[Divergence]
    windows: dict[str, list[list[tuple]]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.divergence is None


# ----------------------------------------------------------------------
# feeding
# ----------------------------------------------------------------------
def normalize_chunks(total: int, sizes: Optional[list[int]]) -> list[int]:
    """Positive chunk sizes covering exactly ``total`` rows."""
    if total <= 0:
        return []
    if not sizes:
        return [total]
    out: list[int] = []
    used = 0
    for size in sizes:
        size = min(max(int(size), 1), total - used)
        if size <= 0:
            break
        out.append(size)
        used += size
        if used >= total:
            break
    if used < total:
        out.append(total - used)
    return out


def _feed_rounds(
    engine: DataCellEngine,
    query: FuzzQuery,
    feed: Feed,
    chunk_plan: Optional[dict[str, list[int]]],
    on_round,
    systemx: Optional[SystemX] = None,
) -> None:
    """Feed all streams in interleaved chunk rounds, firing after each."""
    plans = {
        name: normalize_chunks(
            feed.row_count(name),
            (chunk_plan or {}).get(name),
        )
        for name in query.streams
    }
    offsets = {name: 0 for name in query.streams}
    rounds = max((len(p) for p in plans.values()), default=0)
    for index in range(rounds):
        for name, sizes in plans.items():
            if index >= len(sizes):
                continue
            lo = offsets[name]
            hi = lo + sizes[index]
            offsets[name] = hi
            columns = {
                col: values[lo:hi]
                for col, values in feed.columns[name].items()
            }
            ts = feed.timestamps.get(name)
            engine.feed(
                name,
                columns=columns,
                timestamps=ts[lo:hi] if ts is not None else None,
            )
            if systemx is not None:
                for row in feed.rows(name, query.streams[name])[lo:hi]:
                    systemx.push(name, row)
        on_round()
    for name, watermark in feed.punctuate.items():
        engine.advance_time(name, watermark)
    on_round()


# ----------------------------------------------------------------------
# running one engine-side configuration
# ----------------------------------------------------------------------
def run_incremental(
    query: FuzzQuery,
    feed: Feed,
    chunk_plan: Optional[dict[str, list[int]]] = None,
    fragment_sharing: bool = True,
    sql: Optional[str] = None,
) -> list[list[tuple]]:
    """One incremental leg alone (the metamorphic relations' workhorse).

    ``sql`` overrides the rendered query text (e.g. substituted window
    geometries) while keeping the query's schemas and feed.
    """
    engine = build_engine(query, fragment_sharing=fragment_sharing)
    try:
        handle = engine.submit(sql if sql is not None else query.sql)
        _feed_rounds(
            engine, query, feed, chunk_plan, on_round=engine.run_until_idle
        )
        return [batch.rows() for batch in handle.results()]
    finally:
        engine.close()


def run_partitioned(
    query: FuzzQuery, feed: Feed, config: OracleConfig
) -> Optional[list[list[tuple]]]:
    """The sharded leg: the same query on a P-partition engine.

    Runs in its own engine (the step-chunk instrument only sees
    in-process state).
    Returns None when the partition planner rejects the query shape, so
    the caller simply skips the leg.
    """
    from repro.errors import UnsupportedQueryError

    engine = build_engine(query, partitions=config.partitions)
    try:
        try:
            handle = engine.submit(query.sql, name="qp")
        except UnsupportedQueryError:
            return None
        _feed_rounds(
            engine, query, feed, config.chunk_plan,
            on_round=engine.run_until_idle,
        )
        return [batch.rows() for batch in handle.results()]
    finally:
        engine.close()


def run_crash_leg(
    query: FuzzQuery, feed: Feed, config: OracleConfig
) -> list[list[tuple]]:
    """The durability leg: checkpoint + kill + restore cycles mid-run.

    Runs the query on its own durable P=1 engine and interrupts it twice
    at deterministic points — once *after feeding but before firing* a
    middle round (the journal holds input the factories never saw), and
    once after all input is consumed (results must survive verbatim).  A
    checkpoint partway through makes the second half replay from the
    snapshot + journal suffix; the recovery dedup filter must suppress
    every window emitted before the kill, so the final emission list is
    exactly the uninterrupted one (exactly-once from the emitter's view).
    """
    tmp = tempfile.mkdtemp(prefix="repro-fuzz-crash-")
    data_dir = os.path.join(tmp, "data")
    engine = build_engine(query, data_dir=data_dir)
    try:
        handle = engine.submit(query.sql, name="qx")
        plans = {
            name: normalize_chunks(
                feed.row_count(name),
                (config.chunk_plan or {}).get(name),
            )
            for name in query.streams
        }
        offsets = {name: 0 for name in query.streams}
        rounds = max((len(p) for p in plans.values()), default=0)
        checkpoint_round = rounds // 3
        crash_round = (2 * rounds) // 3
        for index in range(rounds):
            for name, sizes in plans.items():
                if index >= len(sizes):
                    continue
                lo = offsets[name]
                hi = lo + sizes[index]
                offsets[name] = hi
                columns = {
                    col: values[lo:hi]
                    for col, values in feed.columns[name].items()
                }
                ts = feed.timestamps.get(name)
                engine.feed(
                    name,
                    columns=columns,
                    timestamps=ts[lo:hi] if ts is not None else None,
                )
            if index == crash_round:
                # Kill with this round's input journaled but unfired.
                engine.abandon()
                engine = DataCellEngine.restore(data_dir)
                handle = engine.query("qx")
            engine.run_until_idle()
            if index == checkpoint_round:
                engine.checkpoint()
        for name, watermark in feed.punctuate.items():
            engine.advance_time(name, watermark)
        engine.run_until_idle()
        # Final kill after quiescence: emissions must survive verbatim.
        engine.abandon()
        engine = DataCellEngine.restore(data_dir)
        engine.run_until_idle()
        handle = engine.query("qx")
        return [batch.rows() for batch in handle.results()]
    finally:
        engine.close()
        shutil.rmtree(tmp, ignore_errors=True)


def run_chunked_leg(
    query: FuzzQuery, feed: Feed, config: OracleConfig
) -> list[list[tuple]] | Divergence:
    """The m-chunk leg: the query alone on its own engine (a twin on the
    pivot's engine would share the pivot's factory), stepped by hand
    through ``step_chunked(m)`` after every feed round."""
    engine = build_engine(query, fragment_sharing=config.fragment_sharing)
    batches: list = []
    try:
        handle = engine.submit(query.sql, name="qc")

        def fire() -> None:
            while (batch := handle.factory.step_chunked(config.step_chunk)) is not None:
                batches.append(batch)
            engine.run_until_idle()

        try:
            _feed_rounds(engine, query, feed, config.chunk_plan, fire)
        except ReproError as exc:
            return Divergence("error", "engine", "feed", None, str(exc))
    finally:
        engine.close()
    return [batch.rows() for batch in batches]


def run_oracle(query: FuzzQuery, feed: Feed, config: OracleConfig) -> OracleResult:
    """Execute every applicable leg and compare all fired windows."""
    windows: dict[str, list[list[tuple]]] = {}
    reference = ReferenceOracle(query)
    windows["reference"] = reference.windows(feed)

    systemx: Optional[SystemX] = None
    sysx_query = None
    if query.systemx_ok:
        systemx = SystemX()
        for name, cols in query.streams.items():
            systemx.create_stream(name, _as_schema(cols))
        sysx_query = systemx.submit(query.sql)

    engine = build_engine(query, fragment_sharing=config.fragment_sharing)
    try:
        incremental: ContinuousQuery = engine.submit(query.sql, name="qi")
        reeval = engine.submit(query.sql, mode="reeval", name="qr")
        # The same SQL again: it joins qi's factory as one more sink.
        duplicate = (
            engine.submit(query.sql, name="qd") if config.duplicate else None
        )
        try:
            _feed_rounds(
                engine,
                query,
                feed,
                config.chunk_plan,
                engine.run_until_idle,
                systemx=systemx,
            )
        except ReproError as exc:
            return OracleResult(
                Divergence("error", "engine", "feed", None, str(exc)), windows
            )
        windows[PIVOT] = [b.rows() for b in incremental.results()]
        windows["reeval"] = [b.rows() for b in reeval.results()]
        if duplicate is not None:
            windows["incremental-dup"] = [b.rows() for b in duplicate.results()]
    finally:
        engine.close()
    if config.step_chunk and query.chunk_ok:
        chunked = run_chunked_leg(query, feed, config)
        if isinstance(chunked, Divergence):
            return OracleResult(chunked, windows)
        windows["incremental-chunked"] = chunked
    if sysx_query is not None:
        windows["systemx"] = [list(rows) for rows in sysx_query.results]

    if config.partitions > 1 and query.partition_ok:
        partitioned = run_partitioned(query, feed, config)
        if partitioned is not None:
            windows["incremental-partitioned"] = partitioned

    if config.crash:
        windows["incremental-crash"] = run_crash_leg(query, feed, config)

    return OracleResult(compare_windows(windows, reference, config), windows)


def compare_windows(
    windows: dict[str, list[list[tuple]]],
    reference: ReferenceOracle,
    config: OracleConfig,
) -> Optional[Divergence]:
    """First divergence between the pivot leg and every other leg."""
    pivot = windows[PIVOT]
    for label, other in windows.items():
        if label == PIVOT:
            continue
        if len(other) != len(pivot):
            return Divergence(
                "window-count",
                PIVOT,
                label,
                None,
                f"{len(pivot)} vs {len(other)} windows",
            )
        for index, (left, right) in enumerate(zip(pivot, other)):
            if not rows_equivalent(left, right, config.float_tol):
                return Divergence(
                    "rows",
                    PIVOT,
                    label,
                    index,
                    f"{_preview(left)} vs {_preview(right)}",
                )
    if reference.order_keys:
        for label in (
            PIVOT,
            "reeval",
            "systemx",
            "incremental-dup",
            "incremental-partitioned",
            "incremental-crash",
        ):
            for index, rows in enumerate(windows.get(label, ())):
                if not check_sorted(rows, reference.order_keys, config.float_tol):
                    return Divergence(
                        "order",
                        label,
                        "order-by",
                        index,
                        f"rows not sorted: {_preview(rows)}",
                    )
    return None


def _preview(rows: list[tuple], limit: int = 6) -> str:
    text = repr(rows[:limit])
    if len(rows) > limit:
        text = text[:-1] + f", ... {len(rows)} rows]"
    return text
