"""Partitions: the P private engines behind one partitioned engine.

Each partition of a ``PARTITION BY`` stream is owned by one
:class:`Partition` — an ordinary :class:`DataCellEngine` (observability
off) plus the tables that route a coordinator stream to the per-query
streams of that engine.  :class:`ShardSet` holds the P partitions of one
coordinating engine, which calls them directly, in its own process and on
its own thread: a routed batch is handed over as arrays, a pump runs each
partition's scheduler to quiescence in turn, and the windows each one
emitted are collected and merged by :class:`PartitionedQuery`.

Partitions parse and plan their per-partition SQL themselves; the
coordinator only renders it (:mod:`repro.core.partition`).  The
checkpoint image of a partition is its engine's own snapshot plus its
routing tables (:meth:`Partition.snapshot_state`).  DESIGN.md §14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.emitter import CollectingEmitter, EmittedResults
from repro.core.factory import ResultBatch
from repro.core.partition import (
    SEQ_COLUMN,
    ShardPlan,
    VIRTUAL_TICK_US,
    concat_columns,
    promote_empty_pn,
    run_merge,
    sort_concat_columns,
)
from repro.core.overflow import parse_overflow_spec, policy_spec
from repro.core.windows import TS_COLUMN
from repro.kernel.atoms import Atom


# ----------------------------------------------------------------------
# one partition
# ----------------------------------------------------------------------
class Partition:
    """One partition's engine and the routing tables in front of it.

    Every query over a partitioned stream reads its own private stream
    here (``__shard_<query>``): the count-window queries on the virtual
    time axis, the time-window ones on arrival timestamps.
    """

    def __init__(self, fragment_sharing: bool) -> None:
        from repro.core.engine import DataCellEngine

        # The coordinator verifies each plan once; partitions don't.
        self.engine = DataCellEngine(
            verify_plans=False,
            fragment_sharing=fragment_sharing,
            observability=False,
        )
        self.streams: dict[str, dict] = {}  # stream -> decl
        self.queries: dict[str, dict] = {}  # qname -> state
        self.by_stream: dict[str, list[str]] = {}

    def create_stream(
        self,
        stream: str,
        columns: list[tuple[str, Atom]],
        capacity: Optional[int],
        overflow,
    ) -> None:
        self.streams[stream] = {
            "columns": columns,
            "capacity": capacity,
            "overflow": overflow,
        }

    def submit(
        self,
        qname: str,
        stream: str,
        sql: str,
        mode: str,
        flavor: str,
        anchor: Optional[int],
    ) -> tuple[list[str], list[Atom]]:
        """Register one query's per-partition SQL; returns its output
        schema (the coordinator's merge input)."""
        decl = self.streams[stream]
        qstream = f"__shard_{qname}"
        self.engine.create_stream(
            qstream,
            decl["columns"],
            capacity=decl["capacity"],
            overflow=decl["overflow"],
        )
        try:
            handle = self.engine.submit(sql, mode=mode, name=qname)
        except BaseException:
            # Every partition rejects a query alike, the first one first:
            # none keeps a private stream for it.
            self.engine._drop_stream(qstream)
            raise
        if anchor is not None:
            handle.factory.anchor_time(anchor)
        self.queries[qname] = {
            "handle": handle,
            "qstream": qstream,
            "flavor": flavor,
        }
        self.by_stream.setdefault(stream, []).append(qname)
        return self.output_schema(qname)

    def output_schema(self, qname: str) -> tuple[list[str], list[Atom]]:
        plan = self.queries[qname]["handle"].factory.plan
        return list(plan.output_names), list(plan.output_atoms)

    def anchor(self, qname: str, origin: int) -> None:
        self.queries[qname]["handle"].factory.anchor_time(origin)

    def feed(
        self,
        stream: str,
        columns: dict[str, np.ndarray],
        watermark: Optional[int],
        ts_watermark: Optional[int],
    ) -> None:
        """Feed this partition's share of one routed batch to every query
        over ``stream``.  ``columns`` carries ``__seq`` and the arrival
        timestamps (``__ts__``); ``watermark`` is the virtual clock after
        the batch and ``ts_watermark`` the batch's newest timestamp."""
        columns = dict(columns)
        ts = columns.pop(TS_COLUMN)
        seq = columns[SEQ_COLUMN]
        for qname in self.by_stream.get(stream, []):
            state = self.queries[qname]
            virtual = state["flavor"] == "virtual"
            stamps = seq * VIRTUAL_TICK_US if virtual else ts
            self.engine.feed(state["qstream"], columns=columns, timestamps=stamps)
            if virtual and watermark is not None:
                self.engine.advance_time(state["qstream"], watermark)
            elif state["flavor"] == "time" and ts_watermark is not None:
                # The batch's global newest timestamp: this partition may
                # not have routed the row that crossed a window boundary,
                # so time progress is punctuated explicitly.
                self.engine.advance_time(state["qstream"], ts_watermark)

    def advance(self, stream: str, ts: int) -> None:
        """A user punctuation: real-time queries only (the virtual axis
        advances with the fed count)."""
        for qname in self.by_stream.get(stream, []):
            state = self.queries[qname]
            if state["flavor"] == "time":
                self.engine.advance_time(state["qstream"], ts)

    def remove(self, qname: str) -> None:
        """Drop the query and its private stream."""
        self.engine.remove(qname)
        state = self.queries.pop(qname, None)
        if state is not None:
            self.engine._drop_stream(state["qstream"])
        for names in self.by_stream.values():
            if qname in names:
                names.remove(qname)

    def collect(self) -> list[tuple]:
        """Every window emitted since the last collect, as ``(query,
        window index, response seconds, {column: array})``.

        The emitters are drained: the coordinator owns the windows from
        here on, and a partition that kept them would carry the whole
        emission history into every snapshot.
        """
        out = []
        for qname, state in self.queries.items():
            for batch in state["handle"].emitter.drain():
                out.append(
                    (
                        qname,
                        batch.window_index,
                        batch.response_seconds,
                        {name: batch.columns[name].tail for name in batch.names},
                    )
                )
        return out

    def stats(self) -> dict:
        """This partition engine's profiler counters plus ``parked``."""
        counters = dict(self.engine.profiler.snapshot()["counters"])
        counters["parked"] = sum(
            s["parked"] for s in self.engine.overload_stats().values()
        )
        return counters

    def snapshot_state(self) -> dict:
        """This partition's part of a coordinator checkpoint.

        The engine image is the engine's own snapshot; the routing tables
        serialize with durable policy specs (the decl's policy object is a
        live template, not a checkpointable value).
        """
        return {
            "engine": self.engine._gather_state(),
            "streams": [
                [
                    stream,
                    {
                        "columns": [[c, a.value] for c, a in decl["columns"]],
                        "capacity": decl["capacity"],
                        "overflow": policy_spec(decl["overflow"]),
                    },
                ]
                for stream, decl in self.streams.items()
            ],
            "queries": [
                [qname, {"qstream": state["qstream"], "flavor": state["flavor"]}]
                for qname, state in self.queries.items()
            ],
            "by_stream": {k: list(v) for k, v in self.by_stream.items()},
        }

    def restore_state(self, snapshot: dict) -> None:
        self.engine._apply_state(snapshot["engine"])
        self.streams = {
            stream: {
                "columns": [(c, Atom(a)) for c, a in decl["columns"]],
                "capacity": decl["capacity"],
                "overflow": (
                    parse_overflow_spec(decl["overflow"])
                    if decl["overflow"]
                    else None
                ),
            }
            for stream, decl in snapshot["streams"]
        }
        self.queries = {
            qname: {
                "handle": self.engine.query(qname),
                "qstream": state["qstream"],
                "flavor": state["flavor"],
            }
            for qname, state in snapshot["queries"]
        }
        self.by_stream = {
            stream: list(names) for stream, names in snapshot["by_stream"].items()
        }


class ShardSet:
    """The P partitions of one engine, in partition order."""

    def __init__(self, partitions: int, fragment_sharing: bool) -> None:
        self.parts = [Partition(fragment_sharing) for __ in range(partitions)]

    def feed_partition(
        self,
        partition: int,
        stream: str,
        columns: dict[str, np.ndarray],
        watermark: Optional[int],
        ts_watermark: Optional[int],
    ) -> None:
        """Hand one partition its share of a routed batch."""
        self.parts[partition].feed(stream, columns, watermark, ts_watermark)

    def run(self) -> int:
        """Pump every partition until idle; returns their total firings."""
        return sum(part.engine.run_until_idle() for part in self.parts)

    def collect(self) -> list[list[tuple]]:
        """New result batches per partition, in partition order."""
        return [part.collect() for part in self.parts]


# ----------------------------------------------------------------------
# the partitioned query handle (coordinator side)
# ----------------------------------------------------------------------
@dataclass
class PartitionedQuery(EmittedResults):
    """Handle to a continuous query replicated across the partitions.

    API-compatible with :class:`repro.core.engine.ContinuousQuery` for
    results access (:class:`~repro.core.emitter.EmittedResults`); there
    is no single ``factory`` — each partition runs its own, and the merge
    happens here as emissions arrive and emits into ``emitter``.
    """

    name: str
    sql: str
    mode: str
    plan: ShardPlan
    output_names: list[str]
    output_atoms: list[Atom]
    partitions: int
    resources: Optional[object] = None
    #: Concat route only: the full per-partition emission schema —
    #: ``output_names`` plus the plan's ``concat_hidden`` sort helpers,
    #: which are dropped after the coordinator's ordering pass.
    partial_names: list[str] = field(default_factory=list)
    partial_atoms: list[Atom] = field(default_factory=list)
    #: window_index -> partition -> (response_seconds, columns)
    pending: dict[int, dict[int, tuple[float, dict[str, np.ndarray]]]] = field(
        default_factory=dict
    )
    next_window: int = 1
    emitter: CollectingEmitter = field(default_factory=CollectingEmitter)
    #: Highest window_index received per partition (lag gauge source).
    progress: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.progress:
            self.progress = [0] * self.partitions

    # -- collection ------------------------------------------------------
    def offer(
        self,
        partition: int,
        window_index: int,
        response_seconds: float,
        columns: dict[str, np.ndarray],
    ) -> None:
        """Record one partition's emission for one global window.

        Partitions may complete windows in any order; emissions are keyed
        by window index and merged strictly in-order once every partition
        has reported (window alignment guarantees each partition emits
        every index exactly once).
        """
        self.pending.setdefault(window_index, {})[partition] = (
            response_seconds,
            columns,
        )
        if window_index > self.progress[partition]:
            self.progress[partition] = window_index

    def drain(self, interp, profiler=None) -> int:
        """Merge every fully-collected window, in window order."""
        import time as _time

        merged = 0
        while True:
            parts = self.pending.get(self.next_window)
            if parts is None or len(parts) < self.partitions:
                break
            del self.pending[self.next_window]
            ordered = [parts[p] for p in range(self.partitions)]
            part_columns = [columns for __, columns in ordered]
            worst = max(resp for resp, __ in ordered)
            start = _time.perf_counter()
            if self.plan.merge is None:
                columns = concat_columns(
                    self.partial_names or self.output_names,
                    self.partial_atoms or self.output_atoms,
                    part_columns,
                )
                if self.plan.concat_sort:
                    columns = sort_concat_columns(
                        columns, self.plan.concat_sort
                    )
                for hidden in self.plan.concat_hidden:
                    columns.pop(hidden, None)
                names = self.output_names
            else:
                promote_empty_pn(self.plan, part_columns)
                names, columns = run_merge(
                    self.plan, interp, part_columns, profiler
                )
            merge_seconds = _time.perf_counter() - start
            self.emitter(
                self.name,
                ResultBatch(
                    names=list(names),
                    columns=columns,
                    window_index=self.next_window,
                    response_seconds=worst + merge_seconds,
                    breakdown={
                        "partition_max": worst,
                        "shard_merge": merge_seconds,
                    },
                ),
            )
            self.next_window += 1
            merged += 1
        return merged

    def lag(self) -> int:
        """Window-progress spread across partitions (0 = in lockstep)."""
        if not self.progress:
            return 0
        return max(self.progress) - min(self.progress)

