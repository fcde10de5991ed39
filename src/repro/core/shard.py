"""Shard workers: per-partition engine processes and their control channel.

Each partition of a ``PARTITION BY`` stream is owned by one worker
process running a private, ordinary :class:`DataCellEngine`
(observability off).  The coordinating engine talks to workers over a
``multiprocessing.Pipe`` control channel; bulk column data travels
through named ``multiprocessing.shared_memory`` segments
(:func:`repro.kernel.storage.write_segment`), with object-dtype (str)
columns pickled alongside.

Protocol (all messages are tuples, strictly FIFO per worker):

* fire-and-forget: ``create_stream``, ``anchor``, ``feed``, ``advance``,
  ``remove`` — errors are queued worker-side and surfaced at the next
  sync point;
* request/reply: ``submit`` → output schema, ``run`` → firings + the
  consumed segment names (the creator-unlinks handshake) + queued
  errors, ``collect`` → new result batches, ``stats`` → profiler
  counters, ``close`` → goodbye.

Workers parse and plan SQL locally — no plan objects ever cross the
process boundary, so the control channel stays tiny and
version-agnostic.  Lifetime rules are in DESIGN.md §14.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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
from repro.errors import ReproError
from repro.kernel.atoms import Atom, numpy_dtype
from repro.kernel.storage import SegmentMeta, read_segment, write_segment

#: Batches with at least this many rows ship fixed-width columns through
#: shared memory; smaller ones just ride the pipe (pickling a tiny array
#: is cheaper than a segment create/attach round trip).
SHM_MIN_ROWS = int(os.environ.get("REPRO_SHM_MIN_ROWS", "256"))


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(conn, init: dict) -> None:
    """Entry point of one shard worker process."""
    from repro.core.engine import DataCellEngine

    engine = DataCellEngine(
        verify_plans=init["verify_plans"],
        fragment_sharing=init["fragment_sharing"],
        observability=False,
    )
    streams: dict[str, dict] = {}  # stream -> decl
    queries: dict[str, dict] = {}  # qname -> state
    by_stream: dict[str, list[str]] = {}
    consumed_segments: list[str] = []
    errors: list[str] = []

    def _feed(stream: str, payload: dict) -> None:
        columns: dict[str, np.ndarray] = {}
        if payload["segment"] is not None:
            columns.update(read_segment(payload["segment"]))
            consumed_segments.append(payload["segment"].name)
        columns.update(payload["columns"])
        ts = columns.pop(TS_COLUMN, None)
        seq = np.asarray(columns[SEQ_COLUMN])
        watermark = payload["watermark"]
        ts_watermark = payload.get("ts_watermark")
        for qname in by_stream.get(stream, []):
            state = queries[qname]
            if state["flavor"] == "virtual":
                stamps = seq * VIRTUAL_TICK_US
            else:
                stamps = ts
            engine.feed(state["qstream"], columns=columns, timestamps=stamps)
            if state["flavor"] == "virtual" and watermark is not None:
                engine.advance_time(state["qstream"], watermark)
            elif state["flavor"] == "time" and ts_watermark is not None:
                # The batch's global newest timestamp: this partition may
                # not have routed the row that crossed a window boundary,
                # so time progress is punctuated explicitly.
                engine.advance_time(state["qstream"], ts_watermark)

    def _submit(msg) -> tuple:
        __, qname, stream, sql, mode, flavor, anchor = msg
        decl = streams[stream]
        qstream = f"__shard_{qname}"
        engine.create_stream(
            qstream,
            [(c, Atom(a)) for c, a in decl["columns"]],
            capacity=decl["capacity"],
            overflow=decl["overflow"],
        )
        handle = engine.submit(sql, mode=mode, name=qname)
        if anchor is not None:
            handle.factory.anchor_time(anchor)
        queries[qname] = {
            "handle": handle,
            "qstream": qstream,
            "flavor": flavor,
        }
        by_stream.setdefault(stream, []).append(qname)
        return ("ok", _output_schema(handle))

    def _output_schema(handle) -> tuple[list[str], list[str]]:
        plan = handle.factory.plan
        return list(plan.output_names), [a.value for a in plan.output_atoms]

    def _snapshot_state() -> dict:
        """This worker's contribution to a coordinator checkpoint.

        The engine image rides the same snapshot/restore protocol the
        coordinator uses; the worker-local routing tables serialize with
        durable policy specs (the decl's policy object is a live
        template, not a checkpointable value).
        """
        return {
            "engine": engine._gather_state(),
            "streams": [
                [
                    stream,
                    {
                        "columns": [list(c) for c in decl["columns"]],
                        "capacity": decl["capacity"],
                        "overflow": policy_spec(decl["overflow"]),
                    },
                ]
                for stream, decl in streams.items()
            ],
            "queries": [
                [
                    qname,
                    {
                        "qstream": state["qstream"],
                        "flavor": state["flavor"],
                    },
                ]
                for qname, state in queries.items()
            ],
            "by_stream": {k: list(v) for k, v in by_stream.items()},
        }

    def _restore_state(snapshot: dict) -> None:
        engine._apply_state(snapshot["engine"])
        streams.clear()
        queries.clear()
        by_stream.clear()
        for stream, decl in snapshot["streams"]:
            streams[stream] = {
                "columns": [tuple(c) for c in decl["columns"]],
                "capacity": decl["capacity"],
                "overflow": (
                    parse_overflow_spec(decl["overflow"])
                    if decl["overflow"]
                    else None
                ),
            }
        for qname, state in snapshot["queries"]:
            queries[qname] = {
                "handle": engine.query(qname),
                "qstream": state["qstream"],
                "flavor": state["flavor"],
            }
        for stream, names in snapshot["by_stream"].items():
            by_stream[stream] = list(names)

    def _collect() -> list[tuple]:
        """Ship every batch emitted since the last collect, then forget it.

        The coordinator owns the results from here on; a worker that kept
        them would carry the whole emission history into every snapshot.
        """
        out = []
        for qname, state in queries.items():
            for batch in state["handle"].emitter.drain():
                out.append(
                    (
                        qname,
                        batch.window_index,
                        batch.response_seconds,
                        {
                            name: np.asarray(batch.columns[name].tail)
                            for name in batch.names
                        },
                    )
                )
        return out

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        try:
            if kind == "create_stream":
                __, stream, columns, capacity, overflow = msg
                streams[stream] = {
                    "columns": columns,
                    "capacity": capacity,
                    "overflow": overflow,
                }
            elif kind == "submit":
                conn.send(_submit(msg))
            elif kind == "anchor":
                __, qname, origin = msg
                queries[qname]["handle"].factory.anchor_time(origin)
            elif kind == "feed":
                _feed(msg[1], msg[2])
            elif kind == "advance":
                __, stream, ts = msg
                for qname in by_stream.get(stream, []):
                    state = queries[qname]
                    if state["flavor"] == "time":
                        engine.advance_time(state["qstream"], ts)
            elif kind == "run":
                fired = engine.run_until_idle()
                conn.send(("ran", fired, consumed_segments, errors))
                consumed_segments, errors = [], []
            elif kind == "collect":
                conn.send(("batches", _collect()))
            elif kind == "stats":
                snapshot = engine.profiler.snapshot()
                parked = sum(
                    s["parked"] for s in engine.overload_stats().values()
                )
                conn.send(("stats", snapshot["counters"], parked))
            elif kind == "snapshot":
                conn.send(("state", _snapshot_state()))
            elif kind == "restore":
                _restore_state(msg[1])
                conn.send(("ok",))
            elif kind == "schema":
                conn.send(("ok", _output_schema(queries[msg[1]]["handle"])))
            elif kind == "remove":
                engine.remove(msg[1])
                queries.pop(msg[1], None)
                for names in by_stream.values():
                    if msg[1] in names:
                        names.remove(msg[1])
            elif kind == "close":
                conn.send(("bye", consumed_segments))
                break
            else:  # pragma: no cover - protocol defect
                raise ReproError(f"unknown shard message {kind!r}")
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            detail = f"{type(exc).__name__}: {exc}"
            if kind in (
                "submit",
                "run",
                "collect",
                "stats",
                "snapshot",
                "restore",
                "schema",
                "close",
            ):
                conn.send(("error", detail, traceback.format_exc()))
                if kind == "close":
                    break
            else:
                errors.append(f"{kind}: {detail}")
    try:
        engine.close()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# parent-side proxies
# ----------------------------------------------------------------------
class ShardWorkerProxy:
    """Parent handle to one shard worker process."""

    def __init__(self, ctx, partition: int, init: dict) -> None:
        self.partition = partition
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, init),
            name=f"repro-shard-{partition}",
            daemon=True,
        )
        self.process.start()
        child.close()
        #: Segments created for this worker and not yet acknowledged:
        #: name -> still-open SharedMemory (creator unlinks on ack).
        self.outstanding: dict[str, object] = {}

    def send(self, msg: tuple) -> None:
        self.conn.send(msg)

    def request(self, msg: tuple):
        self.conn.send(msg)
        reply = self.conn.recv()
        if reply[0] == "error":
            raise ReproError(
                f"shard worker {self.partition}: {reply[1]}\n{reply[2]}"
            )
        return reply

    def ack_segments(self, names: list[str]) -> None:
        """Creator-unlinks: release segments the worker finished copying."""
        for name in names:
            shm = self.outstanding.pop(name, None)
            if shm is not None:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def shutdown(self, timeout: float = 5.0) -> None:
        try:
            if self.process.is_alive():
                reply = self.request(("close",))
                if reply[0] == "bye":
                    self.ack_segments(reply[1])
        except (ReproError, BrokenPipeError, EOFError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join(timeout=timeout)
        # Crash path: unlink whatever the worker never acknowledged.
        for name in list(self.outstanding):
            self.ack_segments([name])
        self.conn.close()


class ShardSet:
    """All P shard workers of one engine, plus segment bookkeeping."""

    def __init__(
        self,
        partitions: int,
        verify_plans: bool,
        fragment_sharing: bool,
    ) -> None:
        import multiprocessing as mp

        method = os.environ.get("REPRO_MP_START") or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        ctx = mp.get_context(method)
        self.partitions = partitions
        init = {
            "verify_plans": verify_plans,
            "fragment_sharing": fragment_sharing,
        }
        self.workers = [
            ShardWorkerProxy(ctx, p, init) for p in range(partitions)
        ]
        self._segment_counter = 0
        self._closed = False

    def broadcast(self, msg: tuple) -> None:
        for worker in self.workers:
            worker.send(msg)

    def request_all(self, msg: tuple) -> list:
        # Send first, then gather: workers process concurrently.
        for worker in self.workers:
            worker.send(msg)
        replies = []
        for worker in self.workers:
            reply = worker.conn.recv()
            if reply[0] == "error":
                raise ReproError(
                    f"shard worker {worker.partition}: {reply[1]}\n{reply[2]}"
                )
            replies.append(reply)
        return replies

    def feed_partition(
        self,
        partition: int,
        stream: str,
        fixed: dict[str, np.ndarray],
        pickled: dict[str, np.ndarray],
        watermark: Optional[int],
        ts_watermark: Optional[int] = None,
    ) -> None:
        """Ship one routed batch; fixed-width columns via shared memory."""
        worker = self.workers[partition]
        rows = len(next(iter(fixed.values()), next(iter(pickled.values()), ())))
        segment: Optional[SegmentMeta] = None
        columns = dict(pickled)
        if fixed and rows >= SHM_MIN_ROWS:
            self._segment_counter += 1
            name = f"repro-{os.getpid()}-{partition}-{self._segment_counter}"
            segment, shm = write_segment(name, fixed)
            worker.outstanding[name] = shm
            shm.close()  # parent's mapping; the block itself lives on
        else:
            columns.update(fixed)
        worker.send(
            (
                "feed",
                stream,
                {
                    "segment": segment,
                    "columns": columns,
                    "watermark": watermark,
                    "ts_watermark": ts_watermark,
                },
            )
        )

    def run(self) -> int:
        """Pump every worker until idle; returns total worker firings."""
        fired = 0
        for reply in self._run_replies():
            fired += reply[1]
        return fired

    def _run_replies(self) -> list:
        replies = self.request_all(("run",))
        errors: list[str] = []
        for worker, reply in zip(self.workers, replies):
            worker.ack_segments(reply[2])
            errors.extend(
                f"partition {worker.partition}: {e}" for e in reply[3]
            )
        if errors:
            raise ReproError(
                "shard worker errors:\n" + "\n".join(errors)
            )
        return replies

    def collect(self) -> list[list[tuple]]:
        """New result batches per partition, in partition order."""
        return [reply[1] for reply in self.request_all(("collect",))]

    def stats(self) -> list[dict]:
        out = []
        for reply in self.request_all(("stats",)):
            counters = dict(reply[1])
            counters["parked"] = reply[2]
            out.append(counters)
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            worker.shutdown()

    def abandon(self) -> None:
        """Hard-kill every worker (crash simulation; no goodbye handshake).

        Outstanding shared-memory segments are still unlinked — a crash
        test must not leak ``/dev/shm`` blocks into the next run.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=5)
            for name in list(worker.outstanding):
                worker.ack_segments([name])
            worker.conn.close()


# ----------------------------------------------------------------------
# the sharded query handle (coordinator side)
# ----------------------------------------------------------------------
@dataclass
class PartitionedQuery:
    """Handle to a continuous query replicated across shard workers.

    API-compatible with :class:`repro.core.engine.ContinuousQuery` for
    results access (``results``/``last``/``result_rows``/
    ``response_times``); there is no single ``factory`` — each partition
    runs its own, and the merge happens here as emissions arrive.
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
    batches: list[ResultBatch] = field(default_factory=list)
    #: Highest window_index received per partition (lag gauge source).
    progress: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.progress:
            self.progress = [0] * self.partitions

    # -- ContinuousQuery-compatible results API -------------------------
    def results(self) -> list[ResultBatch]:
        return list(self.batches)

    def last(self) -> Optional[ResultBatch]:
        return self.batches[-1] if self.batches else None

    def result_rows(self) -> list[list[tuple]]:
        return [batch.rows() for batch in self.batches]

    def response_times(self) -> list[float]:
        return [batch.response_seconds for batch in self.batches]

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
            self.batches.append(
                ResultBatch(
                    names=list(names),
                    columns=columns,
                    window_index=self.next_window,
                    response_seconds=worst + merge_seconds,
                    breakdown={
                        "partition_max": worst,
                        "shard_merge": merge_seconds,
                    },
                )
            )
            self.next_window += 1
            merged += 1
        return merged

    def lag(self) -> int:
        """Window-progress spread across partitions (0 = in lockstep)."""
        if not self.progress:
            return 0
        return max(self.progress) - min(self.progress)


def split_fixed_columns(
    columns: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """(fixed-width, object-dtype) column split for the shm/pickle paths."""
    fixed: dict[str, np.ndarray] = {}
    pickled: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        arr = np.asarray(values)
        (pickled if arr.dtype.hasobject else fixed)[name] = arr
    return fixed, pickled


def as_typed_columns(
    columns: dict[str, object], schema_atoms: dict[str, Atom]
) -> dict[str, np.ndarray]:
    """Coerce user feed columns to their schema dtypes (routing needs
    real arrays; object columns become object arrays)."""
    out: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        atom = schema_atoms[name]
        if atom == Atom.STR:
            arr = np.empty(len(values), dtype=object)  # type: ignore[arg-type]
            arr[:] = list(values)  # type: ignore[arg-type]
        else:
            arr = np.asarray(values, dtype=numpy_dtype(atom))
        out[name] = arr
    return out
