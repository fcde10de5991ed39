"""Drives one engine through the benchmark's phases and measures it.

One process, one driver thread, public engine API only: every op is
``feed`` → ``run_until_idle`` → drain the handles, the one driving mode
that works for in-process, sharded and durable engines alike.

* ``saturate`` is a closed loop: the next op starts when the previous
  pump returns, and a window's response time runs from the start of the
  feed that carried its closing tuple to the return of that pump.
* ``paced`` is an open loop on a 5 ms tick schedule that never slows:
  every tick's tuples are stamped with the tick's *due* time, so a stall
  delays (and is charged to) every window behind it; how late the
  generator itself ran is reported as lag.

Which op closes which window is known before the phase starts, from the
window geometry alone (:meth:`Session._closing_ops`), so a window that
never shows up, shows up early, or shows up twice is a failed operation
rather than a shorter sample list.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from perf.workloads import TICK_SECONDS, Data, Workload

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Windows whose batch is kept for verification, besides the newest.
KEEP_EVERY = 250
#: p95 needs ten samples beyond it (choosing-metrics guide, section 1).
TAIL_SAMPLES = 10


def worker_pids() -> list[int]:
    """Shard worker processes of every live engine in this process."""
    return [child.pid for child in multiprocessing.active_children()]


def cpu_seconds() -> float:
    """User+system CPU of this process plus its shard workers."""
    total = time.process_time()
    for pid in worker_pids():
        try:
            with open(f"/proc/{pid}/stat") as stat:
                # comm may contain spaces; the fields after ')' are fixed.
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # the worker exited between listing and reading
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and its shard workers."""
    total_kb = 0
    for pid in [os.getpid()] + worker_pids():
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def supports(samples: int, q: float) -> bool:
    """Does a sample of this size carry percentile ``q`` — are at least
    ten samples expected beyond it?"""
    return samples * (1.0 - q / 100.0) >= TAIL_SAMPLES


def percentile_ms(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if len(samples) else float("nan")


@dataclass
class Phase:
    """What one phase measured."""

    name: str
    ops: int = 0
    tuples: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    #: Seconds per query-window: response time (saturate) or latency (paced).
    samples: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Paced only: seconds each tick started after it was due.
    lag: np.ndarray = field(default_factory=lambda: np.empty(0))
    expected_windows: int = 0
    failures: list[str] = field(default_factory=list)
    checkpoints: list[dict] = field(default_factory=list)
    #: Seconds of every op, from the start of its feed to its pump's return.
    op_seconds: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def tps(self) -> float:
        return self.tuples / self.wall if self.wall else 0.0


class Session:
    """One engine instance of a workload, from construction to close."""

    def __init__(
        self,
        workload: Workload,
        data: Data,
        out_dir: str,
        mode: str = "incremental",
        partitions: Optional[int] = None,
        durable: Optional[bool] = None,
        tracer=None,
    ) -> None:
        self.workload = workload
        self.data = data
        self.mode = mode
        self.partitions = workload.partitions if partitions is None else partitions
        self.durable = workload.durable if durable is None else durable
        self.out_dir = out_dir
        self.tracer = tracer
        self.engine = None
        self.data_dir: Optional[str] = None
        self.fed = {stream.name: 0 for stream in workload.streams}
        self._handles: list = []
        self._emitters: list = []
        self._seen: list[int] = []
        #: (query name, 1-based window index) -> batch, for verification.
        self.kept: dict = {}
        self._latest: dict = {}
        self._records: list[tuple[int, int, int]] = []  # (query, window, op) of this phase
        # Per op, over the whole session: pump-return time and the
        # creation stamp windows closing on this op are measured from.
        self._visible: list[float] = []
        self._stamp: list[float] = []
        self.parked_max = 0
        self.lag_max = 0
        self.ops = 0
        self.phases: list[Phase] = []

    # -- lifecycle -------------------------------------------------------
    def build(self) -> None:
        """Construct the engine (spawns shard workers when partitioned)."""
        from repro import DataCellEngine

        if self.durable:
            self.data_dir = tempfile.mkdtemp(prefix="data-", dir=self.out_dir)
        self.engine = DataCellEngine(
            workers=self.workload.workers,
            partitions=self.partitions,
            data_dir=self.data_dir,
        )

    def register(self) -> Phase:
        """DDL, every submit, then fill until every query emitted once."""
        for stream in self.workload.streams:
            self.engine.create_stream(
                stream.name,
                [(column, "int") for column, __ in stream.columns],
                partition_by=stream.partition_by,
            )
        for query in self.workload.queries:
            self.engine.submit(query.sql, mode=self.mode, name=query.name)
        self._bind_handles()
        return self.run_phase("fill", 1, self.workload.fill())

    def setup(self) -> Phase:
        self.build()
        return self.register()

    def _bind_handles(self) -> None:
        self._handles = [self.engine.query(q.name) for q in self.workload.queries]
        # PartitionedQuery has no emitter: merged windows pile up on it.
        self._emitters = [getattr(handle, "emitter", None) for handle in self._handles]
        self._seen = [e.total_batches if e is not None else 0 for e in self._emitters]
        if self.tracer is not None:
            for handle in self._handles:
                plan = getattr(getattr(handle, "factory", None), "plan", None)
                if plan is not None:
                    self.tracer.label_programs(plan)

    def crash_and_restore(self) -> float:
        """Checkpoint, die without cleanup, recover; returns restore seconds."""
        from repro import DataCellEngine

        self.engine.checkpoint()
        self.engine.abandon()
        start = perf_counter()
        self.engine = DataCellEngine.restore(self.data_dir)
        seconds = perf_counter() - start
        self._bind_handles()
        return seconds

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    # -- expectations ----------------------------------------------------
    def expected_total(self) -> dict[str, int]:
        return {q.name: q.fired(self.fed) for q in self.workload.queries}

    def _closing_ops(self, ticks: int, chunk: int) -> dict[tuple[int, int], int]:
        """``(query index, 1-based window) -> op`` that closes it.

        A tick feeds every stream once, in declaration order; op numbers
        continue the session-wide count.  A join window closes on the
        later of its two sides.
        """
        names = [stream.name for stream in self.workload.streams]
        after = {name: self.fed[name] + ticks * chunk for name in names}

        def op_reaching(name: str, needed: int) -> int:
            tick = -(-(needed - self.fed[name]) // chunk) - 1
            return self.ops + tick * len(names) + names.index(name)

        closing: dict[tuple[int, int], int] = {}
        for qi, query in enumerate(self.workload.queries):
            for k in range(query.fired(self.fed), query.fired(after)):
                needed = query.window.needed(k)
                # Not closed yet, so at least one side is still short.
                closing[(qi, k + 1)] = max(
                    op_reaching(name, needed)
                    for name in query.streams
                    if needed > self.fed[name]
                )
        return closing

    # -- the op loop -----------------------------------------------------
    def run_phase(
        self,
        name: str,
        ticks: int,
        chunk: int,
        paced: bool = False,
        checkpoint_every: int = 0,
        sample_gauges: bool = False,
    ) -> Phase:
        engine, data, fed = self.engine, self.data, self.fed
        names = [stream.name for stream in self.workload.streams]
        closing = self._closing_ops(ticks, chunk)
        phase = Phase(name, expected_windows=len(closing))
        self._records = []
        lag = np.zeros(ticks if paced else 0)
        visible, stamp = self._visible, self._stamp
        started: list[float] = []
        cpu_before = cpu_seconds()
        begin = perf_counter()
        for tick in range(ticks):
            if paced:
                due = begin + tick * TICK_SECONDS
                _wait_until(due)
                lag[tick] = perf_counter() - due
            for stream in names:
                columns, timestamps = data.take(stream, fed[stream], chunk)
                start = perf_counter()
                engine.feed(stream, columns=columns, timestamps=timestamps)
                engine.run_until_idle()
                visible.append(perf_counter())
                started.append(start)
                stamp.append(due if paced else start)
                fed[stream] += chunk
                self._drain()
                self.ops += 1
            if checkpoint_every and (tick + 1) % checkpoint_every == 0:
                phase.checkpoints.append(engine.checkpoint())
            if sample_gauges and tick % 64 == 0:
                self._sample_gauges()
        phase.wall = perf_counter() - begin
        phase.cpu = cpu_seconds() - cpu_before
        phase.ops = ticks * len(names)
        phase.tuples = phase.ops * chunk
        phase.lag = lag
        phase.op_seconds = np.asarray(visible[-phase.ops :]) - np.asarray(started)
        self._sample_gauges()
        self._settle(phase, closing)
        self.phases.append(phase)
        return phase

    def _drain(self) -> None:
        """Take what each handle emitted, as a polling subscriber would."""
        op = self.ops
        for qi, (handle, emitter) in enumerate(zip(self._handles, self._emitters)):
            if emitter is not None:
                if emitter.total_batches == self._seen[qi]:
                    continue
                batches = emitter.batches()
                emitter.clear()
                self._seen[qi] += len(batches)
            else:
                if not handle.batches:
                    continue
                batches = list(handle.batches)
                handle.batches.clear()
            name = handle.name
            for batch in batches:
                index = batch.window_index
                self._records.append((qi, index, op))
                if index <= 2 or index % KEEP_EVERY == 0:
                    self.kept[(name, index)] = batch
            self._latest[name] = batch

    def _sample_gauges(self) -> None:
        stats = self.engine.overload_stats()
        parked = max((s["max_parked"] for s in stats.values()), default=0)
        self.parked_max = max(self.parked_max, parked)
        for handle in self._handles:
            if hasattr(handle, "lag"):
                self.lag_max = max(self.lag_max, handle.lag())

    def _settle(self, phase: Phase, closing: dict) -> None:
        """Turn this phase's drained windows into samples and failures."""
        samples = []
        names = [q.name for q in self.workload.queries]
        for qi, index, op in self._records:
            due_op = closing.pop((qi, index), None)
            if due_op is None:
                phase.failures.append(f"{names[qi]} window {index}: unexpected")
            elif due_op > op:
                phase.failures.append(f"{names[qi]} window {index}: early")
            else:
                samples.append(self._visible[op] - self._stamp[due_op])
        for qi, index in closing:
            phase.failures.append(f"{names[qi]} window {index}: missing")
        phase.samples = np.asarray(samples)

    def batches_for_verification(self) -> dict:
        kept = dict(self.kept)
        for name, batch in self._latest.items():
            kept[(name, batch.window_index)] = batch
        return kept


def _wait_until(due: float) -> None:
    """Sleep to just before ``due``, then spin: sleep alone overshoots by
    more than the latencies being measured."""
    while True:
        remaining = due - perf_counter()
        if remaining <= 0:
            return
        if remaining > 0.0004:
            time.sleep(remaining - 0.0003)


def leaked_segments() -> list[str]:
    """Shared-memory segments this process's engines left in /dev/shm."""
    prefix = f"repro-{os.getpid()}-"
    try:
        return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]
    except OSError:
        return []
