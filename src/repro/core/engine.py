"""The DataCell engine facade — the library's main public entry point.

Wires together the whole stack: catalog, baskets, receptors, the SQL
front-end, the incremental rewriter, factories, the scheduler, and
emitters::

    from repro import DataCellEngine

    engine = DataCellEngine()
    engine.create_stream("s", [("x1", "int"), ("x2", "int")])
    query = engine.submit(
        "SELECT x1, sum(x2) FROM s [RANGE 1000 SLIDE 100] "
        "WHERE x1 > 10 GROUP BY x1"
    )
    engine.feed("s", columns={"x1": xs, "x2": ys})
    engine.run_until_idle()
    for batch in query.results():
        print(batch.rows())

Baskets: each stream has exactly one basket (paper Figure 1) and every
continuous query reads it through its own cursor, started at the tail when
the query is submitted.  :meth:`feed` appends a batch once; the basket
drops a tuple when the slowest cursor has passed it (DESIGN.md §6).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.basket import Basket, Cursor
from repro.core.durability import (
    DurabilityError,
    DurabilityManager,
    has_data,
    typed_values,
)
from repro.core.emitter import CollectingEmitter
from repro.core.factory import FactoryBase, IncrementalFactory, ResultBatch
from repro.core.overflow import OverflowPolicy, parse_overflow_spec, policy_spec
from repro.core.partials import FragmentCache
from repro.core.partition import (
    SEQ_COLUMN,
    PartitionSpec,
    VIRTUAL_TICK_US,
    finish_merge,
    plan_partition_query,
    route_columns,
    scratch_catalog,
    validate_partition_key,
    worker_schema,
)
from repro.core.windows import TS_COLUMN
from repro.core.receptor import Receptor
from repro.core.reevaluate import ReevalFactory
from repro.core.rewriter import rewrite
from repro.core.rewriter.canonical import fragment_fingerprint
from repro.core.scheduler import Scheduler
from repro.errors import (
    BasketOverflowError,
    CatalogError,
    ReproError,
    UnsupportedQueryError,
)
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.execution.backends import BACKENDS
from repro.kernel.execution.interpreter import Interpreter
from repro.kernel.execution.profiler import (
    COUNTER_RECOVERY_SUPPRESSED,
    COUNTER_REPLAYED_RECORDS,
)
from repro.kernel.storage import Catalog, Schema, Table
from repro.obs import Observability, collect_metrics, render_json, render_prometheus
from repro.sql.logical import find_scans, pretty_plan
from repro.sql.optimizer import optimize
from repro.sql.physical import compile_full, scan_slot
from repro.sql.planner import plan_query

_ATOM_NAMES = {
    "int": Atom.INT,
    "bigint": Atom.INT,
    "float": Atom.FLT,
    "flt": Atom.FLT,
    "double": Atom.FLT,
    "str": Atom.STR,
    "string": Atom.STR,
    "varchar": Atom.STR,
    "bool": Atom.BIT,
    "bit": Atom.BIT,
    "timestamp": Atom.TIMESTAMP,
    "oid": Atom.OID,
}


def _as_atom(atom) -> Atom:
    if isinstance(atom, Atom):
        return atom
    try:
        return _ATOM_NAMES[str(atom).lower()]
    except KeyError:
        raise CatalogError(f"unknown column type {atom!r}") from None


def _as_schema(columns: Sequence[tuple[str, object]]) -> Schema:
    return Schema(tuple((name, _as_atom(atom)) for name, atom in columns))


def _pack_batches(batches: Sequence[ResultBatch]) -> list[dict]:
    """Serializable image of emitted result batches (checkpointing)."""
    return [
        {
            "names": list(batch.names),
            "columns": dict(batch.columns),
            "window_index": batch.window_index,
            "response_seconds": batch.response_seconds,
            "breakdown": dict(batch.breakdown),
        }
        for batch in batches
    ]


def _unpack_batches(entries: Sequence[dict]) -> list[ResultBatch]:
    return [
        ResultBatch(
            names=list(entry["names"]),
            columns=entry["columns"],
            window_index=entry["window_index"],
            response_seconds=entry["response_seconds"],
            breakdown=entry["breakdown"],
        )
        for entry in entries
    ]


@dataclass
class _PartitionedStream:
    """Coordinator-side state of one ``PARTITION BY`` stream."""

    spec: PartitionSpec
    key_atom: Atom
    #: Tuples routed to each partition so far (skew gauge source).
    routed: list[int]
    #: Query names waiting for a real-time window anchor (the first
    #: arrival timestamp fed after their submit).
    pending_anchor: set = field(default_factory=set)


@dataclass
class ContinuousQuery:
    """Handle to a registered continuous query."""

    name: str
    sql: str
    mode: str  # "incremental" | "reeval"
    factory: FactoryBase
    emitter: CollectingEmitter
    #: alias -> this query's cursor on the stream's basket
    baskets: dict[str, Cursor] = field(default_factory=dict)
    #: Static worst-case state bounds (incremental mode only): a
    #: :class:`repro.analysis.resources.ResourceReport` computed at
    #: submit time, or None for reeval queries.
    resources: Optional[object] = None

    def results(self) -> list[ResultBatch]:
        """All result batches produced so far."""
        return self.emitter.batches()

    def last(self) -> Optional[ResultBatch]:
        return self.emitter.last()

    def result_rows(self) -> list[list[tuple]]:
        """Convenience: per-window result rows."""
        return [batch.rows() for batch in self.results()]

    def response_times(self) -> list[float]:
        """Per-window response times in seconds."""
        return [batch.response_seconds for batch in self.results()]


class _StreamFeed:
    """:meth:`DataCellEngine.feed` for one stream in a basket's append
    shape — the target :meth:`DataCellEngine.receptor` gives a receptor."""

    def __init__(self, engine: "DataCellEngine", stream: str) -> None:
        self.engine = engine
        self.name = stream

    def append_rows(self, rows, timestamps=None) -> int:
        return self.engine.feed(self.name, rows=rows, timestamps=timestamps)

    def append_columns(self, columns, timestamps=None) -> int:
        return self.engine.feed(self.name, columns=columns, timestamps=timestamps)


class DataCellEngine:
    """A complete DataCell instance (Figure 1 of the paper).

    ``verify_plans=True`` statically verifies every rewritten plan at
    registration time (:func:`repro.analysis.check_plan`) — a debug mode
    that catches rewriter regressions before a factory ever fires.  The
    default follows the ``REPRO_VERIFY_PLANS`` environment variable
    (``1``/``true``/``yes``/``on`` enables it).

    Factories fire one at a time on whichever thread pumps the scheduler
    (DESIGN.md §6); ``workers`` is accepted only as ``1``, for callers
    written against the removed thread-pool mode.  ``fragment_sharing``
    (default on) lets queries whose per-basic-window fragments are
    equivalent share one
    computation per basic window through an engine-wide
    :class:`FragmentCache`; it never changes results, only work.

    ``backend`` picks how factories execute their programs:
    ``"interpreted"`` (op-at-a-time, the default) or ``"compiled"``
    (each verified program specialized once into a fused callable, with
    automatic per-program interpreter fallback — DESIGN.md §13).  The
    choice never affects results, and ``backend="compiled"`` implies the
    static plan verifier runs on every submitted incremental plan.

    Overload control is configured per stream: ``create_stream(...,
    capacity=, overflow=)`` bounds that stream's basket and picks the
    policy applied when producers outrun factories (see
    :mod:`repro.core.overflow` and docs/OPERATIONS.md).  Shed/blocked
    counts surface through :attr:`profiler` and :meth:`overload_stats`.
    """

    def __init__(
        self,
        verify_plans: Optional[bool] = None,
        workers: int = 1,
        fragment_sharing: bool = True,
        observability: bool = True,
        backend: str = "interpreted",
        partitions: int = 1,
        data_dir: Optional[str] = None,
        landmark_spill_mb: Optional[float] = None,
    ) -> None:
        if workers != 1:
            raise ReproError(
                f"workers={workers!r}: the thread-pool scheduler mode was "
                "removed (one firing thread per process); the only accepted "
                "value is 1 — scale out with partitions= instead"
            )
        if partitions < 1:
            raise ReproError("partitions must be >= 1")
        if landmark_spill_mb is not None and landmark_spill_mb <= 0:
            raise ReproError("landmark_spill_mb must be > 0")
        #: Bounded-memory landmark state (DESIGN.md §16): when set, every
        #: single-stream landmark query keeps a hot in-memory suffix of
        #: partials within this byte budget and spills folded cold history
        #: to CRC-framed run files, paged back only for re-aggregation.
        self.landmark_spill_mb = landmark_spill_mb
        # Lazily-created tempdir root for ephemeral (no data_dir) engines'
        # spill runs; durable engines spill under <data_dir>/spill/.
        self._spill_root: Optional[str] = None
        # Fault-injection hook forwarded to spilling stores (and the
        # durability manager) — see install_fault_hook.
        self._fault_hook = None
        if verify_plans is None:
            flag = os.environ.get("REPRO_VERIFY_PLANS", "")
            verify_plans = flag.strip().lower() in ("1", "true", "yes", "on")
        self.verify_plans = verify_plans
        if backend not in BACKENDS:
            raise ReproError(
                f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
            )
        #: Program-execution backend every factory of this engine uses:
        #: ``"interpreted"`` (default) or ``"compiled"`` (fused callables,
        #: see DESIGN.md §13).  Results are identical either way.
        self.backend = backend
        self.fragment_sharing = fragment_sharing
        #: Tracing sinks (firing spans, latency histograms, per-opcode
        #: durations); ``observability=False`` drops them entirely — the
        #: hot paths then pay a single ``is None`` test (DESIGN.md §11).
        self.obs: Optional[Observability] = Observability() if observability else None
        self.catalog = Catalog()
        self.scheduler = Scheduler(obs=self.obs)
        self.fragment_cache = FragmentCache()
        self._queries: dict[str, ContinuousQuery] = {}
        # stream -> its one basket; queries read it through cursors.
        self._logs: dict[str, Basket] = {}
        #: Tuples offered per stream (partitioned streams: their arrival
        #: offset; otherwise the basket tail, unless a policy shed).
        self._stream_fed: dict[str, int] = {}
        # stream -> (capacity, overflow policy as declared).
        self._stream_limits: dict[
            str, tuple[Optional[int], Optional[OverflowPolicy]]
        ] = {}
        self._query_counter = 0
        self._interp = Interpreter()
        #: Sharded execution (DESIGN.md §14): ``partitions > 1`` spawns
        #: one worker process per partition *eagerly* (before any scheduler
        #: threads exist, so fork stays safe) and enables ``PARTITION BY``
        #: streams.  With ``partitions=1`` such streams degrade to the
        #: ordinary in-process path — same results, no worker processes.
        self.partitions = partitions
        self._shards = None
        self._partitioned: dict[str, _PartitionedStream] = {}
        self._pqueries: dict[str, "PartitionedQuery"] = {}
        #: Query names in submission order (both kinds) — the resubmission
        #: order a snapshot restore follows.
        self._submit_order: list[str] = []
        # Serializes the shard pump (run_until_idle's worker section)
        # against checkpoint's worker-snapshot request: both talk on the
        # same pipes, and interleaved request/reply pairs would cross.
        self._shard_pump_lock = threading.Lock()
        if partitions > 1:
            from repro.core.shard import ShardSet

            self._shards = ShardSet(
                partitions,
                backend=backend,
                verify_plans=False,  # the coordinator verifies once
                fragment_sharing=fragment_sharing,
                landmark_spill_mb=landmark_spill_mb,
            )
        #: Durability (DESIGN.md §15): a data_dir arms the write-ahead
        #: journal; every state-changing call below appends a record
        #: before returning.  ``DataCellEngine.restore(data_dir)``
        #: recovers; a dir that already holds data must go through it.
        self._dur: Optional[DurabilityManager] = None
        if data_dir is not None:
            if has_data(data_dir):
                raise DurabilityError(
                    f"data dir {data_dir!r} already holds a journal or "
                    "snapshot; recover it with DataCellEngine.restore()"
                )
            self._dur = DurabilityManager(data_dir, profiler=self.profiler)
            # The journal's first record carries the engine shape, so a
            # never-checkpointed dir can still be restored from seq 0.
            self._dur.journal("meta", self._meta())

    @property
    def profiler(self):
        """The engine-wide profiler (timings + overload counters).

        Basket shed/blocked counts, receptor retries/drops, and factory
        firings all land here; ``engine.profiler.counter("overflow_shed")``
        is the number the acceptance tests and docs/OPERATIONS.md quote.
        """
        return self.scheduler.profiler

    def _meta(self) -> dict:
        """The constructor shape a restore must reproduce."""
        return {
            "backend": self.backend,
            "partitions": self.partitions,
            "fragment_sharing": self.fragment_sharing,
            "observability": self.obs is not None,
            "verify_plans": self.verify_plans,
            "landmark_spill_mb": self.landmark_spill_mb,
        }

    def _dur_guard(self):
        """The journal lock when durability is armed (the engine's
        outermost lock, DESIGN.md §15) — a no-op context otherwise."""
        return self._dur.lock if self._dur is not None else nullcontext()

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def create_stream(
        self,
        name: str,
        columns: Sequence[tuple[str, object]],
        capacity: Optional[int] = None,
        overflow: Optional[OverflowPolicy] = None,
        partition_by: Optional[str] = None,
    ) -> None:
        """Declare a stream with ``[(column, type), ...]``.

        ``partition_by`` names a key column: arriving tuples are
        hash-routed into ``engine.partitions`` disjoint sub-streams and
        every query over the stream runs replicated across the shard
        worker processes (DESIGN.md §14).  With ``partitions=1`` the
        declaration is accepted but execution stays in-process — the
        fallback is exact, results never differ.  Float keys are
        rejected (no deterministic hash); ``capacity``/``overflow`` are
        applied per partition, so a bounded partitioned stream parks at
        most ``capacity × partitions × queries`` tuples and shedding
        policies act on each partition's arrival order independently.

        ``capacity`` bounds the stream's basket: at most ``capacity``
        tuples are parked however many queries read the stream (the
        basket holds what the slowest query has not read yet).
        ``overflow`` is the policy applied when an append does not fit
        (default :class:`~repro.core.overflow.Fail`), decided once per
        batch for every query; the instance passed here is a *template*,
        cloned once for the stream (DESIGN.md §7).
        """
        with self._dur_guard():
            schema = self._create_stream_impl(
                name, columns, capacity, overflow, partition_by, broadcast=True
            )
            if self._dur is not None:
                self._dur.journal(
                    "create_stream",
                    {
                        "name": name,
                        "columns": [[c, a.value] for c, a in schema.columns],
                        "capacity": capacity,
                        "overflow": policy_spec(overflow),
                        "partition_by": partition_by,
                    },
                )

    def _create_stream_impl(
        self,
        name: str,
        columns: Sequence[tuple[str, object]],
        capacity: Optional[int],
        overflow: Optional[OverflowPolicy],
        partition_by: Optional[str],
        broadcast: bool,
    ) -> Schema:
        """Shared by :meth:`create_stream` and the snapshot-restore path
        (which skips the worker broadcast — workers restore themselves)."""
        if overflow is not None and capacity is None:
            raise ReproError("an overflow policy needs a capacity")
        schema = _as_schema(columns)
        if partition_by is not None:
            key_atom = validate_partition_key(schema, partition_by, name)
        log = Basket(
            name,
            schema,
            capacity=capacity,
            overflow=overflow.clone() if overflow is not None else None,
        )
        self.catalog.create_stream(name, schema)
        log.attach_profiler(self.scheduler.profiler)
        if self.obs is not None:
            log.enable_arrival_tracking()
        self._logs[name] = log
        self._stream_fed[name] = 0
        self._stream_limits[name] = (capacity, overflow)
        if partition_by is not None and self._shards is not None:
            spec = PartitionSpec(name, partition_by, self.partitions)
            self._partitioned[name] = _PartitionedStream(
                spec, key_atom, routed=[0] * self.partitions
            )
            if broadcast:
                self._shards.broadcast(
                    (
                        "create_stream",
                        name,
                        [(c, a.value) for c, a in worker_schema(schema)],
                        capacity,
                        overflow,
                    )
                )
        return schema

    def create_table(self, name: str, columns: Sequence[tuple[str, object]]) -> Table:
        """Create a persistent base table."""
        with self._dur_guard():
            schema = _as_schema(columns)
            table = self.catalog.create_table(name, schema)
            if self._dur is not None:
                self._dur.journal(
                    "create_table",
                    {
                        "name": name,
                        "columns": [[c, a.value] for c, a in schema.columns],
                    },
                )
            return table

    def insert(self, table: str, rows: Iterable[Sequence]) -> int:
        """Append rows to a base table."""
        with self._dur_guard():
            rows = list(rows)
            count = self.catalog.table(table).append_rows(rows)
            if self._dur is not None:
                schema = self.catalog.table(table).schema
                self._dur.journal(
                    "insert",
                    {
                        "table": table,
                        "columns": {
                            name: typed_values(
                                [row[i] for row in rows], atom
                            )
                            for i, (name, atom) in enumerate(schema.columns)
                        },
                    },
                )
            return count

    # ------------------------------------------------------------------
    # continuous queries
    # ------------------------------------------------------------------
    def submit(
        self,
        sql: str,
        mode: str = "incremental",
        name: Optional[str] = None,
    ) -> ContinuousQuery:
        """Register a continuous query; returns its handle.

        ``mode`` selects the execution strategy: ``"incremental"`` (the
        paper's DataCell) or ``"reeval"`` (the DataCellR baseline).
        """
        with self._dur_guard():
            handle = self._submit_impl(sql, mode, name)
            if self._dur is not None:
                self._dur.journal(
                    "submit", {"sql": sql, "mode": mode, "name": handle.name}
                )
            return handle

    def _submit_impl(self, sql: str, mode: str, name: Optional[str]):
        if mode not in ("incremental", "reeval"):
            raise ReproError(f"unknown mode {mode!r}")
        self._query_counter += 1
        query_name = name or f"q{self._query_counter}"
        if self._shards is not None and self._partitioned:
            from repro.sql.parser import parse

            try:
                scanned = [t.name for t in parse(sql).tables]
            except ReproError:
                scanned = []  # let the ordinary path raise the parse error
            if any(t in self._partitioned for t in scanned):
                return self._submit_partitioned(sql, mode, query_name)
        planned = optimize(plan_query(sql, self.catalog))

        streams: dict[str, str] = {}  # alias -> relation
        tables: dict[str, Table] = {}
        for scan in find_scans(planned.plan):
            if not scan.is_stream:
                tables[scan.alias] = self.catalog.table(scan.relation)
            elif scan.relation in streams.values():
                raise UnsupportedQueryError(
                    "self-joins on a single stream are not supported"
                )
            else:
                streams[scan.alias] = scan.relation
        # The query reads each stream through a cursor started at the
        # basket's tail; a failed registration closes them again so they
        # never pin a basket's head.
        baskets = {
            alias: self._logs[relation].cursor()
            for alias, relation in streams.items()
        }
        try:
            factory: FactoryBase
            resources = None
            if mode == "incremental":
                plan = rewrite(planned)
                # Static resource bounds (repro.analysis.resources): always
                # computed — it is one abstract-interpretation pass — and
                # attached to the handle; hard findings (a capacity that can
                # never admit a full basic window) raise only in verify mode
                # so production submits keep their warn-at-runtime behaviour.
                from repro.analysis.resources import analyze_resources

                resources = analyze_resources(
                    plan,
                    self._stream_limits,
                    subject=query_name,
                    landmark_spill_mb=self.landmark_spill_mb,
                )
                if self.verify_plans and not resources.ok:
                    raise ReproError(
                        "plan resource analysis failed:\n"
                        + resources.report.render(include_warnings=False)
                    )
                if self.verify_plans or self.backend == "compiled":
                    # Imported lazily: repro.analysis depends on this module.
                    # The compiled backend always verifies first — the
                    # compiler must only ever see typed, validated programs.
                    from repro.analysis.plan_verifier import check_plan

                    schemas = {
                        scan.alias: dict(
                            (
                                self.catalog.stream(scan.relation)
                                if scan.is_stream
                                else self.catalog.table(scan.relation)
                            ).schema.columns
                        )
                        for scan in find_scans(planned.plan)
                    }
                    check_plan(plan, schemas)
                factory = IncrementalFactory(
                    plan, baskets, tables, name=query_name, backend=self.backend
                )
                if (
                    self.landmark_spill_mb is not None
                    and not plan.is_join
                    and plan.windows
                    and all(w.is_landmark for w in plan.windows.values())
                ):
                    factory.enable_landmark_spill(
                        self._spill_dir_for(query_name),
                        int(self.landmark_spill_mb * 1024 * 1024),
                        fault_hook=self._fault_hook,
                        profiler=self.profiler,
                    )
                if self.fragment_sharing and plan.fragment is not None:
                    self._enable_sharing(factory, plan)
            else:
                factory = ReevalFactory(
                    planned, baskets, tables, name=query_name, backend=self.backend
                )
            emitter = CollectingEmitter()
            self.scheduler.register(factory, emitter)
        except BaseException:
            for cursor in baskets.values():
                cursor.close()
            raise
        handle = ContinuousQuery(
            query_name, sql, mode, factory, emitter, baskets, resources
        )
        self._queries[query_name] = handle
        self._submit_order.append(query_name)
        return handle

    def _submit_partitioned(self, sql: str, mode: str, query_name: str):
        """Replicate one query across the shard workers (DESIGN.md §14).

        The coordinator classifies the query (concat / merge-sort /
        re-aggregate), renders per-partition SQL against each worker's
        private stream, statically verifies both the partition plan and
        the synthesized merge program, and returns a
        :class:`~repro.core.shard.PartitionedQuery` handle.
        """
        from repro.core.shard import PartitionedQuery

        from repro.sql.parser import parse

        stream = next(
            t.name for t in parse(sql).tables if t.name in self._partitioned
        )
        state = self._partitioned[stream]
        schema = self.catalog.schema_of(stream)
        plan = plan_partition_query(sql, schema, state.spec)
        self._verify_partition_query(plan, schema, mode)
        anchor = None
        if plan.flavor == "virtual":
            # Late submits: the virtual clock already advanced to the
            # stream's fed count; anchoring at it (not 0) keeps the first
            # window from closing on historical watermarks.
            anchor = self._stream_fed[stream] * VIRTUAL_TICK_US
        part_sql = plan.partition_sql(f"__shard_{query_name}")
        replies = self._shards.request_all(
            ("submit", query_name, stream, part_sql, mode, plan.flavor, anchor)
        )
        out_names, atom_values = replies[0][1]
        partials = [(n, Atom(a)) for n, a in zip(out_names, atom_values)]
        finish_merge(plan, partials, verify=True)
        partial_names: list[str] = []
        partial_atoms: list[Atom] = []
        if plan.merge is None:
            # Hidden concat-sort helpers ship with every emission but are
            # dropped after the coordinator's ordering pass.
            hidden = set(plan.concat_hidden)
            partial_names = [n for n, __ in partials]
            partial_atoms = [a for __, a in partials]
            visible_names = [n for n in partial_names if n not in hidden]
            visible_atoms = [a for n, a in partials if n not in hidden]
        else:
            compiled = plan.merge.compiled
            atom_of = dict(zip(compiled.output_names, compiled.output_atoms))
            visible_names = list(plan.merge.visible)
            visible_atoms = [atom_of[n] for n in visible_names]
        handle = PartitionedQuery(
            name=query_name,
            sql=sql,
            mode=mode,
            plan=plan,
            output_names=visible_names,
            output_atoms=visible_atoms,
            partitions=self.partitions,
            partial_names=partial_names,
            partial_atoms=partial_atoms,
        )
        if plan.flavor == "time":
            state.pending_anchor.add(query_name)
        self._pqueries[query_name] = handle
        self._submit_order.append(query_name)
        return handle

    def _verify_partition_query(self, plan, schema: Schema, mode: str) -> None:
        """Static checks the coordinator runs so workers never see a plan
        the P=1 engine would have rejected (workers run verify off)."""
        if not (self.verify_plans or self.backend == "compiled"):
            return
        catalog = scratch_catalog(schema, "__scratch")
        planned = optimize(plan_query(plan.partition_sql("__scratch"), catalog))
        if mode == "incremental":
            from repro.analysis.plan_verifier import check_plan

            rewritten = rewrite(planned)
            check_plan(rewritten, {plan.alias: dict(worker_schema(schema))})

    def _enable_sharing(self, factory: IncrementalFactory, plan) -> None:
        """Register a single-stream factory with the shared fragment cache.

        The share key is ``(stream relation, basic-window geometry,
        canonical fragment fingerprint)``: queries collide exactly when
        they run the same computation over the same basic-window slices —
        window *size* may differ, only the step must match.  Spans are
        cursor positions on the stream's basket, so queries submitted at
        different times — or skipped forward by ``ShedOldest`` — never
        alias each other's windows.
        """
        alias = plan.stream_aliases[0]
        relation = plan.stream_relations[alias]
        window = plan.windows[alias]
        input_names = {
            scan_slot(alias, column): column for column in plan.scan_columns[alias]
        }
        fingerprint = fragment_fingerprint(plan.fragment, input_names)
        key = (relation, window.step, window.time_based, fingerprint)
        # Keep one ring slot per live basic window (landmark queries read
        # each basic window once, a short ring is plenty for them).
        capacity = window.basic_windows or 8
        self.fragment_cache.register(key, capacity)
        factory.enable_fragment_sharing(self.fragment_cache, key)

    # -- landmark spill plumbing (DESIGN.md §16) -----------------------
    def _spill_dir_for(self, query_name: str) -> str:
        """This query's private spill directory.

        Durable engines spill under ``<data_dir>/spill/<query>`` so runs
        survive a crash alongside the journal; ephemeral engines use a
        lazily-created tempdir removed on :meth:`close`/:meth:`abandon`.
        """
        if self._dur is not None:
            return os.path.join(self._dur.data_dir, "spill", query_name)
        if self._spill_root is None:
            self._spill_root = tempfile.mkdtemp(prefix="repro-spill-")
        return os.path.join(self._spill_root, query_name)

    def _drop_spill_dir(self, name: str) -> None:
        """Remove a query's spill directory (query removal)."""
        if self._dur is not None:
            shutil.rmtree(
                os.path.join(self._dur.data_dir, "spill", name),
                ignore_errors=True,
            )
        if self._spill_root is not None:
            shutil.rmtree(
                os.path.join(self._spill_root, name), ignore_errors=True
            )

    def _prune_spill_dirs(self) -> None:
        """Post-restore sweep: drop spill files nothing references.

        A crash can leave behind run files written after the snapshot
        (replay regenerates them deterministically under the same names,
        so whatever is still unreferenced now is garbage), ``.tmp``
        leftovers from torn renames, and whole directories of queries
        removed later in the journal.
        """
        for handle in self._queries.values():
            factory = handle.factory
            if isinstance(factory, IncrementalFactory):
                factory.prune_spill()
        if self._dur is not None:
            root = os.path.join(self._dur.data_dir, "spill")
            try:
                names = os.listdir(root)
            except FileNotFoundError:
                return
            for entry in names:
                if entry not in self._queries:
                    shutil.rmtree(os.path.join(root, entry), ignore_errors=True)

    def landmark_spill_stats(self) -> dict[str, dict]:
        """Per-query landmark spill gauges; ``{}`` when nothing spills.

        Each entry reports the byte budget, hot in-memory bytes/bundles,
        on-disk run count and bytes, and lifetime spill/page-in counters
        (surfaced in :meth:`metrics` under ``"landmark_spill"`` and as
        ``repro_landmark_spill_*`` Prometheus families, docs/METRICS.md).
        """
        return self._incremental_stats(IncrementalFactory.landmark_spill_stats)

    def merge_stats(self) -> dict[str, dict]:
        """Per-query merge-tree gauges of single-stream incremental queries.

        ``merge_cover_len`` is the number of bundles the last firing
        merged (the window's basic-window count for a flat store, far
        fewer once tree nodes cover it), ``merge_nodes_sealed`` the
        pre-merged nodes folded so far and ``merge_nodes_live`` those
        currently held (DESIGN.md §17; surfaced in :meth:`metrics` under
        ``"merge"`` and as ``repro_merge_*`` Prometheus families).
        """
        return self._incremental_stats(IncrementalFactory.merge_stats)

    def _incremental_stats(self, stat) -> dict[str, dict]:
        """``stat(factory)`` per incremental query, Nones left out."""
        stats: dict[str, dict] = {}
        for name, handle in self._queries.items():
            if isinstance(handle.factory, IncrementalFactory):
                per = stat(handle.factory)
                if per is not None:
                    stats[name] = per
        return stats

    def reset_landmark(self, name: str) -> None:
        """Restart a landmark query's window from *now* (journaled).

        Discards the query's accumulated landmark state — spilled runs
        included — and re-anchors the window at the next unconsumed
        tuple.  The reset is written to the journal **before** this
        returns, so a crash after a reset can never resurrect the
        pre-reset partials and re-emit stale windows on recovery.

        The engine first drives to quiescence: a reset's effect depends
        on how much input was *consumed* before it, and journal replay
        fires factories only at explicit run points — pinning the reset
        at a quiescent point makes the live run and its replay consume
        the same prefix before resetting.
        """
        with self._dur_guard():
            self.run_until_idle()
            with self.scheduler.quiesced():
                self._reset_landmark_impl(name)
            if self._dur is not None:
                self._dur.journal("reset_landmark", {"name": name})

    def _reset_landmark_impl(self, name: str) -> None:
        if name in self._pqueries:
            raise UnsupportedQueryError(
                "reset_landmark is not supported on partitioned queries; "
                "remove and resubmit instead"
            )
        handle = self._queries.get(name)
        if handle is None:
            raise CatalogError(f"unknown query {name!r}")
        if not isinstance(handle.factory, IncrementalFactory):
            raise UnsupportedQueryError(
                "reset_landmark needs an incremental query"
            )
        handle.factory.reset_landmark()

    def remove(self, name: str) -> None:
        """Unregister a continuous query and close its cursors."""
        with self._dur_guard():
            self._remove_impl(name)
            if self._dur is not None:
                self._dur.journal("remove", {"name": name})

    def _remove_impl(self, name: str) -> None:
        if name in self._submit_order:
            self._submit_order.remove(name)
        if name in self._pqueries:
            del self._pqueries[name]
            self._shards.broadcast(("remove", name))
            for state in self._partitioned.values():
                state.pending_anchor.discard(name)
            return
        handle = self._queries.pop(name, None)
        if handle is None:
            return
        # Between scans: a firing already in flight may still read them.
        with self.scheduler.quiesced():
            self.scheduler.unregister(name)
            for cursor in handle.baskets.values():
                cursor.close()
        self._drop_spill_dir(name)

    def query(self, name: str):
        if name in self._pqueries:
            return self._pqueries[name]
        return self._queries[name]

    # ------------------------------------------------------------------
    # data ingress / scheduling
    # ------------------------------------------------------------------
    def feed(
        self,
        stream: str,
        rows: Optional[Iterable[Sequence]] = None,
        columns: Optional[Mapping[str, Sequence | np.ndarray]] = None,
        timestamps: Optional[Sequence[int] | np.ndarray] = None,
    ) -> int:
        """Append tuples to ``stream``'s basket, once for every query.

        Returns the batch size *offered*; on a bounded stream the overflow
        policy admits, thins, blocks or rejects the batch once for the
        whole stream (a ``Fail`` policy raises
        :class:`~repro.errors.BasketOverflowError` before any query sees
        a tuple, ``Block`` waits for the slowest query).  Shedding is
        accounted on the basket and the engine profiler, not in the
        return value.  This is the one write-ahead point for stream
        input: receptors feed through it too.
        """
        if stream not in self._logs:
            raise CatalogError(f"unknown stream {stream!r}")
        if (rows is None) == (columns is None):
            raise ReproError("feed needs exactly one of rows= or columns=")
        if self._dur is None:
            return self._feed_impl(stream, rows, columns, timestamps)
        if rows is not None:
            rows = list(rows)
        # Write-ahead: the record lands before the basket admits a tuple,
        # so replay re-offers the batch through the restored overflow
        # policy (RNG state included) and reproduces its decision.
        with self._dur.lock:
            self._dur.journal(
                "feed", self._feed_record(stream, rows, columns, timestamps)
            )
            return self._feed_impl(stream, rows, columns, timestamps)

    def _feed_record(
        self,
        stream: str,
        rows: Optional[list],
        columns: Optional[Mapping[str, Sequence | np.ndarray]],
        timestamps: Optional[Sequence[int] | np.ndarray],
    ) -> dict:
        """Typed, replayable image of one feed batch (validates arity
        before anything reaches the journal)."""
        schema = self.catalog.schema_of(stream)
        names = schema.names
        if rows is not None:
            for row in rows:
                if len(row) != len(names):
                    raise ReproError(
                        f"row arity {len(row)} != schema arity {len(names)}"
                    )
            cols: Mapping[str, Sequence | np.ndarray] = {
                name: [row[i] for row in rows] for i, name in enumerate(names)
            }
        else:
            assert columns is not None
            cols = columns
        record: dict = {
            "stream": stream,
            "columns": {
                name: typed_values(values, schema.atom_of(name))
                for name, values in cols.items()
            },
        }
        if timestamps is not None:
            record["timestamps"] = np.asarray(timestamps, dtype=np.int64)
        return record

    def _feed_impl(
        self,
        stream: str,
        rows: Optional[Iterable[Sequence]],
        columns: Optional[Mapping[str, Sequence | np.ndarray]],
        timestamps: Optional[Sequence[int] | np.ndarray],
    ) -> int:
        if stream in self._partitioned:
            return self._feed_partitioned(stream, rows, columns, timestamps)
        log = self._logs[stream]
        if rows is not None:
            rows = list(rows)
            count = len(rows)
            log.append_rows(rows, timestamps)
        else:
            assert columns is not None
            log.append_columns(columns, timestamps)
            count = len(next(iter(columns.values())))
        if not log.readers:
            # Nobody reads the stream: keep nothing, but the arrival
            # offset still moves, so later cursors start on the same axis.
            log.delete_head(len(log))
        self._stream_fed[stream] += count
        return count

    def _feed_partitioned(
        self,
        stream: str,
        rows: Optional[Iterable[Sequence]],
        columns: Optional[Mapping[str, Sequence | np.ndarray]],
        timestamps: Optional[Sequence[int] | np.ndarray],
    ) -> int:
        """Hash-route one batch to the shard workers.

        Each tuple additionally carries its global arrival offset
        (``__seq``) — the workers' virtual clock and the merge layer's
        tie-breaker.  Missing timestamps default to the arrival offset,
        exactly the per-basket logical clock the P=1 path would assign.
        Overflow on bounded partitioned streams is enforced worker-side;
        a ``Fail`` policy therefore surfaces at the next
        :meth:`run_until_idle`, not at ``feed`` itself.
        """
        from repro.core.shard import as_typed_columns, split_fixed_columns

        state = self._partitioned[stream]
        schema = self.catalog.schema_of(stream)
        names = schema.names
        if rows is not None:
            rows = list(rows)
            for row in rows:
                if len(row) != len(names):
                    raise ReproError(
                        f"row arity {len(row)} != schema arity {len(names)}"
                    )
            cols: Mapping[str, Sequence | np.ndarray] = {
                name: [row[i] for row in rows]
                for i, name in enumerate(names)
            }
        else:
            assert columns is not None
            if set(columns) != set(names):
                raise ReproError(
                    f"feed needs exactly columns {sorted(names)}"
                )
            cols = columns
        typed = as_typed_columns(
            cols, {name: schema.atom_of(name) for name in names}
        )
        lengths = {len(values) for values in typed.values()}
        if len(lengths) > 1:
            raise ReproError(f"ragged column feed on {stream!r}")
        count = lengths.pop() if lengths else 0
        base = self._stream_fed[stream]
        seq = np.arange(base, base + count, dtype=np.int64)
        if timestamps is not None:
            ts = np.asarray(timestamps, dtype=np.int64)
            if len(ts) != count:
                raise ReproError("timestamp column length mismatch")
        else:
            ts = seq
        if count and state.pending_anchor:
            # First arrival after a real-time query's submit anchors its
            # window origin in every partition (pipe FIFO: the anchor
            # lands before this batch's feed message).
            origin = int(ts[0])
            for qname in sorted(state.pending_anchor):
                self._shards.broadcast(("anchor", qname, origin))
            state.pending_anchor.clear()
        routes = route_columns(
            typed, state.spec.key, state.key_atom, self.partitions
        )
        watermark = (base + count) * VIRTUAL_TICK_US
        # Real-time queries: each partition sees only its routed subset,
        # so the batch's newest timestamp travels to *every* partition as
        # a punctuation — otherwise a partition the window-closing row
        # didn't route to would hold its window open forever.  Mirrors
        # the P=1 watermark (newest arrival timestamp, ``tail[-1]``).
        ts_watermark = int(ts[-1]) if count else None
        for p, idx in enumerate(routes):
            part = {name: typed[name][idx] for name in names}
            part[SEQ_COLUMN] = seq[idx]
            part[TS_COLUMN] = ts[idx]
            fixed, pickled = split_fixed_columns(part)
            self._shards.feed_partition(
                p, stream, fixed, pickled, watermark, ts_watermark
            )
            state.routed[p] += len(idx)
        self._stream_fed[stream] += count
        return count

    def advance_time(self, stream: str, ts: int) -> None:
        """Advance the time watermark of ``stream``'s basket.

        A punctuation: promises no tuple with arrival timestamp < ``ts``
        will arrive, so time-based windows can close during silence.
        """
        if stream not in self._logs:
            raise CatalogError(f"unknown stream {stream!r}")
        with self._dur_guard():
            if stream in self._partitioned:
                # Real-time queries only; the virtual (count) axis advances
                # with the fed count and ignores user punctuations.
                self._shards.broadcast(("advance", stream, int(ts)))
            else:
                self._logs[stream].advance_watermark(ts)
            if self._dur is not None:
                self._dur.journal("advance", {"stream": stream, "ts": int(ts)})

    def receptor(self, stream: str) -> Receptor:
        """A receptor feeding ``stream`` (threaded ingest).

        Its batches take the :meth:`feed` path — journaled, admitted once,
        read by every query on the stream.
        """
        if stream not in self._logs:
            raise CatalogError(f"unknown stream {stream!r}")
        if stream in self._partitioned:
            raise UnsupportedQueryError(
                "receptors are not supported on partitioned streams; "
                "feed() the coordinator instead"
            )
        return Receptor(
            _StreamFeed(self, stream),
            max_retries=3,
            profiler=self.scheduler.profiler,
        )

    def run_until_idle(self) -> int:
        """Fire all ready factories until quiescence; returns firings.

        With shard workers attached this also pumps them: every worker
        runs its own scheduler to quiescence (concurrently — the request
        fans out before any reply is awaited), emitted windows are
        collected, and every window all partitions have reported is
        merged here, in window order.
        """
        fired = self.scheduler.run_until_idle()
        if self._shards is not None:
            with self._shard_pump_lock:
                fired += self._shards.run()
                for p, batches in enumerate(self._shards.collect()):
                    for qname, window_index, resp, cols in batches:
                        handle = self._pqueries.get(qname)
                        if handle is not None:
                            handle.offer(p, window_index, resp, cols)
                for handle in self._pqueries.values():
                    handle.drain(self._interp, self.profiler)
        return fired

    def overload_stats(self) -> dict[str, dict[str, int]]:
        """Per-stream overload summary of the stream's basket.

        For each stream: the configured ``capacity`` (0 = unbounded), the
        number of queries reading it (``baskets``: cursors), the tuples
        ``parked`` once for all of them, the deepest cursor lag
        ``max_parked`` (the same number: the basket's head is the slowest
        cursor), and the ``shed`` (per query that lost a tuple) /
        ``block_waits`` / ``block_timeouts`` counters.  The console's
        ``STATS`` command and docs/OPERATIONS.md build on this.
        """
        stats = {}
        for stream, log in self._logs.items():
            per = stats[stream] = log.overflow_stats()
            per.update(baskets=log.readers, max_parked=per["parked"])
        return stats

    def metrics(self, format: str = "dict"):
        """Everything the engine can report, in one snapshot.

        ``format="dict"`` (default) returns the structured snapshot of
        :func:`repro.obs.collect_metrics` — engine shape, counters
        (firings, cache hits/misses, overflow, worker errors), per-tag
        plan seconds, per-factory stats, per-stream basket depths, and —
        with observability on — ingest→emit latency quantiles, firing
        durations, per-opcode histograms, and span-ring occupancy.
        ``format="json"`` and ``format="prometheus"`` return the same
        snapshot serialized for export (see docs/OPERATIONS.md §6).
        """
        snapshot = collect_metrics(self)
        if format == "dict":
            return snapshot
        if format == "json":
            return render_json(snapshot)
        if format == "prometheus":
            return render_prometheus(snapshot, obs=self.obs)
        raise ReproError(f"unknown metrics format {format!r}")

    def start(self, poll_interval: float = 0.001) -> None:
        """Run the scheduler in the background (used with receptors)."""
        if self._pqueries:
            raise UnsupportedQueryError(
                "background mode does not pump shard workers; drive "
                "partitioned queries with run_until_idle()"
            )
        self.scheduler.start(poll_interval=poll_interval)

    def stop(self, drain: bool = True) -> None:
        self.scheduler.stop(drain=drain)

    def close(self) -> None:
        """Stop background work and release everything the engine holds.

        Shard workers are shut down gracefully and every outstanding
        shared-memory segment is unlinked — ``/dev/shm`` holds nothing of
        this engine's after close (the CI partition job asserts this).
        """
        self.scheduler.stop(drain=False)
        if self._shards is not None:
            self._shards.close()
        if self._dur is not None:
            self._dur.close()
        self._drop_spill_root()

    def _drop_spill_root(self) -> None:
        """Remove the ephemeral spill tempdir (non-durable engines only —
        durable engines keep ``<data_dir>/spill/`` for restore)."""
        if self._spill_root is not None:
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None

    # ------------------------------------------------------------------
    # durability: checkpoint / restore (DESIGN.md §15)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Write one consistent snapshot and rotate the journal.

        Holds the journal lock (no new commands commit) and quiesces the
        scheduler (no factory is mid-firing), gathers the full engine
        state — baskets, factory partials, emitters, scheduler step
        counters, fragment cache, shard workers — and commits it through
        :meth:`DurabilityManager.write_checkpoint`.  Returns the stats
        dict (``snapshot_id``/``horizon``/``bytes``/``seconds``).
        """
        if self._dur is None:
            raise ReproError("checkpoint() needs an engine with a data_dir")
        with self._dur.lock:
            with self._shard_pump_lock:
                with self.scheduler.quiesced():
                    state = self._gather_state()
                    return self._dur.write_checkpoint(state)

    @classmethod
    def restore(cls, data_dir: str) -> "DataCellEngine":
        """Recover an engine from a data directory.

        Loads the manifest's snapshot (if any), replays every journal
        record past its horizon through the normal ingest path, and
        resumes journaling on a fresh segment.  Re-fired windows are
        produced exactly once from the emitters' point of view: factory
        ``window_index`` counters are part of the snapshot, and a dedup
        sink drops anything at or below the snapshot watermark as
        defense in depth (``recovery_suppressed`` counter).
        """
        dur = DurabilityManager(data_dir)
        snapshot, horizon = dur.load()
        records = dur.replay_records(horizon)
        if snapshot is not None:
            meta = snapshot["meta"]
        else:
            try:
                __, kind, payload = next(records)
            except StopIteration:
                raise DurabilityError(
                    f"nothing to restore in {data_dir!r}"
                ) from None
            if kind != "meta":
                raise DurabilityError(
                    f"journal does not start with a meta record (got {kind!r})"
                )
            meta = payload
        # A "workers" key (data dirs written before the thread-pool mode
        # was removed) is ignored: one thread fires in the same order.
        engine = cls(
            verify_plans=meta["verify_plans"],
            fragment_sharing=meta["fragment_sharing"],
            observability=meta["observability"],
            backend=meta["backend"],
            partitions=meta["partitions"],
            # .get(): journals written before spilling existed lack the key.
            landmark_spill_mb=meta.get("landmark_spill_mb"),
        )
        engine._adopt_durability(dur)
        last_seq = horizon
        with dur.replaying():
            if snapshot is not None:
                engine._apply_state(snapshot)
            replayed = 0
            for seq, kind, payload in records:
                engine._replay_record(kind, payload)
                last_seq = max(last_seq, seq)
                replayed += 1
            if replayed:
                engine.profiler.count(COUNTER_REPLAYED_RECORDS, replayed)
        engine._prune_spill_dirs()
        dur.resume(last_seq)
        return engine

    def _adopt_durability(self, dur: DurabilityManager) -> None:
        """Bind a loaded manager to this engine (restore path)."""
        self._dur = dur
        dur.attach_profiler(self.profiler)

    def abandon(self) -> None:
        """Die without cleanup — the crash-test path.

        No drain, no checkpoint, no graceful worker shutdown: shard
        processes are terminated, the journal fd is closed (every append
        already fsynced itself), and whatever was in memory is lost —
        exactly what :meth:`restore` must recover from.
        """
        try:
            self.scheduler.stop(drain=False)
        except Exception:  # noqa: BLE001 - crash path: state is forfeit
            pass
        if self._shards is not None:
            self._shards.abandon()
        if self._dur is not None:
            self._dur.close()
        # Ephemeral spill state is unrecoverable anyway; don't leak tmpdirs.
        self._drop_spill_root()

    def durability_stats(self) -> dict:
        """Journal/checkpoint gauges; ``{}`` when durability is off."""
        if self._dur is None:
            return {}
        return self._dur.stats()

    def install_fault_hook(self, hook) -> None:
        """Test seam: called at every durability and spill HOOK_* point.

        The crash-recovery tests install a
        :class:`~repro.testing.faults.CrashPoint` here to simulate the
        process dying mid-append or mid-checkpoint (the hook raises;
        the test abandons the engine and restores the data dir).  The
        same hook is forwarded to every spilling landmark store, so one
        ordinal sweep covers journal, checkpoint, and spill effects in a
        single deterministic sequence.
        """
        if self._dur is None and self.landmark_spill_mb is None:
            raise ReproError(
                "install_fault_hook needs a durable or spilling engine"
            )
        if self._dur is not None:
            self._dur.fault_hook = hook
        self._fault_hook = hook
        for handle in self._queries.values():
            factory = handle.factory
            if isinstance(factory, IncrementalFactory):
                factory.set_fault_hook(hook)

    def _gather_state(self) -> dict:
        """The full engine image one snapshot frame carries.

        Caller holds the journal lock with the scheduler quiesced, so
        every piece is mutually consistent at the journal horizon.
        """
        state: dict = {
            "meta": self._meta(),
            "streams": [
                {
                    "name": name,
                    "columns": [
                        [c, a.value]
                        for c, a in self.catalog.schema_of(name).columns
                    ],
                    "capacity": self._stream_limits[name][0],
                    "overflow": policy_spec(self._stream_limits[name][1]),
                    "partition_by": (
                        self._partitioned[name].spec.key
                        if name in self._partitioned
                        else None
                    ),
                }
                for name in self._logs
            ],
            "stream_fed": dict(self._stream_fed),
            "logs": {name: log.snapshot_state() for name, log in self._logs.items()},
            "tables": [
                {
                    "name": name,
                    "columns": [
                        [c, a.value] for c, a in table.schema.columns
                    ],
                    "data": table.columns(),
                }
                for name, table in self.catalog.tables().items()
            ],
            "queries": [
                {
                    "name": qname,
                    "sql": self.query(qname).sql,
                    "mode": self.query(qname).mode,
                    "partitioned": qname in self._pqueries,
                }
                for qname in self._submit_order
            ],
            "query_counter": self._query_counter,
            "query_states": {
                qname: {
                    "factory": handle.factory.snapshot_state(),
                    "cursors": {
                        alias: cursor.position
                        for alias, cursor in handle.baskets.items()
                    },
                    "emitter": handle.emitter.snapshot_state(),
                    "watermark": handle.factory.window_index,
                }
                for qname, handle in self._queries.items()
            },
            "steps": self.scheduler.steps_snapshot(),
            "fragment_cache": self.fragment_cache.snapshot_state(),
            "partitioned": {
                name: {
                    "routed": list(ps.routed),
                    "pending_anchor": sorted(ps.pending_anchor),
                }
                for name, ps in self._partitioned.items()
            },
            "pqueries": {
                name: {
                    "output_names": list(h.output_names),
                    "output_atoms": [a.value for a in h.output_atoms],
                    "partial_names": list(h.partial_names),
                    "partial_atoms": [a.value for a in h.partial_atoms],
                    "next_window": h.next_window,
                    "progress": list(h.progress),
                    "pending": [
                        [
                            window,
                            [
                                [p, resp, cols]
                                for p, (resp, cols) in sorted(parts.items())
                            ],
                        ]
                        for window, parts in sorted(h.pending.items())
                    ],
                    "batches": _pack_batches(h.batches),
                }
                for name, h in self._pqueries.items()
            },
        }
        if self._shards is not None:
            state["shards"] = [
                reply[1] for reply in self._shards.request_all(("snapshot",))
            ]
        return state

    def _apply_state(self, state: dict) -> None:
        """Adopt a snapshot image (restore path; journaling suppressed)."""
        for decl in state["streams"]:
            self._create_stream_impl(
                decl["name"],
                [(c, Atom(a)) for c, a in decl["columns"]],
                decl["capacity"],
                parse_overflow_spec(decl["overflow"])
                if decl["overflow"]
                else None,
                decl["partition_by"],
                broadcast=False,
            )
        self._stream_fed.update(state["stream_fed"])
        # A "diverged" key (per-query baskets a failed fan-out left
        # unequal) is ignored: one basket per stream cannot diverge.
        for name, lstate in state.get("logs", {}).items():
            self._logs[name].restore_state(lstate)
        for tdecl in state["tables"]:
            table = self.catalog.create_table(
                tdecl["name"],
                _as_schema([(c, Atom(a)) for c, a in tdecl["columns"]]),
            )
            if tdecl["data"]:
                table.append_columns(
                    {name: bat.tail for name, bat in tdecl["data"].items()}
                )
        # Workers restore before queries: the coordinator-side rebuild of
        # partitioned handles asks them for the worker output schema, and
        # replayed journal feeds must land on restored worker state.
        if self._shards is not None and "shards" in state:
            for worker, wstate in zip(self._shards.workers, state["shards"]):
                worker.request(("restore", wstate))
        for entry in state["queries"]:
            if entry["partitioned"]:
                self._restore_partitioned_query(
                    entry, state["pqueries"][entry["name"]]
                )
            else:
                self._submit_impl(entry["sql"], entry["mode"], entry["name"])
        self._query_counter = state["query_counter"]
        if "logs" not in state:
            self._adopt_query_baskets(state)
        for qname, qstate in state["query_states"].items():
            handle = self._queries[qname]
            handle.factory.restore_state(qstate["factory"])
            for alias, position in qstate.get("cursors", {}).items():
                handle.baskets[alias].position = position
            handle.emitter.restore_state(qstate["emitter"])
            self.scheduler.restore_steps(qname, state["steps"].get(qname, 0))
            self.scheduler.wrap_sinks(
                qname, self._dedup_wrapper(qstate["watermark"])
            )
        self.fragment_cache.restore_state(state["fragment_cache"])
        for name, pstate in state["partitioned"].items():
            ps = self._partitioned[name]
            ps.routed = [int(x) for x in pstate["routed"]]
            ps.pending_anchor = set(pstate["pending_anchor"])

    def _restore_partitioned_query(self, entry: dict, pstate: dict) -> None:
        """Rebuild one partitioned handle without re-submitting to the
        (already restored) shard workers."""
        from repro.core.shard import PartitionedQuery
        from repro.sql.parser import parse

        name, sql = entry["name"], entry["sql"]
        stream = next(
            t.name for t in parse(sql).tables if t.name in self._partitioned
        )
        ps = self._partitioned[stream]
        schema = self.catalog.schema_of(stream)
        plan = plan_partition_query(sql, schema, ps.spec)
        reply = self._shards.workers[0].request(("schema", name))
        out_names, atom_values = reply[1]
        partials = [(n, Atom(a)) for n, a in zip(out_names, atom_values)]
        finish_merge(plan, partials, verify=False)
        handle = PartitionedQuery(
            name=name,
            sql=sql,
            mode=entry["mode"],
            plan=plan,
            output_names=list(pstate["output_names"]),
            output_atoms=[Atom(a) for a in pstate["output_atoms"]],
            partitions=self.partitions,
            partial_names=list(pstate["partial_names"]),
            partial_atoms=[Atom(a) for a in pstate["partial_atoms"]],
        )
        handle.next_window = pstate["next_window"]
        handle.progress = [int(x) for x in pstate["progress"]]
        handle.pending = {
            int(window): {
                int(p): (resp, cols) for p, resp, cols in parts
            }
            for window, parts in pstate["pending"]
        }
        handle.batches = _unpack_batches(pstate["batches"])
        self._pqueries[name] = handle
        self._submit_order.append(name)

    def _dedup_wrapper(self, watermark: int):
        """Sink filter dropping windows the snapshot already emitted."""

        def wrap(sink):
            def dedup(name: str, batch: ResultBatch) -> None:
                if batch.window_index <= watermark:
                    self.profiler.count(COUNTER_RECOVERY_SUPPRESSED)
                    return
                sink(name, batch)

            return dedup

        return wrap

    def _replay_record(self, kind: str, payload) -> None:
        """Apply one journal record through the normal ingest path."""
        try:
            if kind == "meta":
                return
            if kind == "create_stream":
                self.create_stream(
                    payload["name"],
                    [(c, Atom(a)) for c, a in payload["columns"]],
                    capacity=payload["capacity"],
                    overflow=parse_overflow_spec(payload["overflow"])
                    if payload["overflow"]
                    else None,
                    partition_by=payload["partition_by"],
                )
            elif kind == "create_table":
                self.create_table(
                    payload["name"],
                    [(c, Atom(a)) for c, a in payload["columns"]],
                )
            elif kind == "insert":
                self.catalog.table(payload["table"]).append_columns(
                    payload["columns"]
                )
            elif kind == "submit":
                self.submit(
                    payload["sql"], mode=payload["mode"], name=payload["name"]
                )
            elif kind == "remove":
                self.remove(payload["name"])
            elif kind == "feed":
                self.feed(
                    payload["stream"],
                    columns=payload["columns"],
                    timestamps=payload.get("timestamps"),
                )
            elif kind == "advance":
                self.advance_time(payload["stream"], payload["ts"])
            elif kind == "reset_landmark":
                self.reset_landmark(payload["name"])
            elif kind == "basket":
                # Legacy receptor record, "<query>:<stream>": the batch now
                # goes to the stream, as a receptor's feed would.
                self._feed_impl(
                    payload["basket"].rsplit(":", 1)[1],
                    None,
                    payload["columns"],
                    payload.get("timestamps"),
                )
            else:
                raise DurabilityError(f"unknown journal record kind {kind!r}")
        except BasketOverflowError:
            # The live run continued past this overflow too (it admitted
            # nothing, or what the policy kept before raising).
            pass

    def _adopt_query_baskets(self, state: dict) -> None:
        """Rebuild each stream's basket from a snapshot that still holds
        one basket image per query (data dirs from before per-stream
        baskets).

        The longest image becomes the basket, ending at the stream's fed
        count; every query's cursor starts ``len(image)`` before that
        tail, which holds when each shorter image is a suffix of the
        longest — otherwise the queries saw different tuples and there is
        no one basket to rebuild.
        """
        images: dict[str, list] = {}
        for qname, qstate in state["query_states"].items():
            handle = self._queries[qname]
            for alias, image in qstate["baskets"].items():
                cursor = handle.baskets[alias]
                time_based = alias in handle.factory._slicers
                images.setdefault(cursor.basket.name, []).append(
                    (cursor, image, time_based)
                )
        for stream, log in self._logs.items():
            entries = images.get(stream, [])
            first = log.schema.names[0]

            def held(image: dict) -> int:
                return len(image["columns"][first])

            longest = max(
                (image for __, image, __ in entries),
                key=held,
                default=log.snapshot_state(),
            )
            tail = state["stream_fed"][stream]
            for cursor, image, time_based in entries:
                count = held(image)
                for name in log.schema.names:
                    mine = image["columns"][name].tail
                    theirs = longest["columns"][name].tail[held(longest) - count :]
                    if not np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f"):
                        raise DurabilityError(
                            f"stream {stream!r}: the snapshot's per-query baskets "
                            "hold different tuples; cannot rebuild its basket"
                        )
                if time_based and image["clock"] != longest["clock"]:
                    raise DurabilityError(
                        f"stream {stream!r}: a time-based query's basket kept "
                        "its own logical clock; cannot rebuild its basket"
                    )
                cursor.position = tail - count
            watermarks = [i["watermark"] for __, i, __ in entries if i["watermark"] is not None]
            counters = ("shed_total", "block_waits", "block_timeouts")
            log.restore_state(
                {
                    **longest,
                    **{key: sum(i[key] for __, i, __ in entries) for key in counters},
                    "columns": {
                        name: BAT(bat.tail, bat.atom, tail - held(longest))
                        for name, bat in longest["columns"].items()
                    },
                    "appended_total": tail,
                    "watermark": max(watermarks, default=None),
                }
            )

    def partition_stats(self) -> dict:
        """Partition-execution gauges; ``{}`` unless sharding is active.

        Per stream: tuples ``routed`` to each partition and the relative
        ``skew`` ``(max - min) / max``.  Per query: the merge ``route``,
        timestamp ``flavor``, merged ``windows``, and ``lag`` — the
        window-progress spread across partitions (0 = lockstep).
        ``workers`` holds each worker engine's profiler counters plus its
        ``parked`` basket occupancy.  Surfaces in :meth:`metrics` under
        ``"partition"`` and as ``repro_partition_*`` Prometheus gauges
        (docs/METRICS.md).
        """
        if self._shards is None or not self._partitioned:
            return {}
        streams = {}
        for name, state in self._partitioned.items():
            top = max(state.routed, default=0)
            streams[name] = {
                "key": state.spec.key,
                "routed": list(state.routed),
                "skew": (top - min(state.routed)) / top if top else 0.0,
            }
        queries = {
            name: {
                "route": handle.plan.route,
                "flavor": handle.plan.flavor,
                "windows": len(handle.batches),
                "lag": handle.lag(),
            }
            for name, handle in self._pqueries.items()
        }
        return {
            "partitions": self.partitions,
            "streams": streams,
            "queries": queries,
            "workers": self._shards.stats(),
        }

    # ------------------------------------------------------------------
    # one-time queries & introspection
    # ------------------------------------------------------------------
    def query_once(self, sql: str) -> dict[str, list]:
        """Run a one-time query over base tables, returning named columns."""
        planned = optimize(plan_query(sql, self.catalog))
        for scan in find_scans(planned.plan):
            if scan.is_stream:
                raise UnsupportedQueryError(
                    "query_once only supports base tables; submit() streams"
                )
        compiled = compile_full(planned)
        inputs: dict[str, BAT] = {}
        for alias, cols in compiled.scan_inputs.items():
            table = self.catalog.table(
                next(
                    s.relation for s in find_scans(planned.plan) if s.alias == alias
                )
            )
            for column, slot in cols.items():
                inputs[slot] = table.column(column)
        outputs = self._interp.run(compiled.program, inputs)
        return {
            name: outputs[slot].to_list()
            for name, slot in zip(compiled.output_names, compiled.output_slots)
        }

    def explain(self, sql: str) -> str:
        """The optimized logical plan, as text."""
        planned = optimize(plan_query(sql, self.catalog))
        return pretty_plan(planned.plan)

    def explain_continuous(self, sql: str) -> str:
        """The rewritten incremental programs, as text."""
        planned = optimize(plan_query(sql, self.catalog))
        return rewrite(planned).describe()
