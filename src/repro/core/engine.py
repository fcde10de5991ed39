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
import threading
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.diagnostics import Report
from repro.analysis.plan_verifier import SchemaMap, check_plan, verify_plan
from repro.analysis.resources import ResourceReport, analyze_resources
from repro.core.basket import Basket, Cursor
from repro.core.durability import (
    DATA_FORMAT,
    DurabilityError,
    DurabilityManager,
    has_data,
    typed_values,
)
from repro.core.emitter import CollectingEmitter, EmittedResults
from repro.core.factory import IncrementalFactory, ResultBatch
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
from repro.core.rewriter import IncrementalPlan, reevaluation_plan, rewrite
from repro.core.rewriter.canonical import fragment_fingerprint
from repro.core.scheduler import Scheduler
from repro.core.shard import PartitionedQuery, ShardSet
from repro.errors import (
    BasketError,
    BasketOverflowError,
    CatalogError,
    ReproError,
    UnsupportedQueryError,
)
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.execution.interpreter import Interpreter
from repro.kernel.execution.profiler import (
    COUNTER_BLOCK_TIMEOUTS,
    COUNTER_BLOCK_WAITS,
    COUNTER_RECOVERY_SUPPRESSED,
    COUNTER_REPLAYED_RECORDS,
    COUNTER_SHED,
    Profiler,
)
from repro.kernel.storage import Catalog, Schema, Table
from repro.obs import Observability, collect_metrics, render_json, render_prometheus
from repro.sql.logical import find_scans, pretty_plan
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.physical import compile_full, scan_slot
from repro.sql.planner import PlannedQuery, plan_query

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


def plan_sql(sql: str, catalog: Catalog) -> PlannedQuery:
    """The planning stage: SQL compiler, then optimizer."""
    return optimize(plan_query(sql, catalog))


@dataclass(frozen=True)
class CompiledQuery:
    """One continuous query as :func:`compile_query` accepted it."""

    #: The optimizer's output.
    planned: PlannedQuery
    #: What a factory runs: the DataCell rewrite, or the re-evaluation
    #: plan for ``mode="reeval"``.
    plan: IncrementalPlan
    #: alias -> column -> atom, for every scan of the query.
    schemas: SchemaMap
    #: Static state bounds (incremental plans, when limits were given).
    resources: Optional[ResourceReport] = None
    #: The plan verifier's report (incremental plans, ``verify`` only).
    verified: Optional[Report] = None


def compile_query(
    sql: str,
    catalog: Catalog,
    mode: str = "incremental",
    limits: Optional[dict[str, tuple[Optional[int], Optional[OverflowPolicy]]]] = None,
    verify: bool = False,
    strict: bool = True,
    subject: str = "query",
) -> CompiledQuery:
    """Compile one continuous query: the paper's chain (§3), in one place.

    :func:`plan_sql`, then the DataCell rewriter (:func:`rewrite`) or, for
    ``mode="reeval"``, :func:`reevaluation_plan`.  An incremental plan
    goes on to the resource analyzer when ``limits`` (stream -> (capacity,
    overflow policy)) are given, and to the plan verifier under
    ``verify``.  ``verify`` is also the submit-time gate: a hard resource
    finding raises :class:`ReproError` and a verifier error
    :class:`~repro.errors.PlanVerificationError` — unless ``strict`` is
    off (``repro lint``), which keeps both findings in the record.
    Submit, ``EXPLAIN CONTINUOUS``, the partitioned-submit check and
    ``repro lint`` all compile through here.
    """
    planned = plan_sql(sql, catalog)
    schemas = {
        scan.alias: dict(catalog.schema_of(scan.relation).columns)
        for scan in find_scans(planned.plan)
    }
    if mode == "reeval":
        return CompiledQuery(planned, reevaluation_plan(planned), schemas)
    plan = rewrite(planned)
    resources: Optional[ResourceReport] = None
    verified: Optional[Report] = None
    if limits is not None:
        # Always computed when limits are known (one abstract-interpretation
        # pass); a hard finding (a capacity that can never admit a full
        # basic window) raises only under verify, so production submits
        # keep their warn-at-runtime behaviour.
        resources = analyze_resources(plan, limits, subject=subject)
        if verify and strict and not resources.ok:
            raise ReproError(
                "plan resource analysis failed:\n"
                + resources.report.render(include_warnings=False)
            )
    if verify:
        verified = (check_plan if strict else verify_plan)(plan, schemas)
    return CompiledQuery(planned, plan, schemas, resources, verified)


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
class ContinuousQuery(EmittedResults):
    """Handle to a registered continuous query."""

    name: str
    sql: str
    mode: str  # "incremental" | "reeval"
    factory: IncrementalFactory
    emitter: CollectingEmitter
    #: alias -> this query's cursor on the stream's basket
    baskets: dict[str, Cursor] = field(default_factory=dict)
    #: Static worst-case state bounds computed at submit time
    #: (incremental mode only; None for reeval queries).
    resources: Optional[ResourceReport] = None


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
        partitions: int = 1,
        data_dir: Optional[str] = None,
    ) -> None:
        if workers != 1:
            raise ReproError(
                f"workers={workers!r}: the thread-pool scheduler mode was "
                "removed (one firing thread per process); the only accepted "
                "value is 1 — scale out with partitions= instead"
            )
        if partitions < 1:
            raise ReproError("partitions must be >= 1")
        if verify_plans is None:
            flag = os.environ.get("REPRO_VERIFY_PLANS", "")
            verify_plans = flag.strip().lower() in ("1", "true", "yes", "on")
        self.verify_plans = verify_plans
        self.fragment_sharing = fragment_sharing
        #: Tracing sinks (firing spans, latency histograms, per-opcode
        #: durations); ``observability=False`` drops them entirely — the
        #: hot paths then pay a few ``is None`` tests (DESIGN.md §11).
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
        # Receptors built by receptor(): each counts its own ingest
        # retries/drops, summed into `profiler` at read time.
        self._receptors: list[Receptor] = []
        self._interp = Interpreter()
        #: Partitioned execution (DESIGN.md §14): ``partitions > 1`` builds
        #: one private engine per partition (:class:`ShardSet`) and enables
        #: ``PARTITION BY`` streams.  With ``partitions=1`` such streams
        #: take the ordinary path — same results, no partition engines.
        self.partitions = partitions
        self._shards: Optional[ShardSet] = None
        self._partitioned: dict[str, _PartitionedStream] = {}
        self._pqueries: dict[str, "PartitionedQuery"] = {}
        #: Query names in submission order (both kinds) — the resubmission
        #: order a snapshot restore follows.
        self._submit_order: list[str] = []
        # Serializes the partition pump (run_until_idle's partition
        # section) against checkpoint's snapshot of the partition engines:
        # that snapshot does not quiesce a partition's scheduler, so it
        # must not run while the pump fires the partitions.
        self._shard_pump_lock = threading.Lock()
        if partitions > 1:
            self._shards = ShardSet(partitions, fragment_sharing)
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
            self._dur = DurabilityManager(data_dir)
            # The journal's first record carries the engine shape, so a
            # never-checkpointed dir can still be restored from seq 0.
            self._dur.journal("meta", self._meta())

    @property
    def profiler(self) -> Profiler:
        """A copy of the engine-wide profile (timings + counters).

        The firing thread's profiler (firings, cache hits/misses, plan
        timings), copied at a scan boundary, plus the counters producers
        keep where their writes are already serialized: each stream's
        basket (``overflow_*``), each receptor (``ingest_*``) and the
        durability manager (``journal_*``, ``checkpoint*``).
        ``engine.profiler.counter("overflow_shed")`` is the number the
        acceptance tests and docs/OPERATIONS.md quote.  Read-only: count
        into ``scheduler.profiler`` on the firing thread instead.
        """
        with self.scheduler.scan_boundary():
            profile = Profiler()
            profile.merge_from(self.scheduler.profiler)
        for name, value in self._producer_counters().items():
            if value:
                profile.count(name, value)
        return profile

    def _producer_counters(self) -> Counter:
        """Counters written outside the firing thread, summed now."""
        totals: Counter = Counter()
        for log in self._logs.values():
            stats = log.overflow_stats()
            totals[COUNTER_SHED] += stats["shed"]
            totals[COUNTER_BLOCK_WAITS] += stats["block_waits"]
            totals[COUNTER_BLOCK_TIMEOUTS] += stats["block_timeouts"]
        for receptor in self._receptors:
            # dict(): one atomic copy of a dict the receptor thread writes.
            totals.update(dict(receptor.profiler.counters))
        if self._dur is not None:
            totals.update(self._dur.counters())
        return totals

    def _meta(self) -> dict:
        """The constructor shape a restore must reproduce."""
        return {
            "format": DATA_FORMAT,
            "partitions": self.partitions,
            "fragment_sharing": self.fragment_sharing,
            "observability": self.obs is not None,
            "verify_plans": self.verify_plans,
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
        every query over the stream runs replicated across the partition
        engines (DESIGN.md §14).  With ``partitions=1`` the declaration is
        accepted and the stream is an ordinary one — the fallback is
        exact, results never differ.  Float keys are
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
                name, columns, capacity, overflow, partition_by, restoring=False
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
        restoring: bool,
    ) -> Schema:
        """Shared by :meth:`create_stream` and the snapshot-restore path
        (which leaves the partitions alone — they restore themselves)."""
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
            if not restoring:
                for part in self._shards.parts:
                    part.create_stream(
                        name, worker_schema(schema), capacity, overflow
                    )
        return schema

    def _drop_stream(self, name: str) -> None:
        """Forget a stream no query reads any more (a partition's private
        stream, once its query is removed).  Not journaled: partition
        engines keep no journal.  Its shared fragments go with it."""
        self.catalog.drop_stream(name)
        del self._logs[name], self._stream_fed[name], self._stream_limits[name]
        self.fragment_cache.forget(name)

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
        """Register one query.  Only a submit that registers counts
        towards auto-names: journal replay sees only those, so a restored
        engine hands out the same next name as the live one did."""
        if mode not in ("incremental", "reeval"):
            raise ReproError(f"unknown mode {mode!r}")
        handle = self._register(sql, mode, name or self._auto_name())
        self._query_counter += 1
        return handle

    def _auto_name(self) -> str:
        """``q<n>``: the first n past the registered-submit count that no
        live query (named explicitly, perhaps) already uses."""
        n = self._query_counter + 1
        while f"q{n}" in self._queries or f"q{n}" in self._pqueries:
            n += 1
        return f"q{n}"

    def _register(self, sql: str, mode: str, query_name: str):
        stream = self._partitioned_stream(sql)
        if stream is not None:
            return self._partitioned_query(sql, mode, query_name, stream, submit=True)
        compiled = compile_query(
            sql,
            self.catalog,
            mode,
            self._stream_limits,
            verify=self.verify_plans,
            subject=query_name,
        )
        plan = compiled.plan
        streams: dict[str, str] = {}  # alias -> relation
        tables: dict[str, Table] = {}
        for scan in find_scans(compiled.planned.plan):
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
            factory = IncrementalFactory(plan, baskets, tables, name=query_name)
            if self.fragment_sharing and plan.fragment is not None:
                self._enable_sharing(factory, plan)
            emitter = CollectingEmitter()
            self.scheduler.register(factory, emitter)
        except BaseException:
            for cursor in baskets.values():
                cursor.close()
            raise
        handle = ContinuousQuery(
            query_name, sql, mode, factory, emitter, baskets, compiled.resources
        )
        self._queries[query_name] = handle
        self._submit_order.append(query_name)
        return handle

    def _partitioned_stream(self, sql: str) -> Optional[str]:
        """The ``PARTITION BY`` stream ``sql`` reads, when sharding is on."""
        if self._shards is None or not self._partitioned:
            return None
        try:
            tables = parse(sql).tables
        except ReproError:
            return None  # let the ordinary path raise the parse error
        return next((t.name for t in tables if t.name in self._partitioned), None)

    def _partitioned_query(
        self, sql: str, mode: str, name: str, stream: str, submit: bool
    ) -> PartitionedQuery:
        """Register the coordinator-side handle of one query over a
        partitioned stream (DESIGN.md §14).

        The coordinator classifies the query (concat / merge-sort /
        re-aggregate) and renders per-partition SQL against each
        partition's private stream.  On ``submit`` it statically verifies
        the partition plan (partition engines run verify off, so they never
        see a plan the P=1 engine would have rejected), replicates the
        query to the partitions and verifies the synthesized merge program;
        on restore the partitions already hold the query and only report
        its per-partition schema.  The output and partial schemas are
        derived here both times.
        """
        state = self._partitioned[stream]
        schema = self.catalog.schema_of(stream)
        plan = plan_partition_query(sql, schema, state.spec)
        if submit:
            if self.verify_plans:
                compile_query(
                    plan.partition_sql("__scratch"),
                    scratch_catalog(schema, "__scratch"),
                    mode,
                    verify=True,
                )
            anchor = None
            if plan.flavor == "virtual":
                # Late submits: the virtual clock already advanced to the
                # stream's fed count; anchoring at it (not 0) keeps the
                # first window from closing on historical watermarks.
                anchor = self._stream_fed[stream] * VIRTUAL_TICK_US
            part_sql = plan.partition_sql(f"__shard_{name}")
            schemas = [
                part.submit(name, stream, part_sql, mode, plan.flavor, anchor)
                for part in self._shards.parts
            ]
            out_names, out_atoms = schemas[0]
        else:
            out_names, out_atoms = self._shards.parts[0].output_schema(name)
        partials = list(zip(out_names, out_atoms))
        finish_merge(plan, partials, verify=submit)
        if plan.merge is None:
            # Hidden concat-sort helpers ship with every emission but are
            # dropped after the coordinator's ordering pass.
            hidden = set(plan.concat_hidden)
            visible = [(n, a) for n, a in partials if n not in hidden]
        else:
            compiled = plan.merge.compiled
            atom_of = dict(zip(compiled.output_names, compiled.output_atoms))
            visible = [(n, atom_of[n]) for n in plan.merge.visible]
            partials = []
        handle = PartitionedQuery(
            name=name,
            sql=sql,
            mode=mode,
            plan=plan,
            output_names=[n for n, __ in visible],
            output_atoms=[a for __, a in visible],
            partitions=self.partitions,
            partial_names=[n for n, __ in partials],
            partial_atoms=[a for __, a in partials],
        )
        if plan.flavor == "time":
            state.pending_anchor.add(name)
        self._pqueries[name] = handle
        self._submit_order.append(name)
        return handle

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

    def merge_stats(self) -> dict[str, dict]:
        """Per-query merge gauge of single-stream incremental queries.

        ``merge_cover_len`` is the number of partials the last firing
        merged: the window's basic-window count ``n`` for a flat merge,
        and for a running table the ones its last update folded
        (DESIGN.md §17; surfaced in :meth:`metrics` under ``"merge"`` and
        as the ``repro_merge_cover_len`` Prometheus family).
        """
        stats: dict[str, dict] = {}
        for name, handle in self._queries.items():
            per = handle.factory.merge_stats()
            if per is not None:
                stats[name] = per
        return stats

    def reset_landmark(self, name: str) -> None:
        """Restart a landmark query's window from *now* (journaled).

        Discards the query's accumulated landmark state and re-anchors
        the window at the next unconsumed tuple.  The reset is written to
        the journal **before** this returns, so a crash after a reset can
        never resurrect the pre-reset partials and re-emit stale windows
        on recovery.

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
            for part in self._shards.parts:
                part.remove(name)
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
        counted on the basket (and read through the engine profiler), not
        in the return value.  This is the one write-ahead point for stream
        input: receptors feed through it too.
        """
        if stream not in self._logs:
            raise CatalogError(f"unknown stream {stream!r}")
        if (rows is None) == (columns is None):
            raise ReproError("feed needs exactly one of rows= or columns=")
        # Write-ahead: the record lands before the basket admits a tuple,
        # so replay re-offers the batch through the restored overflow
        # policy (RNG state included) and reproduces its decision.  What
        # is journaled is exactly what is admitted or routed.  The batch
        # is checked under the journal lock, so batches are journaled in
        # the order their timestamps were checked in.
        with self._dur_guard():
            typed, count, ts = self._typed_batch(stream, rows, columns, timestamps)
            if self._dur is not None:
                record: dict = {"stream": stream, "columns": typed}
                if ts is not None:
                    record["timestamps"] = ts
                self._dur.journal("feed", record)
            if stream in self._partitioned:
                return self._feed_partitioned(stream, typed, count, ts)
            return self._append(stream, typed, count, ts)

    def _typed_batch(
        self,
        stream: str,
        rows: Optional[Iterable[Sequence]],
        columns: Optional[Mapping[str, Sequence | np.ndarray]],
        timestamps: Optional[Sequence[int] | np.ndarray],
    ) -> tuple[dict[str, np.ndarray], int, Optional[np.ndarray]]:
        """One feed batch as ``({column: typed array}, tuple count,
        timestamps)``, checked against ``stream``'s schema — row arity,
        exactly the schema's columns, equal column lengths and one
        timestamp per tuple — and typed by :func:`typed_values`.
        Explicit timestamps must not decrease, within the batch or
        against the stream (:meth:`Basket.admit_times`).  The check
        changes nothing: the append checks again as it admits the batch,
        and only an admitted batch moves the stream's time frontier, so a
        batch the overflow policy rejects can be retried.

        Every feed takes this path, so a stream admits the same typed
        values whether it is plain, partitioned or durable.  It runs before
        a batch is journaled or routed, so a batch the basket would reject
        never reaches the journal (where replay would raise it again and
        the data dir could not be restored).
        """
        schema = self.catalog.schema_of(stream)
        names = schema.names
        if rows is not None:
            rows = list(rows)
            for row in rows:
                if len(row) != len(names):
                    raise BasketError(
                        f"row arity {len(row)} != schema arity {len(names)}"
                    )
            cols: Mapping[str, Sequence | np.ndarray] = {
                name: [row[i] for row in rows] for i, name in enumerate(names)
            }
            count = len(rows)
        else:
            assert columns is not None
            if set(columns) != set(names):
                raise BasketError(f"feed needs exactly columns {sorted(names)}")
            lengths = {len(values) for values in columns.values()}
            if len(lengths) > 1:
                raise BasketError(f"ragged column feed on {stream!r}")
            cols = columns
            count = lengths.pop() if lengths else 0
        if timestamps is not None and len(timestamps) != count:
            raise BasketError("timestamp column length mismatch")
        typed = {name: typed_values(cols[name], atom) for name, atom in schema.columns}
        ts = None
        if timestamps is not None:
            ts = np.asarray(timestamps, dtype=np.int64)
            self._logs[stream].admit_times(ts)
        return typed, count, ts

    def _append(
        self,
        stream: str,
        typed: dict[str, np.ndarray],
        count: int,
        timestamps: Optional[np.ndarray],
    ) -> int:
        """Admit one typed batch into an unpartitioned stream's basket."""
        log = self._logs[stream]
        log.append_columns(typed, timestamps)
        if not log.readers:
            # Nobody reads the stream: keep nothing, but the arrival
            # offset still moves, so later cursors start on the same axis.
            log.delete_head(len(log))
        self._stream_fed[stream] += count
        return count

    def _feed_partitioned(
        self,
        stream: str,
        typed: dict[str, np.ndarray],
        count: int,
        timestamps: Optional[np.ndarray],
    ) -> int:
        """Hash-route one typed batch to the partitions.

        Each tuple additionally carries its global arrival offset
        (``__seq``) — the partitions' virtual clock and the merge layer's
        tie-breaker.  Missing timestamps default to the arrival offset,
        exactly the per-basket logical clock the P=1 path would assign.
        Overflow on bounded partitioned streams is enforced per partition.
        A partition that rejects its share (a ``Fail`` policy's
        :class:`~repro.errors.BasketOverflowError`) does not stop the
        others: every partition is offered its share, the routed counts
        and the stream's arrival offset advance by the whole batch, and
        only then is the first partition's error raised.
        """
        state = self._partitioned[stream]
        base = self._stream_fed[stream]
        seq = np.arange(base, base + count, dtype=np.int64)
        ts = timestamps if timestamps is not None else seq
        if count and state.pending_anchor:
            # First arrival after a real-time query's submit anchors its
            # window origin in every partition, before this batch lands.
            origin = int(ts[0])
            for qname in sorted(state.pending_anchor):
                for part in self._shards.parts:
                    part.anchor(qname, origin)
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
        error: Optional[ReproError] = None
        for p, idx in enumerate(routes):
            share = {name: values[idx] for name, values in typed.items()}
            share[SEQ_COLUMN] = seq[idx]
            share[TS_COLUMN] = ts[idx]
            try:
                self._shards.feed_partition(
                    p, stream, share, watermark, ts_watermark
                )
            except ReproError as exc:  # raised once every partition is fed
                error = error or exc
            state.routed[p] += len(idx)
        self._stream_fed[stream] += count
        if error is not None:
            raise error
        if timestamps is not None:
            self._logs[stream].note_times(timestamps)
        return count

    def advance_time(self, stream: str, ts: int) -> None:
        """Advance the time watermark of ``stream``'s basket.

        A punctuation: promises no tuple with arrival timestamp < ``ts``
        will arrive, so time-based windows can close during silence.
        """
        if stream not in self._logs:
            raise CatalogError(f"unknown stream {stream!r}")
        with self._dur_guard():
            # A partitioned stream's own basket holds no tuple; its
            # watermark is the bound later batches are checked against.
            self._logs[stream].advance_watermark(ts)
            if stream in self._partitioned:
                # Real-time queries only; the virtual (count) axis advances
                # with the fed count and ignores user punctuations.
                for part in self._shards.parts:
                    part.advance(stream, int(ts))
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
        receptor = Receptor(_StreamFeed(self, stream), max_retries=3)
        self._receptors.append(receptor)
        return receptor

    def run_until_idle(self) -> int:
        """Fire all ready factories until quiescence; returns firings.

        With partitions this also pumps them: each partition engine runs
        its own scheduler to quiescence, in partition order, emitted
        windows are collected, and every window all partitions have
        reported is merged here, in window order.
        """
        fired = self.scheduler.run_until_idle()
        if self._shards is not None:
            with self._shard_pump_lock:
                fired += self._shards.run()
                collected = self._shards.collect()
                # The merge writes the scheduler's profiler: run it between
                # scans, so one thread at a time writes it.
                with self.scheduler.quiesced():
                    for p, batches in enumerate(collected):
                        for qname, window_index, resp, cols in batches:
                            handle = self._pqueries.get(qname)
                            if handle is not None:
                                handle.offer(p, window_index, resp, cols)
                    for handle in self._pqueries.values():
                        handle.drain(self._interp, self.scheduler.profiler)
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
                "background mode does not pump partitions; drive "
                "partitioned queries with run_until_idle()"
            )
        self.scheduler.start(poll_interval=poll_interval)

    def stop(self, drain: bool = True) -> None:
        self.scheduler.stop(drain=drain)

    def close(self) -> None:
        """Stop background work and release everything the engine holds."""
        self.scheduler.stop(drain=False)
        if self._dur is not None:
            self._dur.close()

    # ------------------------------------------------------------------
    # durability: checkpoint / restore (DESIGN.md §15)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Write one consistent snapshot and rotate the journal.

        Holds the journal lock (no new commands commit) and quiesces the
        scheduler (no factory is mid-firing), gathers the full engine
        state — baskets, factory partials, emitters, scheduler step
        counters, fragment cache, partitions — and commits it through
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
        defense in depth (``recovery_suppressed`` counter).  A dir whose
        meta is not in :data:`~repro.core.durability.DATA_FORMAT` is
        refused with :class:`DurabilityError` before anything is applied.
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
        found = meta.get("format")
        if found != DATA_FORMAT:
            written = "no format number" if found is None else f"format {found!r}"
            raise DurabilityError(
                f"data dir {data_dir!r} has {written}; this engine restores "
                f"format {DATA_FORMAT} only (start a fresh data dir and feed "
                "the inputs again)"
            )
        engine = cls(
            verify_plans=meta["verify_plans"],
            fragment_sharing=meta["fragment_sharing"],
            observability=meta["observability"],
            partitions=meta["partitions"],
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
                engine.scheduler.profiler.count(COUNTER_REPLAYED_RECORDS, replayed)
        dur.resume(last_seq)
        return engine

    def _adopt_durability(self, dur: DurabilityManager) -> None:
        """Bind a loaded manager to this engine (restore path)."""
        self._dur = dur

    def abandon(self) -> None:
        """Die without cleanup — the crash-test path.

        No drain, no checkpoint: the journal fd is closed (every append
        already fsynced itself), and whatever was in memory — the
        partitions' state too — is lost, exactly what :meth:`restore`
        must recover from.
        """
        try:
            self.scheduler.stop(drain=False)
        except Exception:  # noqa: BLE001 - crash path: state is forfeit
            pass
        if self._dur is not None:
            self._dur.close()

    def durability_stats(self) -> dict:
        """Journal/checkpoint gauges; ``{}`` when durability is off."""
        if self._dur is None:
            return {}
        return self._dur.stats()

    def install_fault_hook(self, hook) -> None:
        """Test seam: called at every durability HOOK_* point.

        The crash-recovery tests install a
        :class:`~repro.testing.faults.CrashPoint` here to simulate the
        process dying mid-append or mid-checkpoint (the hook raises;
        the test abandons the engine and restores the data dir).
        """
        if self._dur is None:
            raise ReproError("install_fault_hook needs a durable engine")
        self._dur.fault_hook = hook

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
                    "emitter": h.emitter.snapshot_state(),
                }
                for name, h in self._pqueries.items()
            },
        }
        if self._shards is not None:
            state["shards"] = [part.snapshot_state() for part in self._shards.parts]
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
                restoring=True,
            )
        self._stream_fed.update(state["stream_fed"])
        for name, lstate in state["logs"].items():
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
        # Partitions restore before queries: the coordinator-side rebuild
        # of partitioned handles asks them for the per-partition output
        # schema, and replayed journal feeds must land on restored state.
        if self._shards is not None and "shards" in state:
            for part, pstate in zip(self._shards.parts, state["shards"]):
                part.restore_state(pstate)
        for entry in state["queries"]:
            if entry["partitioned"]:
                self._restore_partitioned_query(
                    entry, state["pqueries"][entry["name"]]
                )
            else:
                self._submit_impl(entry["sql"], entry["mode"], entry["name"])
        self._query_counter = state["query_counter"]
        for qname, qstate in state["query_states"].items():
            handle = self._queries[qname]
            handle.factory.restore_state(qstate["factory"])
            for alias, position in qstate["cursors"].items():
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
        (already restored) partitions, then adopt its merge state."""
        sql = entry["sql"]
        stream = self._partitioned_stream(sql)
        assert stream is not None
        handle = self._partitioned_query(
            sql, entry["mode"], entry["name"], stream, submit=False
        )
        handle.next_window = pstate["next_window"]
        handle.progress = [int(x) for x in pstate["progress"]]
        handle.pending = {
            int(window): {
                int(p): (resp, cols) for p, resp, cols in parts
            }
            for window, parts in pstate["pending"]
        }
        handle.emitter.restore_state(pstate["emitter"])

    def _dedup_wrapper(self, watermark: int):
        """Sink filter dropping windows the snapshot already emitted."""

        def wrap(sink):
            def dedup(name: str, batch: ResultBatch) -> None:
                if batch.window_index <= watermark:
                    self.scheduler.profiler.count(COUNTER_RECOVERY_SUPPRESSED)
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
            else:
                raise DurabilityError(f"unknown journal record kind {kind!r}")
        except BasketOverflowError:
            # The live run continued past this overflow too (it admitted
            # nothing, or what the policy kept before raising).
            pass

    def partition_stats(self) -> dict:
        """Partition-execution gauges; ``{}`` unless sharding is active.

        Per stream: tuples ``routed`` to each partition and the relative
        ``skew`` ``(max - min) / max``.  Per query: the merge ``route``,
        timestamp ``flavor``, merged ``windows``, and ``lag`` — the
        window-progress spread across partitions (0 = lockstep).
        ``workers`` holds each partition engine's profiler counters plus
        its ``parked`` basket occupancy.  Surfaces in :meth:`metrics` under
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
                "windows": handle.emitter.total_batches,
                "lag": handle.lag(),
            }
            for name, handle in self._pqueries.items()
        }
        return {
            "partitions": self.partitions,
            "streams": streams,
            "queries": queries,
            "workers": [part.stats() for part in self._shards.parts],
        }

    # ------------------------------------------------------------------
    # one-time queries & introspection
    # ------------------------------------------------------------------
    def query_once(self, sql: str) -> dict[str, list]:
        """Run a one-time query over base tables, returning named columns."""
        planned = plan_sql(sql, self.catalog)
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
        return pretty_plan(plan_sql(sql, self.catalog).plan)

    def explain_continuous(self, sql: str) -> str:
        """The rewritten incremental programs, as text."""
        return compile_query(sql, self.catalog).plan.describe()
