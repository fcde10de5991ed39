"""Key-partitioned stream planning: routing, replication, merge synthesis.

A stream declared with ``partition_by=key`` is hash-partitioned into ``P``
disjoint sub-streams, each owned by one partition engine
(:mod:`repro.core.shard`).  Every query submitted over the stream is
*replicated*: each partition runs its own factory over its sub-stream, and
the coordinating engine combines the per-partition emissions.  This module
is the pure planning half — no engines — so the whole taxonomy is
unit-testable in isolation (DESIGN.md §14):

* **routing** — a deterministic splitmix/FNV hash of the key column maps
  every arriving tuple to its partition;
* **window alignment** — count-based windows are rewritten to time-based
  windows over a *virtual* time axis (1 ms per global arrival offset), so
  all partitions slice tuple counts identically and emit one batch per
  global window index even when a partition's slice is empty;
* **merge-free vs merge-required** — plans whose groups are functionally
  tied to the partition key concatenate; plans spanning partitions
  (global aggregates, other group keys, ORDER BY, LIMIT, DISTINCT) get a
  synthesized merge query over a ``__partials`` relation, compiled once
  at submit time and statically verified by the plan verifier.

The hidden ``__seq`` column (the tuple's global arrival offset) is fed to
every partition and used as the ORDER BY tie-break, so partitioned ORDER
BY / LIMIT results are *row-identical* to the P=1 engine, not merely
multiset-equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import ReproError, UnsupportedQueryError
from repro.kernel.atoms import Atom, numpy_dtype
from repro.kernel.bat import BAT
from repro.kernel.storage import Catalog, Schema
from repro.sql.ast import (
    BinOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    TableRef,
    UnaryOp,
    WindowClause,
    contains_aggregate,
    walk,
)
from repro.sql.parser import parse
from repro.sql.unparse import unparse

#: Hidden per-tuple column carrying the global arrival offset.
SEQ_COLUMN = "__seq"
#: Relation name the synthesized merge query reads collected partials from.
PARTIALS_RELATION = "__partials"
#: Microseconds per global arrival offset on the virtual time axis.
VIRTUAL_TICK_US = 1_000

#: Atoms a partition key may have (float keys are an equality footgun).
_KEY_ATOMS = frozenset({Atom.INT, Atom.OID, Atom.TIMESTAMP, Atom.STR, Atom.BIT})


@dataclass(frozen=True)
class PartitionSpec:
    """One stream's partitioning declaration."""

    stream: str
    key: str
    partitions: int


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _fnv1a(text: str) -> int:
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8", "surrogatepass"):
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def partition_hash(values: np.ndarray, atom: Atom, partitions: int) -> np.ndarray:
    """Deterministic partition id per value (int64 array in ``[0, P)``).

    Integers go through a splitmix64 finalizer (vectorized, stable across
    processes and runs); strings through FNV-1a.  Never uses Python's
    randomized ``hash()`` — reproducers must route identically forever.
    """
    if atom == Atom.STR:
        hashed = np.fromiter(
            (_fnv1a(v) for v in values), dtype=np.uint64, count=len(values)
        )
    else:
        hashed = np.asarray(values).astype(np.int64, copy=False).view(np.uint64)
        hashed = (hashed + _SPLITMIX_GAMMA) & np.uint64(0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        hashed = (hashed ^ (hashed >> np.uint64(30))) * _MIX_1
        hashed = (hashed ^ (hashed >> np.uint64(27))) * _MIX_2
        hashed = hashed ^ (hashed >> np.uint64(31))
    return (hashed % np.uint64(partitions)).astype(np.int64)


def route_columns(
    columns: dict[str, np.ndarray],
    key: str,
    key_atom: Atom,
    partitions: int,
) -> list[np.ndarray]:
    """Row indices per partition for one arriving batch (stable order)."""
    ids = partition_hash(np.asarray(columns[key]), key_atom, partitions)
    return [np.flatnonzero(ids == p) for p in range(partitions)]


# ----------------------------------------------------------------------
# scratch catalogs
# ----------------------------------------------------------------------
def worker_schema(schema: Schema) -> list[tuple[str, Atom]]:
    """The per-partition stream schema: user columns plus ``__seq``."""
    columns = list(schema.columns)
    return columns + [(SEQ_COLUMN, Atom.INT)]


def scratch_catalog(schema: Schema, stream: str) -> Catalog:
    """A throwaway catalog for planning per-partition SQL at submit time."""
    catalog = Catalog()
    catalog.create_stream(stream, Schema(tuple(worker_schema(schema))))
    return catalog


# ----------------------------------------------------------------------
# expression helpers
# ----------------------------------------------------------------------
def _is_key_ref(expr: Expr, alias: str, key: str) -> bool:
    return (
        isinstance(expr, ColumnRef)
        and expr.name == key
        and expr.table in (None, alias)
    )


def _rebuild(expr: Expr, transform: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rebuild; ``transform`` may replace any subtree."""
    replaced = transform(expr)
    if replaced is not None:
        return replaced
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _rebuild(expr.left, transform), _rebuild(expr.right, transform))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rebuild(expr.operand, transform))
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            tuple(_rebuild(a, transform) for a in expr.args),
            expr.star,
        )
    return expr


def _aggregate_calls(exprs: list[Expr]) -> list[FuncCall]:
    """Unique aggregate calls across ``exprs``, in first-seen order."""
    seen: dict[FuncCall, None] = {}
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, FuncCall) and node.is_aggregate:
                seen.setdefault(node, None)
    return list(seen)


# ----------------------------------------------------------------------
# the shard plan
# ----------------------------------------------------------------------
@dataclass
class MergeSpec:
    """The synthesized final-merge query over collected partials.

    ``partials`` is the exact (name, atom) schema every partition's
    emission carries; ``visible`` the user-facing output names (hidden
    ``__ord*``/``__seq``/``__pn`` columns are dropped after execution).
    """

    query: Query
    visible: list[str]
    partials: list[tuple[str, Atom]] = field(default_factory=list)
    compiled: Optional[object] = None  # CompiledQuery, set by finish_merge
    #: Global re-aggregation only: the hidden per-partition row counter
    #: the merge filters on (``WHERE __pn > 0``).  When *every* partition
    #: reports an empty slice, the collector promotes exactly one of the
    #: empty rows through the filter — its sentinel partials (sum=NULL,
    #: count=0) then reproduce the P=1 engine's empty-window aggregates
    #: bit-for-bit instead of aggregating over zero rows.
    pn_column: Optional[str] = None


@dataclass
class ShardPlan:
    """Everything needed to run one submitted SQL query sharded."""

    spec: PartitionSpec
    alias: str
    #: "virtual" — count windows on the offset×1ms axis (watermark driven
    #: by the global fed count); "time" — real user timestamps.
    flavor: str
    #: Per-partition query; FROM still names the parent stream (the
    #: engine substitutes each partition's private stream name at render).
    partition_query: Query
    merge: Optional[MergeSpec]
    #: Taxonomy label for explain/metrics: "concat" | "merge-sort" |
    #: "re-aggregate".
    route: str
    #: True when the per-partition plan scans the hidden __seq column.
    uses_seq: bool
    #: Concat route only: columns the coordinator sorts the concatenated
    #: rows by (ascending, in priority order) so row order matches the
    #: P=1 engine — group keys for grouped output, every output column
    #: for DISTINCT, the hidden __seq arrival offset for plain rows.
    #: Keys are all-unique per window, so no tie-break is needed.
    concat_sort: tuple[str, ...] = ()
    #: Concat-sort helper columns the partition query ships but the user
    #: never sees (dropped after the sort).
    concat_hidden: tuple[str, ...] = ()

    def partition_sql(self, relation: str) -> str:
        """Render the per-partition SQL with the partition's stream name."""
        query = self.partition_query
        table = query.tables[0]
        renamed = Query(
            select_items=query.select_items,
            tables=[TableRef(relation, table.alias, table.window)],
            where=query.where,
            group_by=query.group_by,
            having=query.having,
            order_by=query.order_by,
            limit=query.limit,
            distinct=query.distinct,
        )
        return unparse(renamed)

    def merge_sql(self) -> Optional[str]:
        return unparse(self.merge.query) if self.merge is not None else None


def plan_partition_query(sql: str, schema: Schema, spec: PartitionSpec) -> ShardPlan:
    """Classify + rewrite one submitted query for sharded execution.

    Raises :class:`UnsupportedQueryError` for shapes that cannot be
    merged back faithfully (joins, DISTINCT+LIMIT, DISTINCT with
    non-output ORDER BY keys).  Landmark windows partition fine — their
    cumulative per-partition slices merge window-for-window through the
    same concat / re-aggregate routes as sliding windows (see
    :func:`_aligned_window`).
    """
    query = parse(sql)
    if len(query.tables) != 1:
        raise UnsupportedQueryError(
            "joins are not supported on partitioned streams "
            "(partition the probe side manually or run unpartitioned)"
        )
    table = query.tables[0]
    if table.name != spec.stream:
        raise ReproError(
            f"partition plan for {spec.stream!r} got query over {table.name!r}"
        )
    if table.window is None:
        raise UnsupportedQueryError("continuous queries need a window clause")
    if query.distinct and query.limit is not None:
        raise UnsupportedQueryError(
            "DISTINCT with LIMIT is not supported on partitioned streams"
        )
    alias = table.alias
    window, flavor = _aligned_window(table.window)
    schema_cols = dict(schema.columns)
    if spec.key not in schema_cols:
        raise ReproError(f"partition key {spec.key!r} not in stream schema")

    has_aggregate = bool(query.group_by) or any(
        contains_aggregate(item.expr) for item in query.select_items
    )
    builder = _PlanBuilder(query, alias, spec, window, flavor)
    if not has_aggregate:
        return builder.row_route()
    if query.group_by and any(
        _is_key_ref(g, alias, spec.key) for g in query.group_by
    ):
        return builder.merge_free_grouped()
    return builder.re_aggregate()


def _aligned_window(clause: WindowClause) -> tuple[WindowClause, str]:
    """The cross-partition-aligned window and its timestamp flavor.

    Landmark windows partition like any other: each partition accumulates
    its routed subset's cumulative partials, and because every
    partition's window boundaries sit on the same (virtual or real)
    time axis, the coordinator's per-window concat / re-aggregate merge
    sees aligned, mergeable landmark slices — the per-partition state
    need not be re-merged *incrementally*, only per emitted window.
    """
    if clause.time_based:
        return clause, "time"
    if clause.kind == "landmark":
        # Count-based landmark: no size, only the slide moves onto the
        # virtual arrival-sequence axis.
        return (
            WindowClause(
                "landmark", None, clause.step * VIRTUAL_TICK_US, time_based=True
            ),
            "virtual",
        )
    assert clause.size is not None
    return (
        WindowClause(
            clause.kind,
            clause.size * VIRTUAL_TICK_US,
            clause.step * VIRTUAL_TICK_US,
            time_based=True,
        ),
        "virtual",
    )


class _PlanBuilder:
    """Builds the per-partition query + merge query for one route."""

    def __init__(
        self,
        query: Query,
        alias: str,
        spec: PartitionSpec,
        window: WindowClause,
        flavor: str,
    ) -> None:
        self.q = query
        self.alias = alias
        self.spec = spec
        self.window = window
        self.flavor = flavor
        self.uses_seq = False
        self.output_names = [
            item.output_name(i) for i, item in enumerate(query.select_items)
        ]

    def _table(self) -> TableRef:
        return TableRef(self.spec.stream, self.alias, self.window)

    def _seq_ref(self) -> ColumnRef:
        self.uses_seq = True
        return ColumnRef(None, SEQ_COLUMN)

    def _plan(
        self,
        partition_query: Query,
        merge: Optional[MergeSpec],
        route: str,
        concat_sort: tuple[str, ...] = (),
        concat_hidden: tuple[str, ...] = (),
    ) -> ShardPlan:
        return ShardPlan(
            spec=self.spec,
            alias=self.alias,
            flavor=self.flavor,
            partition_query=partition_query,
            merge=merge,
            route=route,
            uses_seq=self.uses_seq,
            concat_sort=concat_sort,
            concat_hidden=concat_hidden,
        )

    # -- non-aggregate rows ---------------------------------------------
    def row_route(self) -> ShardPlan:
        q = self.q
        if q.distinct:
            return self._row_distinct()
        if not q.order_by and q.limit is None:
            # Ship the arrival offset so the coordinator can restore the
            # P=1 engine's row order (global arrival order) after concat.
            partition = Query(
                select_items=list(q.select_items)
                + [SelectItem(self._seq_ref(), alias=SEQ_COLUMN)],
                tables=[self._table()],
                where=q.where,
            )
            return self._plan(
                partition,
                None,
                "concat",
                concat_sort=(SEQ_COLUMN,),
                concat_hidden=(SEQ_COLUMN,),
            )
        # ORDER BY / LIMIT: ship the user outputs plus hidden sort keys
        # (any non-output ORDER BY expressions and the __seq arrival
        # offset); each partition pre-sorts and pre-limits — the global
        # top-k is a subset of the union of per-partition top-k — and the
        # merge re-sorts with the same keys for exact P=1 row identity.
        items = [
            SelectItem(item.expr, alias=self.output_names[i])
            for i, item in enumerate(q.select_items)
        ]
        order_items: list[OrderItem] = []
        for index, order in enumerate(q.order_by):
            name = self._output_name_for(order.expr)
            if name is None:
                name = f"__ord{index}"
                items.append(SelectItem(order.expr, alias=name))
            order_items.append(OrderItem(ColumnRef(None, name), order.descending))
        items.append(SelectItem(self._seq_ref(), alias=SEQ_COLUMN))
        order_items.append(OrderItem(ColumnRef(None, SEQ_COLUMN), False))
        partition = Query(
            select_items=items,
            tables=[self._table()],
            where=q.where,
            order_by=list(order_items) if q.limit is not None else [],
            limit=q.limit,
        )
        merge_query = Query(
            select_items=[
                SelectItem(ColumnRef(None, item.alias or ""), alias=item.alias)
                for item in items
            ],
            tables=[TableRef(PARTIALS_RELATION, PARTIALS_RELATION, None)],
            order_by=order_items,
            limit=q.limit,
        )
        return self._plan(
            partition,
            MergeSpec(merge_query, visible=list(self.output_names)),
            "merge-sort",
        )

    def _row_distinct(self) -> ShardPlan:
        q = self.q
        key_in_output = any(
            _is_key_ref(item.expr, self.alias, self.spec.key)
            for item in q.select_items
        )
        items = [
            SelectItem(item.expr, alias=self.output_names[i])
            for i, item in enumerate(q.select_items)
        ]
        partition = Query(
            select_items=items,
            tables=[self._table()],
            where=q.where,
            distinct=True,
        )
        if key_in_output and not q.order_by:
            # Identical output rows carry identical keys, so duplicates
            # can never straddle partitions: per-partition DISTINCT is
            # globally complete and concat suffices.  The P=1 engine
            # emits distinct rows in ascending column order; the
            # coordinator restores it after concat (rows are unique).
            return self._plan(
                partition,
                None,
                "concat",
                concat_sort=tuple(self.output_names),
            )
        order_items = []
        for order in q.order_by:
            name = self._output_name_for(order.expr)
            if name is None:
                raise UnsupportedQueryError(
                    "DISTINCT with non-output ORDER BY keys is not "
                    "supported on partitioned streams"
                )
            order_items.append(OrderItem(ColumnRef(None, name), order.descending))
        merge_query = Query(
            select_items=[
                SelectItem(ColumnRef(None, name), alias=name)
                for name in self.output_names
            ],
            tables=[TableRef(PARTIALS_RELATION, PARTIALS_RELATION, None)],
            order_by=order_items,
            distinct=not key_in_output,
        )
        return self._plan(
            partition,
            MergeSpec(merge_query, visible=list(self.output_names)),
            "merge-sort",
        )

    def _output_name_for(self, expr: Expr) -> Optional[str]:
        """The output column an ORDER BY expr refers to, if any."""
        for index, item in enumerate(self.q.select_items):
            name = self.output_names[index]
            if expr == item.expr:
                return name
            if isinstance(expr, ColumnRef) and expr.table is None and expr.name == name:
                return name
        return None

    # -- merge-free grouped ---------------------------------------------
    def merge_free_grouped(self) -> ShardPlan:
        """GROUP BY includes the partition key: groups never straddle
        partitions, so per-partition results (including HAVING and
        DISTINCT) are exact — only a global ORDER BY / LIMIT needs a
        merge pass over the concatenated group rows."""
        q = self.q
        aliased = [
            SelectItem(item.expr, alias=self.output_names[i])
            for i, item in enumerate(q.select_items)
        ]
        if q.distinct and not q.order_by and q.limit is None:
            key_in_output = any(
                _is_key_ref(item.expr, self.alias, self.spec.key)
                for item in q.select_items
            )
            partition = Query(
                select_items=aliased,
                tables=[self._table()],
                where=q.where,
                group_by=list(q.group_by),
                having=q.having,
                distinct=True,
            )
            if key_in_output:
                # Identical rows carry identical keys — duplicates never
                # straddle partitions; DISTINCT re-sorts output rows, so
                # the P=1 order is ascending by every output column.
                return self._plan(
                    partition,
                    None,
                    "concat",
                    concat_sort=tuple(self.output_names),
                )
            # Key not in the output: identical rows from different key
            # groups can land on different partitions, so the dedup must
            # re-run over the concatenated rows at the coordinator.
            merge_query = Query(
                select_items=[
                    SelectItem(ColumnRef(None, name), alias=name)
                    for name in self.output_names
                ],
                tables=[TableRef(PARTIALS_RELATION, PARTIALS_RELATION, None)],
                distinct=True,
            )
            return self._plan(
                partition,
                MergeSpec(merge_query, visible=list(self.output_names)),
                "merge-sort",
            )
        if not q.order_by and q.limit is None:
            # The P=1 engine emits groups in ascending group-key order;
            # ship any group key missing from the output as a hidden
            # column so the coordinator can restore that order after
            # concat (group keys are unique across partitions).
            items = list(aliased)
            sort_names: list[str] = []
            hidden: list[str] = []
            for index, key_expr in enumerate(q.group_by):
                name = self._output_name_for(key_expr)
                if name is None:
                    name = f"__gk{index}"
                    items.append(SelectItem(key_expr, alias=name))
                    hidden.append(name)
                sort_names.append(name)
            partition = Query(
                select_items=items,
                tables=[self._table()],
                where=q.where,
                group_by=list(q.group_by),
                having=q.having,
            )
            return self._plan(
                partition,
                None,
                "concat",
                concat_sort=tuple(sort_names),
                concat_hidden=tuple(hidden),
            )
        items = [
            SelectItem(item.expr, alias=self.output_names[i])
            for i, item in enumerate(q.select_items)
        ]
        order_items: list[OrderItem] = []
        hidden = 0
        for order in q.order_by:
            name = self._output_name_for(order.expr)
            if name is None:
                name = f"__ord{hidden}"
                hidden += 1
                items.append(SelectItem(order.expr, alias=name))
            order_items.append(OrderItem(ColumnRef(None, name), order.descending))
        # Tie-break (and the sort key for a bare LIMIT): the group's first
        # global arrival — exactly the P=1 engine's group emission order.
        items.append(
            SelectItem(
                FuncCall("min", (self._seq_ref(),)), alias="__ordfirst"
            )
        )
        order_items.append(OrderItem(ColumnRef(None, "__ordfirst"), False))
        partition = Query(
            select_items=items,
            tables=[self._table()],
            where=q.where,
            group_by=list(q.group_by),
            having=q.having,
            distinct=q.distinct,
        )
        merge_query = Query(
            select_items=[
                SelectItem(ColumnRef(None, item.alias or ""), alias=item.alias)
                for item in items
            ],
            tables=[TableRef(PARTIALS_RELATION, PARTIALS_RELATION, None)],
            order_by=order_items,
            limit=q.limit,
        )
        return self._plan(
            partition,
            MergeSpec(merge_query, visible=list(self.output_names)),
            "merge-sort",
        )

    # -- re-aggregation --------------------------------------------------
    def re_aggregate(self) -> ShardPlan:
        """Global aggregates or group keys that straddle partitions:
        partitions emit raw partial aggregates (avg split into sum+count,
        count re-merged by summing) plus the group keys, and the merge
        query re-aggregates over the collected ``__partials`` rows."""
        q = self.q
        grouped = bool(q.group_by)
        ordered = bool(q.order_by) or q.limit is not None

        sources: list[Expr] = [item.expr for item in q.select_items]
        if q.having is not None:
            sources.append(q.having)
        sources.extend(order.expr for order in q.order_by)
        calls = _aggregate_calls(sources)

        items: list[SelectItem] = []
        group_map: dict[Expr, ColumnRef] = {}
        for index, g in enumerate(q.group_by):
            name = f"__g{index}"
            items.append(SelectItem(g, alias=name))
            group_map[g] = ColumnRef(None, name)
        call_map: dict[FuncCall, Expr] = {}
        counter = 0
        for call in calls:
            if call.name == "avg":
                s_name, c_name = f"__a{counter}", f"__a{counter + 1}"
                counter += 2
                items.append(SelectItem(FuncCall("sum", call.args), alias=s_name))
                items.append(SelectItem(FuncCall("count", call.args), alias=c_name))
                call_map[call] = BinOp(
                    "/",
                    FuncCall("sum", (ColumnRef(None, s_name),)),
                    FuncCall("sum", (ColumnRef(None, c_name),)),
                )
                continue
            name = f"__a{counter}"
            counter += 1
            items.append(SelectItem(call, alias=name))
            ref = ColumnRef(None, name)
            if call.name in ("sum", "count"):
                # COUNT partials are *summed*, never re-counted — the
                # plan verifier's closure rule, applied one level up.
                call_map[call] = FuncCall("sum", (ref,))
            else:
                call_map[call] = FuncCall(call.name, (ref,))
        if grouped and ordered:
            items.append(
                SelectItem(FuncCall("min", (self._seq_ref(),)), alias="__first")
            )
        if not grouped:
            # A partition with an empty window slice still emits its one
            # global-aggregate row (None/0 partials); __pn lets the merge
            # drop those rows so empty slices cannot poison the merge.
            items.append(SelectItem(FuncCall("count", (), star=True), alias="__pn"))

        partition = Query(
            select_items=items,
            tables=[self._table()],
            where=q.where,
            group_by=list(q.group_by),
        )

        def substitute(expr: Expr) -> Expr:
            def transform(node: Expr) -> Optional[Expr]:
                if isinstance(node, FuncCall) and node in call_map:
                    return call_map[node]
                if node in group_map:
                    return group_map[node]
                return None

            rebuilt = _rebuild(expr, transform)
            for node in walk(rebuilt):
                if isinstance(node, ColumnRef) and not node.name.startswith("__"):
                    raise UnsupportedQueryError(
                        f"cannot re-aggregate across partitions: "
                        f"{node} is neither a group key nor inside an "
                        "aggregate"
                    )
            return rebuilt

        merge_items = [
            SelectItem(substitute(item.expr), alias=self.output_names[i])
            for i, item in enumerate(q.select_items)
        ]
        merge_group = [group_map[g] for g in q.group_by]
        merge_having = substitute(q.having) if q.having is not None else None
        merge_order: list[OrderItem] = []
        hidden = 0
        for order in q.order_by:
            name = self._output_name_for(order.expr)
            if name is None:
                name = f"__ord{hidden}"
                hidden += 1
                merge_items.append(SelectItem(substitute(order.expr), alias=name))
            merge_order.append(OrderItem(ColumnRef(None, name), order.descending))
        if grouped and ordered:
            merge_items.append(
                SelectItem(
                    FuncCall("min", (ColumnRef(None, "__first"),)),
                    alias="__ordfirst",
                )
            )
            merge_order.append(OrderItem(ColumnRef(None, "__ordfirst"), False))
        merge_where = None
        if not grouped:
            merge_where = BinOp(">", ColumnRef(None, "__pn"), Literal(0))
        merge_query = Query(
            select_items=merge_items,
            tables=[TableRef(PARTIALS_RELATION, PARTIALS_RELATION, None)],
            where=merge_where,
            group_by=merge_group,
            having=merge_having,
            order_by=merge_order,
            limit=q.limit,
        )
        merge = MergeSpec(
            merge_query,
            visible=list(self.output_names),
            pn_column=None if grouped else "__pn",
        )
        return self._plan(partition, merge, "re-aggregate")


# ----------------------------------------------------------------------
# merge compilation + execution (engine side)
# ----------------------------------------------------------------------
def finish_merge(
    plan: ShardPlan, partials: list[tuple[str, Atom]], verify: bool = True
) -> None:
    """Compile + statically verify the merge program over ``partials``.

    ``partials`` is the per-partition output schema (from compiling the
    partition query); the merge query's scan of ``__partials`` binds to
    it.  Compilation happens once per submit; execution per window.
    """
    if plan.merge is None:
        return
    from repro.analysis.plan_verifier import check_program
    from repro.sql.optimizer import optimize
    from repro.sql.physical import compile_full
    from repro.sql.planner import plan_query

    catalog = Catalog()
    catalog.create_table(PARTIALS_RELATION, Schema(tuple(partials)))
    planned = optimize(plan_query(unparse(plan.merge.query), catalog))
    compiled = compile_full(planned)
    if verify:
        atoms = dict(partials)
        input_atoms = {
            slot: atoms[column]
            for alias_cols in compiled.scan_inputs.values()
            for column, slot in alias_cols.items()
        }
        check_program(
            compiled.program,
            input_atoms,
            subject=f"merge program ({plan.route})",
        )
    plan.merge.partials = list(partials)
    plan.merge.compiled = compiled


def run_merge(
    plan: ShardPlan,
    interp,
    part_columns: list[dict[str, np.ndarray]],
    profiler=None,
) -> tuple[list[str], dict[str, BAT]]:
    """Execute the merge over one window's collected partition partials.

    ``part_columns`` holds each partition's emitted columns (raw numpy
    tails, in partition order); they are concatenated per column and run
    through the compiled merge program.  Returns the visible outputs.
    """
    merge = plan.merge
    assert merge is not None and merge.compiled is not None
    compiled = merge.compiled
    atoms = dict(merge.partials)
    inputs: dict[str, BAT] = {}
    for alias_cols in compiled.scan_inputs.values():
        for column, slot in alias_cols.items():
            dtype = numpy_dtype(atoms[column])
            parts = [
                np.asarray(cols[column], dtype=dtype) for cols in part_columns
            ]
            stacked = (
                np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
            )
            inputs[slot] = BAT(stacked, atoms[column])
    outputs = interp.run(compiled.program, inputs, profiler)
    named = {
        name: outputs[slot]
        for name, slot in zip(compiled.output_names, compiled.output_slots)
    }
    return list(merge.visible), {name: named[name] for name in merge.visible}


def promote_empty_pn(
    plan: ShardPlan, part_columns: list[dict[str, np.ndarray]]
) -> None:
    """See :attr:`MergeSpec.pn_column`: when every partition's window
    slice was empty, promote partition 0's row through the ``__pn > 0``
    filter (in place) so the merge reproduces P=1 empty-window output."""
    merge = plan.merge
    if merge is None or merge.pn_column is None:
        return
    pn = merge.pn_column
    if any(np.asarray(cols[pn]).sum() > 0 for cols in part_columns if len(cols[pn])):
        return
    if part_columns and len(part_columns[0][pn]):
        part_columns[0][pn] = np.ones_like(np.asarray(part_columns[0][pn]))


def concat_columns(
    names: list[str],
    atoms: list[Atom],
    part_columns: list[dict[str, np.ndarray]],
) -> dict[str, BAT]:
    """Merge-free combine: concatenate partition emissions per column."""
    out: dict[str, BAT] = {}
    for name, atom in zip(names, atoms):
        dtype = numpy_dtype(atom)
        parts = [np.asarray(cols[name], dtype=dtype) for cols in part_columns]
        stacked = np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
        out[name] = BAT(stacked, atom)
    return out


def sort_concat_columns(
    columns: dict[str, BAT], keys: tuple[str, ...]
) -> dict[str, BAT]:
    """Reorder concatenated rows ascending by ``keys`` (priority order).

    Restores the P=1 engine's row order after a merge-free concat.  Key
    values are unique per window (disjoint group keys, distinct rows,
    or the ``__seq`` arrival offset), so no tie-break is needed.
    """
    tails = [columns[key].tail for key in keys]
    length = len(tails[0]) if tails else 0
    if length <= 1:
        return columns
    try:
        order = np.lexsort(tuple(reversed(tails)))
    except TypeError:
        # object-dtype keys (str columns): fall back to a Python sort
        order = np.array(
            sorted(range(length), key=lambda i: tuple(t[i] for t in tails))
        )
    return {
        name: BAT(bat.tail[order], bat.atom) for name, bat in columns.items()
    }


def validate_partition_key(schema: Schema, key: str, stream: str) -> Atom:
    """The key column's atom; raises for missing/unsupported columns."""
    columns = dict(schema.columns)
    if key not in columns:
        raise ReproError(
            f"partition key {key!r} is not a column of stream {stream!r}"
        )
    atom = columns[key]
    if atom not in _KEY_ATOMS:
        raise UnsupportedQueryError(
            f"cannot partition {stream!r} by {key!r}: {atom} keys are not "
            "hashable deterministically (use an int/str/bool key)"
        )
    return atom
