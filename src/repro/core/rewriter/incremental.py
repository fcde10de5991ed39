"""Construction of incremental plans (the paper's plan rewriter, §3).

Given an optimized plan, :func:`rewrite` produces an :class:`IncrementalPlan`
holding up to four small programs:

* *fragment* (single-stream) or *preps* + *pair fragment* (join queries) —
  the replicated part, run once per new basic window / per new basic-window
  pair, producing a *bundle* of flow columns (``main`` cost tag);
* *combine* — merges packed flow partials back into one bundle
  (concatenation + compensation; ``merge`` tag).  Crucially, combine is
  *closed over bundles*: its output is again a valid partial bundle, which
  is what makes landmark compaction and the m-chunk optimization reuse it;
* *finalize* — turns a combined bundle into the window result (AVG division,
  HAVING, projection, DISTINCT/ORDER BY/LIMIT; ``merge`` tag).

The factory (:mod:`repro.core.factory`) owns the runtime side: slicing
basic windows out of baskets, caching bundles in partial stores, packing
live partials and running combine+finalize each slide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.rewriter.analysis import PlanShape, analyze
from repro.core.rewriter.flows import (
    AggPlanEntry,
    Flow,
    GLOBAL_COMBINE,
    GLOBAL_FRAGMENT,
    GROUPED_COMBINE,
    GROUPED_FRAGMENT,
    plan_aggregate_flows,
)
from repro.core.windows import WindowSpec
from repro.errors import UnsupportedQueryError
from repro.kernel.atoms import Atom
from repro.kernel.execution.program import Program, Ref, TAG_MERGE
from repro.sql.ast import ColumnRef, walk
from repro.sql.logical import LScan
from repro.sql.optimizer.rules import eliminate_dead_code
from repro.sql.physical import BaseRows, ColRows, PlanCompiler, Rows
from repro.sql.planner import PlannedQuery


def packed(flow_name: str) -> str:
    """Input-slot name of a flow's packed partials in the combine program."""
    return f"packed_{flow_name}"


def prep_slot(alias: str, column: str) -> str:
    """Slot name of a prepped (filtered) column in the pair fragment."""
    return f"prep_{alias}__{column}"


@dataclass
class PrepSpec:
    """Per-stream preprocessing of a join query: filter + column narrowing.

    The prep runs once per new basic window; its outputs are cached until
    the basic window expires (the paper: selection results "need to be kept
    and joined with newly arriving data until the respective basic windows
    expire").
    """

    alias: str
    program: Program
    columns: list[str]  # column names, in program-output order


@dataclass
class IncrementalPlan:
    """A rewritten continuous query plan, ready to be run by a factory."""

    # metadata
    output_names: list[str]
    output_atoms: list[Atom]
    flows: list[Flow]
    grouped: bool
    # stream geometry
    stream_aliases: list[str]
    stream_relations: dict[str, str]
    windows: dict[str, WindowSpec]
    scan_columns: dict[str, list[str]]  # alias -> basket columns the plan reads
    table_alias: Optional[str] = None
    table_relation: Optional[str] = None
    # single-stream shape
    fragment: Optional[Program] = None
    # join shape
    preps: dict[str, PrepSpec] = field(default_factory=dict)
    pair_fragment: Optional[Program] = None
    # shared tail
    combine: Program = field(default_factory=Program)
    finalize: Program = field(default_factory=Program)

    @property
    def is_join(self) -> bool:
        return self.pair_fragment is not None

    @property
    def compensates(self) -> bool:
        """True when combine re-aggregates its packed inputs (Figure 3's
        "concat + compensation" classes) rather than only concatenating
        ``pack`` flows — i.e. when a pre-merged run of partials can be
        smaller than the partials themselves."""
        return any(flow.kind != "pack" for flow in self.flows)

    def describe(self) -> str:
        """Readable dump of all programs (EXPLAIN CONTINUOUS)."""
        parts = []
        if self.fragment is not None:
            parts.append("== fragment (per basic window) ==\n" + self.fragment.pretty())
        for alias, prep in self.preps.items():
            parts.append(f"== prep[{alias}] (per basic window) ==\n" + prep.program.pretty())
        if self.pair_fragment is not None:
            parts.append(
                "== pair fragment (per basic-window pair) ==\n"
                + self.pair_fragment.pretty()
            )
        parts.append("== combine (per slide) ==\n" + self.combine.pretty())
        parts.append("== finalize (per slide) ==\n" + self.finalize.pretty())
        return "\n\n".join(parts)


# ----------------------------------------------------------------------
# fragment construction helpers
# ----------------------------------------------------------------------
def _ensure_owned(compiler: PlanCompiler, slot: str) -> str:
    """Copy a slot if it aliases a program input.

    Bundles outlive the basket snapshots they were computed from (baskets
    compact in place on expiry), so any flow that would be a zero-copy view
    of an input column is materialized.
    """
    if slot in compiler.program.inputs:
        return compiler.emit("bat.materialize", [Ref(slot)], "own")
    return slot


def _emit_partial_flows(
    compiler: PlanCompiler,
    rows: Rows,
    shape: PlanShape,
    entries: list[AggPlanEntry],
) -> dict[str, str]:
    """Emit the partial computation for one basic window (or pair).

    Returns flow name → slot.  This is the part of the original plan that
    replicates (paper: "simple concatenation" operators run here in full;
    aggregations run in their partial form).
    """
    out: dict[str, str] = {}
    aggregate = shape.aggregate
    if aggregate is None:
        # Select-only query: the whole projection is map-like, replicate it.
        crows = compiler.compile_project(shape.project, rows)
        for name, slot in crows.slots.items():
            out[name] = _ensure_owned(compiler, slot)
        return out
    if aggregate.keys:
        key_slots = [
            compiler.expr_slot(key, rows, atom)
            for key, atom in zip(aggregate.keys, aggregate.key_atoms)
        ]
        gids, extents, ngroups = compiler.emit_multi(
            "group.group", [Ref(s) for s in key_slots], ["gids", "ext", "ng"]
        )
        for index, key_slot in enumerate(key_slots):
            out[f"key_{index}"] = compiler.emit(
                "algebra.projection", [Ref(extents), Ref(key_slot)], f"key{index}"
            )
        for entry in entries:
            for flow in entry.flows:
                opcode = GROUPED_FRAGMENT[flow.kind]
                arg = compiler.agg_arg_slot(entry.spec, rows, gids)
                out[flow.name] = compiler.emit(
                    opcode, [Ref(arg), Ref(gids), Ref(ngroups)], flow.name
                )
        return out
    for entry in entries:
        for flow in entry.flows:
            opcode = GLOBAL_FRAGMENT[flow.kind]
            arg = compiler.agg_arg_slot(entry.spec, rows, None)
            out[flow.name] = compiler.emit(opcode, [Ref(arg)], flow.name)
    return out


def _referenced_columns(shape: PlanShape, binding) -> dict[str, list[str]]:
    """Columns of each relation referenced above the per-stream filters."""
    exprs = []
    if shape.join is not None:
        exprs += [shape.join.left_key, shape.join.right_key]
    if shape.residual is not None:
        exprs.append(shape.residual)
    if shape.aggregate is not None:
        exprs += list(shape.aggregate.keys)
        exprs += [a.arg for a in shape.aggregate.aggs if a.arg is not None]
    else:
        exprs += [expr for expr, __ in shape.project.items]
    needed: dict[str, list[str]] = {}
    for expr in exprs:
        for ref in walk(expr):
            if isinstance(ref, ColumnRef):
                try:
                    bound = binding.resolve(ref)
                except Exception:
                    continue  # synthetic post-aggregation names
                cols = needed.setdefault(bound.alias, [])
                if bound.column not in cols:
                    cols.append(bound.column)
    return needed


# ----------------------------------------------------------------------
# combine / finalize
# ----------------------------------------------------------------------
def _build_combine(flows: list[Flow], grouped: bool) -> Program:
    program = Program(
        inputs=tuple(packed(f.name) for f in flows),
        outputs=tuple(f.name for f in flows),
    )
    if grouped:
        gkeys = [f for f in flows if f.kind == "gkey"]
        program.emit(
            "group.group",
            [Ref(packed(k.name)) for k in gkeys],
            ["__gids", "__ext", "__ng"],
            tag=TAG_MERGE,
        )
        for key in gkeys:
            program.emit(
                "algebra.projection",
                [Ref("__ext"), Ref(packed(key.name))],
                [key.name],
                tag=TAG_MERGE,
            )
        for flow in flows:
            if flow.kind == "gkey":
                continue
            program.emit(
                GROUPED_COMBINE[flow.kind],
                [Ref(packed(flow.name)), Ref("__gids"), Ref("__ng")],
                [flow.name],
                tag=TAG_MERGE,
            )
    elif any(f.kind in GLOBAL_COMBINE for f in flows):
        for flow in flows:
            program.emit(
                GLOBAL_COMBINE[flow.kind],
                [Ref(packed(flow.name))],
                [flow.name],
                tag=TAG_MERGE,
            )
    else:  # pure concatenation (select-only queries, Figure 3a)
        for flow in flows:
            program.emit(
                "bat.id", [Ref(packed(flow.name))], [flow.name], tag=TAG_MERGE
            )
    program.validate()
    return program


def _build_finalize(
    shape: PlanShape,
    planned: PlannedQuery,
    flows: list[Flow],
    entries: list[AggPlanEntry],
) -> tuple[Program, list[str], list[Atom]]:
    compiler = PlanCompiler(planned.binding, tag=TAG_MERGE, prefix="z")
    compiler.program.inputs = tuple(f.name for f in flows)
    aggregate = shape.aggregate
    if aggregate is None:
        crows = ColRows({f.name: f.name for f in flows})
    else:
        flow_slots = {f.name: f.name for f in flows}
        if not aggregate.keys and flows:
            # Global aggregates: enforce the all-or-nothing result row.
            aligned = compiler.emit_multi(
                "aggr.align",
                [Ref(f.name) for f in flows],
                [f"{f.name}_al" for f in flows],
            )
            flow_slots = dict(zip((f.name for f in flows), aligned))
        slots: dict[str, str] = {}
        for index in range(len(aggregate.keys)):
            slots[f"key_{index}"] = flow_slots[f"key_{index}"]
        for entry in entries:
            action = entry.finalize
            if action[0] == "flow":
                slots[entry.spec.out] = flow_slots[action[1]]
            else:  # ("div", sum_flow, count_flow) — AVG
                slots[entry.spec.out] = compiler.emit(
                    "calc.div",
                    [Ref(flow_slots[action[1]]), Ref(flow_slots[action[2]])],
                    entry.spec.out,
                )
        crows = ColRows(slots)
        if shape.having is not None:
            crows = compiler.compile_filter(shape.having, crows)
        crows = compiler.compile_project(shape.project, crows)
    if shape.distinct:
        crows = compiler.compile_distinct(crows)
    if shape.order is not None:
        crows = compiler.compile_order(shape.order, crows)
    if shape.limit is not None:
        crows = compiler.compile_limit(shape.limit, crows)
    names = [name for name, __ in planned.plan.output_columns()]
    atoms = [atom for __, atom in planned.plan.output_columns()]
    compiler.program.outputs = tuple(crows.slots[name] for name in names)
    compiler.program.validate()
    # Re-map outputs so the factory can address them by logical name.
    return compiler.program, names, atoms


# ----------------------------------------------------------------------
# the rewriter entry point
# ----------------------------------------------------------------------
def rewrite(planned: PlannedQuery) -> IncrementalPlan:
    """Rewrite an optimized plan into an incremental one.

    Raises :class:`UnsupportedQueryError` for queries outside the
    rewritable class (the caller can still fall back to re-evaluation).
    """
    shape = analyze(planned)

    grouped = bool(shape.aggregate and shape.aggregate.keys)
    entries: list[AggPlanEntry] = []
    flows: list[Flow] = []
    if shape.aggregate is not None:
        agg_flows, entries = plan_aggregate_flows(shape.aggregate.aggs, grouped)
        if grouped:
            flows += [Flow(f"key_{i}", "gkey") for i in range(len(shape.aggregate.keys))]
        flows += agg_flows
    else:
        flows = [Flow(name, "pack") for __, name in shape.project.items]

    plan = IncrementalPlan(
        output_names=[],
        output_atoms=[],
        flows=flows,
        grouped=grouped,
        stream_aliases=[s.alias for s in shape.streams],
        stream_relations={s.alias: s.scan.relation for s in shape.streams},
        windows={s.alias: s.window for s in shape.streams},
        scan_columns={},
    )
    if shape.table is not None:
        plan.table_alias = shape.table.alias
        plan.table_relation = shape.table.scan.relation

    if shape.is_join:
        _build_join_fragments(plan, shape, planned, entries)
    else:
        _build_single_fragment(plan, shape, planned, entries)

    plan.combine = _build_combine(flows, grouped)
    plan.finalize, plan.output_names, plan.output_atoms = _build_finalize(
        shape, planned, flows, entries
    )
    # Cleanup pass: the per-column compilers can leave slots no flow reads
    # (pruned expressions, unused join sides); the factory addresses every
    # surviving slot through program outputs, so liveness roots are exact.
    programs = [plan.fragment, plan.pair_fragment, plan.combine, plan.finalize]
    programs += [prep.program for prep in plan.preps.values()]
    for program in programs:
        if program is not None:
            eliminate_dead_code(program)
    return plan


def _scan_columns(scan: LScan) -> list[str]:
    columns = [name for name, __ in scan.output_columns()]
    if not columns:
        columns = [scan.schema[0][0]]
    return columns


def _build_single_fragment(
    plan: IncrementalPlan,
    shape: PlanShape,
    planned: PlannedQuery,
    entries: list[AggPlanEntry],
) -> None:
    stream = shape.streams[0]
    compiler = PlanCompiler(planned.binding, prefix="f")
    rows = compiler.rows_for_scan(stream.scan)
    if stream.predicate is not None:
        rows = compiler.compile_filter(stream.predicate, rows)
    flow_slots = _emit_partial_flows(compiler, rows, shape, entries)
    compiler.program.outputs = tuple(flow_slots[f.name] for f in plan.flows)
    compiler.program.validate()
    plan.fragment = compiler.program
    plan.scan_columns[stream.alias] = _scan_columns(stream.scan)


def _build_join_fragments(
    plan: IncrementalPlan,
    shape: PlanShape,
    planned: PlannedQuery,
    entries: list[AggPlanEntry],
) -> None:
    assert shape.join is not None
    binding = planned.binding
    needed = _referenced_columns(shape, binding)

    sides = list(shape.streams) + ([shape.table] if shape.table else [])
    base_rows: dict[str, BaseRows] = {}
    for side in sides:
        alias = side.alias
        columns = needed.get(alias, [])
        if not columns:  # always carry something to size the join input
            columns = [_scan_columns(side.scan)[0]]
        compiler = PlanCompiler(binding, prefix=f"p_{alias}")
        rows = compiler.rows_for_scan(side.scan)
        if side.predicate is not None:
            rows = compiler.compile_filter(side.predicate, rows)
        out_slots = []
        for column in columns:
            slot = compiler.column(rows, ColumnRef(alias, column))
            out_slots.append(_ensure_owned(compiler, slot))
        compiler.program.outputs = tuple(out_slots)
        compiler.program.validate()
        plan.preps[alias] = PrepSpec(alias, compiler.program, list(columns))
        plan.scan_columns[alias] = _scan_columns(side.scan)

    pair = PlanCompiler(binding, prefix="j")
    for side in sides:
        alias = side.alias
        slots = {}
        for column in plan.preps[alias].columns:
            slot = prep_slot(alias, column)
            pair.declare_input(slot)
            slots[column] = slot
        base_rows[alias] = BaseRows(alias, slots)

    left_alias = _leaf_alias(shape.join.left)
    right_alias = _leaf_alias(shape.join.right)
    rows: Rows = pair.compile_join(
        shape.join, base_rows[left_alias], base_rows[right_alias]
    )
    if shape.residual is not None:
        rows = pair.compile_filter(shape.residual, rows)
    flow_slots = _emit_partial_flows(pair, rows, shape, entries)
    pair.program.outputs = tuple(flow_slots[f.name] for f in plan.flows)
    pair.program.validate()
    plan.pair_fragment = pair.program


def _leaf_alias(node) -> str:
    from repro.sql.logical import LFilter

    while isinstance(node, LFilter):
        node = node.child
    if not isinstance(node, LScan):  # pragma: no cover - analyze() checked
        raise UnsupportedQueryError("join input is not a base relation")
    return node.alias
