"""Construction of incremental plans (the paper's plan rewriter, §3).

Given an optimized plan, :func:`rewrite` produces an :class:`IncrementalPlan`
holding a few small programs:

* *fragment* (single-stream) or *preps* + *pair fragment* (join queries) —
  the replicated part, producing a *bundle* of flow columns per basic
  window / per basic-window pair (``main`` cost tag).  The pair fragment
  is tagged: every prepped row carries the seq of the basic window it came
  from, and the partial flows keep the (left seq, right seq) tag pair as
  leading group keys, so one run over many basic windows per side yields
  the bundles of all their pairs at once.  The fragment and each prep
  have a *tagged* twin built the same way over one basic-window tag, so
  a first window's many basic windows are processed in a few runs;
* *combine* — merges packed flow partials back into one bundle
  (concatenation + compensation; ``merge`` tag).  Crucially, combine is
  *closed over bundles*: its output is again a valid partial bundle, which
  is what makes landmark compaction and the m-chunk optimization reuse it;
* *finalize* — turns a combined bundle into the window result (AVG division,
  HAVING, projection, DISTINCT/ORDER BY/LIMIT; ``merge`` tag).

:func:`reevaluation_plan` builds DataCellR the same way: Figure 3's trivial
plan, with identity preps and the unmodified full plan as finalize.

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
from repro.sql.logical import LScan, find_scans
from repro.sql.optimizer.rules import eliminate_dead_code
from repro.sql.physical import (
    BaseRows,
    ColRows,
    JoinRows,
    PlanCompiler,
    Rows,
    compile_full,
    scan_slot,
)
from repro.sql.planner import PlannedQuery


def packed(flow_name: str) -> str:
    """Input-slot name of a flow's packed partials in the combine program."""
    return f"packed_{flow_name}"


def prep_slot(alias: str, column: str) -> str:
    """Slot name of a prepped (filtered) column in the pair fragment."""
    return f"prep_{alias}__{column}"


def seq_slot(alias: str) -> str:
    """Slot name of a side's seq-tag column in the pair fragment: the
    basic-window seq each prepped row came from (0 for a base table).
    Tagged fragments and preps read the same slot: the index of the
    basic window each row came from within the run."""
    return f"seq_{alias}"


def new_slot(alias: str) -> str:
    """Slot name of a join side's first new row in the pair fragment: the
    row position, within the side's view, of its first basic window not
    joined before (the view's length when it has none)."""
    return f"new_{alias}"


#: How the plan dumps label the tagged twins.
TAGGED_RUN = "per tagged run of basic windows"
TAGGED_FRAGMENT_TITLE = f"tagged fragment ({TAGGED_RUN})"


@dataclass
class PrepSpec:
    """Per-stream preprocessing: a join's filter + column narrowing, or
    the identity (a re-evaluation plan's, see :func:`reevaluation_plan`).

    The prep runs once per new basic window; its outputs are cached until
    the basic window expires (the paper: selection results "need to be kept
    and joined with newly arriving data until the respective basic windows
    expire").  ``tagged`` is the same prep over several basic windows at
    once: it reads the basic-window tag ``seq_slot(alias)`` as one more
    input and emits it, filtered like the rows, after the columns.
    """

    alias: str
    program: Program
    columns: list[str]  # column names, in program-output order
    tagged: Optional[Program] = None


@dataclass
class IncrementalPlan:
    """A rewritten continuous query plan, ready to be run by a factory."""

    # metadata
    output_names: list[str] = field(default_factory=list)
    output_atoms: list[Atom] = field(default_factory=list)
    flows: list[Flow] = field(default_factory=list)
    grouped: bool = False
    # stream geometry
    stream_aliases: list[str] = field(default_factory=list)
    stream_relations: dict[str, str] = field(default_factory=dict)
    windows: dict[str, WindowSpec] = field(default_factory=dict)
    # alias -> columns the plan reads (basket columns; a table's too)
    scan_columns: dict[str, list[str]] = field(default_factory=dict)
    table_alias: Optional[str] = None
    table_relation: Optional[str] = None
    # single-stream shape; the tagged fragment's outputs are the flows
    # followed by the basic-window tag ``seq_slot(alias)``, row-aligned
    # with them and ascending
    fragment: Optional[Program] = None
    tagged_fragment: Optional[Program] = None
    # join shape: the pair fragment's outputs are the flows followed by
    # the seq tags of ``pair_aliases`` (left, right), row-aligned with them
    preps: dict[str, PrepSpec] = field(default_factory=dict)
    pair_fragment: Optional[Program] = None
    # shared tail
    combine: Program = field(default_factory=Program)
    finalize: Program = field(default_factory=Program)
    #: A single-stream sliding aggregate whose flows are group keys and
    #: exact sums and counts: its window slides by adding the new partial
    #: and subtracting the expired one (DESIGN.md §17), see
    #: :func:`_invertible`.
    invertible: bool = False

    @property
    def is_join(self) -> bool:
        return self.pair_fragment is not None

    @property
    def pair_aliases(self) -> tuple[str, str]:
        """(left, right) sides of a join's seq-tag pairs: the streams in
        FROM order, a base table always on the right."""
        sides = list(self.stream_aliases)
        if self.table_alias is not None:
            sides.append(self.table_alias)
        return sides[0], sides[1]

    def describe(self) -> str:
        """Readable dump of all programs (EXPLAIN CONTINUOUS)."""
        parts = []
        if self.fragment is not None:
            parts.append("== fragment (per basic window) ==\n" + self.fragment.pretty())
        if self.tagged_fragment is not None:
            parts.append(
                f"== {TAGGED_FRAGMENT_TITLE} ==\n" + self.tagged_fragment.pretty()
            )
        for alias, prep in self.preps.items():
            parts.append(f"== prep[{alias}] (per basic window) ==\n" + prep.program.pretty())
            if prep.tagged is not None:
                parts.append(
                    f"== prep[{alias}] ({TAGGED_RUN}) ==\n" + prep.tagged.pretty()
                )
        if self.pair_fragment is not None:
            parts.append(
                "== pair fragment (per seq-tagged join run) ==\n"
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
    tags: tuple[str, ...] = (),
) -> tuple[dict[str, str], list[str]]:
    """Emit the partial computation for one basic window (or pair run).

    Returns (flow name → slot, tag output slots).  This is the part of the
    original plan that replicates (paper: "simple concatenation" operators
    run here in full; aggregations run in their partial form).  ``tags``
    are row-aligned seq-tag slots (join runs, tagged runs): they lead the
    group keys, so global aggregates become grouped by the tags, and
    select-only rows carry them through unchanged.  Either way the tag
    outputs come out ascending.
    """
    out: dict[str, str] = {}
    aggregate = shape.aggregate
    if aggregate is None:
        # Select-only query: the whole projection is map-like, replicate it.
        crows = compiler.compile_project(shape.project, rows)
        for name, slot in crows.slots.items():
            out[name] = _ensure_owned(compiler, slot)
        return out, list(tags)
    if not (aggregate.keys or tags):
        for entry in entries:
            for flow in entry.flows:
                opcode = GLOBAL_FRAGMENT[flow.kind]
                arg = compiler.agg_arg_slot(entry.spec, rows, None)
                out[flow.name] = compiler.emit(opcode, [Ref(arg)], flow.name)
        return out, []
    key_slots = [
        compiler.expr_slot(key, rows, atom)
        for key, atom in zip(aggregate.keys, aggregate.key_atoms)
    ]
    gids, extents, ngroups = compiler.emit_multi(
        "group.group", [Ref(s) for s in list(tags) + key_slots], ["gids", "ext", "ng"]
    )
    tag_outs = [
        compiler.emit("algebra.projection", [Ref(extents), Ref(tag)], "tag")
        for tag in tags
    ]
    for index, key_slot in enumerate(key_slots):
        out[f"key_{index}"] = compiler.emit(
            "algebra.projection", [Ref(extents), Ref(key_slot)], f"key{index}"
        )
    for entry in entries:
        for flow in entry.flows:
            # A global flow grouped by the tag pair: its grouped twin.
            kind = flow.kind if flow.kind in GROUPED_FRAGMENT else "g" + flow.kind
            arg = compiler.agg_arg_slot(entry.spec, rows, gids)
            out[flow.name] = compiler.emit(
                GROUPED_FRAGMENT[kind], [Ref(arg), Ref(gids), Ref(ngroups)], flow.name
            )
    return out, tag_outs


def _row_tag(compiler: PlanCompiler, rows: Rows, alias: str) -> str:
    """Declare a tagged run's basic-window tag input and return its slot
    aligned with ``rows`` (a scan, possibly filtered)."""
    assert isinstance(rows, BaseRows)
    tag = compiler.declare_input(seq_slot(alias))
    if rows.cand is None:
        return tag
    return compiler.emit("algebra.projection", [Ref(rows.cand), Ref(tag)], "seq")


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
        flows=flows,
        grouped=grouped,
        stream_aliases=[s.alias for s in shape.streams],
        stream_relations={s.alias: s.scan.relation for s in shape.streams},
        windows={s.alias: s.window for s in shape.streams},
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
    plan.invertible = _invertible(shape, planned)
    # Cleanup pass: the per-column compilers can leave slots no flow reads
    # (pruned expressions, unused join sides); the factory addresses every
    # surviving slot through program outputs, so liveness roots are exact.
    programs = [plan.fragment, plan.tagged_fragment, plan.pair_fragment]
    programs += [plan.combine, plan.finalize]
    programs += [prep.program for prep in plan.preps.values()]
    programs += [prep.tagged for prep in plan.preps.values()]
    for program in programs:
        if program is not None:
            eliminate_dead_code(program)
    for program in [plan.tagged_fragment] + [p.tagged for p in plan.preps.values()]:
        if program is not None:
            _drop_unread_inputs(program)
    return plan


#: Atoms whose sums are exact in int64 (wrapping on overflow the same way
#: whatever the order of the additions), so subtracting an expired
#: partial undoes adding it.
EXACT_ATOMS = frozenset({Atom.INT, Atom.OID, Atom.BIT})


def _invertible(shape: PlanShape, planned: PlannedQuery) -> bool:
    """Whether a window's combined flows can slide by subtraction.

    Single-stream sliding aggregates only (not a join, not landmark,
    whose one cumulative partial never expires), grouped by keys that are
    not FLT (0.0 and -0.0 are one group, shown as the oldest live
    partial's key), with every aggregate a count or an exact-atom sum or
    AVG (its sum and count flows).  FLT sums reassociate; min and max
    have no inverse.
    """
    aggregate = shape.aggregate
    if shape.is_join or aggregate is None or shape.streams[0].window.is_landmark:
        return False
    if Atom.FLT in aggregate.key_atoms:
        return False
    return all(
        spec.func == "count"
        or (
            spec.func in ("sum", "avg")
            and spec.arg is not None
            and planned.binding.atom_of(spec.arg) in EXACT_ATOMS
        )
        for spec in aggregate.aggs
    )


def reevaluation_plan(planned: PlannedQuery) -> IncrementalPlan:
    """The DataCellR baseline (paper §3) as an incremental plan.

    Re-evaluation is the degenerate "simple concatenation" plan of
    Figure 3: each stream's prep is the identity over the columns the
    query reads, so a basic window's bundle is its tuples; there is no
    fragment and nothing to combine; finalize is the unmodified full plan
    (:func:`compile_full`) over each stream's concatenated window and the
    base tables, read through their scan slots.  It does not depend on
    :func:`analyze`, so every query the engine can plan is accepted.
    """
    compiled = compile_full(planned)
    plan = IncrementalPlan(
        list(compiled.output_names), list(compiled.output_atoms), finalize=compiled.program
    )
    for scan in find_scans(planned.plan):
        columns = list(compiled.scan_inputs[scan.alias])
        plan.scan_columns[scan.alias] = columns
        if not scan.is_stream:
            continue
        if scan.window is None:
            raise UnsupportedQueryError(f"stream {scan.relation!r} needs a window clause")
        plan.stream_aliases.append(scan.alias)
        plan.stream_relations[scan.alias] = scan.relation
        plan.windows[scan.alias] = WindowSpec.from_clause(scan.window)
        slots = tuple(scan_slot(scan.alias, column) for column in columns)
        tagged = slots + (seq_slot(scan.alias),)
        plan.preps[scan.alias] = PrepSpec(
            scan.alias, Program(slots, slots), columns, Program(tagged, tagged)
        )
    return plan


def _drop_unread_inputs(program: Program) -> None:
    """Undeclare inputs no instruction reads.  A tagged run sizes
    ``count(*)`` by its tag, where the plain fragment reads a scan column;
    the factory still passes every scan column, and the rest are ignored."""
    read = {
        arg.name
        for instr in program.instructions
        for arg in instr.args
        if isinstance(arg, Ref)
    }
    read |= set(program.outputs)
    program.inputs = tuple(name for name in program.inputs if name in read)


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
    programs = []
    for tagged in (False, True):
        compiler = PlanCompiler(planned.binding, prefix="f")
        rows = compiler.rows_for_scan(stream.scan)
        if stream.predicate is not None:
            rows = compiler.compile_filter(stream.predicate, rows)
        tags = (_row_tag(compiler, rows, stream.alias),) if tagged else ()
        flow_slots, tag_outs = _emit_partial_flows(compiler, rows, shape, entries, tags)
        compiler.program.outputs = tuple(flow_slots[f.name] for f in plan.flows)
        compiler.program.outputs += tuple(tag_outs)
        compiler.program.validate()
        programs.append(compiler.program)
    plan.fragment, plan.tagged_fragment = programs
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
        programs = []
        for tagged in (False, True):
            compiler = PlanCompiler(binding, prefix=f"p_{alias}")
            rows = compiler.rows_for_scan(side.scan)
            if side.predicate is not None:
                rows = compiler.compile_filter(side.predicate, rows)
            out_slots = []
            for column in columns:
                slot = compiler.column(rows, ColumnRef(alias, column))
                out_slots.append(_ensure_owned(compiler, slot))
            if tagged:
                out_slots.append(_row_tag(compiler, rows, alias))
            compiler.program.outputs = tuple(out_slots)
            compiler.program.validate()
            programs.append(compiler.program)
        # A base table is prepped once, never in tagged runs.
        tagged_prep = programs[1] if alias != plan.table_alias else None
        plan.preps[alias] = PrepSpec(alias, programs[0], list(columns), tagged_prep)
        plan.scan_columns[alias] = _scan_columns(side.scan)

    pair = PlanCompiler(binding, prefix="j")
    for side in sides:
        alias = side.alias
        slots = {}
        for column in plan.preps[alias].columns:
            slot = prep_slot(alias, column)
            pair.declare_input(slot)
            slots[column] = slot
        pair.declare_input(seq_slot(alias))
        pair.declare_input(new_slot(alias))
        base_rows[alias] = BaseRows(alias, slots)

    # The plan's join orientation stays: the kernel join is stable, so the
    # rows of each tag pair come out in the order a join of that pair
    # alone would produce them.  It emits the pairs with a new row on
    # either side, so one run per slide covers the bilinear delta.
    left_alias = _leaf_alias(shape.join.left)
    right_alias = _leaf_alias(shape.join.right)
    rows: Rows = pair.compile_join(
        shape.join,
        base_rows[left_alias],
        base_rows[right_alias],
        (new_slot(left_alias), new_slot(right_alias)),
    )
    if shape.residual is not None:
        rows = pair.compile_filter(shape.residual, rows)
    assert isinstance(rows, JoinRows)
    tags = tuple(
        pair.emit(
            "algebra.projection", [Ref(rows.oid_slots[alias]), Ref(seq_slot(alias))], "seq"
        )
        for alias in plan.pair_aliases
    )
    flow_slots, tag_outs = _emit_partial_flows(pair, rows, shape, entries, tags)
    pair.program.outputs = tuple(flow_slots[f.name] for f in plan.flows) + tuple(
        tag_outs
    )
    pair.program.validate()
    plan.pair_fragment = pair.program


def _leaf_alias(node) -> str:
    from repro.sql.logical import LFilter

    while isinstance(node, LFilter):
        node = node.child
    if not isinstance(node, LScan):  # pragma: no cover - analyze() checked
        raise UnsupportedQueryError("join input is not a base relation")
    return node.alias
