"""Physical compilation: logical plans → MAL-like programs.

The compiler walks a logical plan bottom-up, threading a *row context*
describing how the current intermediate rows are represented:

* :class:`BaseRows` — rows of one base relation, optionally restricted by a
  candidate list (late reconstruction: columns are projected on demand);
* :class:`JoinRows` — rows of a join result, one aligned OID column per
  input relation;
* :class:`ColRows` — rows materialized as named value columns (after
  aggregation/projection).

The DataCell incremental rewriter reuses exactly these builders to compile
plan *fragments* (per-basic-window programs, combine programs, finalize
programs) instead of whole plans — the paper's "split the plan as deep as
possible" rule is implemented by choosing where to stop calling these
helpers, not by a second compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import PlanError
from repro.kernel.atoms import Atom
from repro.kernel.execution.program import Lit, Operand, Program, Ref, SlotNames, TAG_MAIN
from repro.sql.ast import BinOp, ColumnRef, Expr, FuncCall, Literal, UnaryOp
from repro.sql.binder import Binding
from repro.sql.logical import (
    AggSpec,
    LAggregate,
    LDistinct,
    LFilter,
    LJoin,
    LLimit,
    LOrder,
    LProject,
    LScan,
    LogicalNode,
)
from repro.sql.optimizer.rules import eliminate_dead_code
from repro.sql.planner import PlannedQuery, split_conjuncts

_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def scan_slot(alias: str, column: str) -> str:
    """Canonical input-slot name for a scan column."""
    return f"{alias}__{column}"


# ----------------------------------------------------------------------
# row contexts
# ----------------------------------------------------------------------
class Rows:
    """Base class for row-context objects produced by the compiler."""


@dataclass
class BaseRows(Rows):
    """Rows of one base relation, possibly restricted by a candidate list."""

    alias: str
    col_slots: dict[str, str]  # column -> slot of the FULL column
    cand: Optional[str] = None  # slot of the candidate OID list
    _cache: dict[str, str] = field(default_factory=dict)


@dataclass
class JoinRows(Rows):
    """Rows of a join: per-alias aligned OID columns into the base columns."""

    oid_slots: dict[str, str]
    bases: dict[str, BaseRows]
    _cache: dict[tuple[str, str], str] = field(default_factory=dict)


@dataclass
class ColRows(Rows):
    """Rows materialized as ordered, aligned, named value columns."""

    slots: dict[str, str]  # output name -> slot (insertion-ordered)


@dataclass
class CompiledQuery:
    """A fully compiled plan, ready for the interpreter."""

    program: Program
    scan_inputs: dict[str, dict[str, str]]  # alias -> {column -> input slot}
    output_names: list[str]
    output_atoms: list[Atom]
    output_slots: list[str]


class PlanCompiler:
    """Compiles logical (sub)plans into one :class:`Program`.

    One compiler instance owns one program under construction; the DataCell
    rewriter instantiates several (fragment / combine / finalize) and steers
    which subtree goes into which.
    """

    def __init__(self, binding: Binding, tag: str = TAG_MAIN, prefix: str = "t") -> None:
        self.binding = binding
        self.tag = tag
        self.program = Program()
        self.names = SlotNames(prefix)
        self.scan_inputs: dict[str, dict[str, str]] = {}

    # -- low-level emission ----------------------------------------------
    def emit(self, opcode: str, args: list[Operand], hint: str = "") -> str:
        """Emit a single-output instruction, returning the fresh out slot."""
        out = self.names.fresh(hint)
        self.program.emit(opcode, args, [out], tag=self.tag)
        return out

    def emit_multi(self, opcode: str, args: list[Operand], hints: list[str]) -> list[str]:
        outs = [self.names.fresh(h) for h in hints]
        self.program.emit(opcode, args, outs, tag=self.tag)
        return outs

    def declare_input(self, slot: str) -> str:
        if slot not in self.program.inputs:
            self.program.inputs = tuple(self.program.inputs) + (slot,)
        return slot

    # -- scans ------------------------------------------------------------
    def rows_for_scan(self, scan: LScan) -> BaseRows:
        """Declare input slots for a scan's (pruned) columns."""
        columns = [name for name, __ in scan.output_columns()]
        if not columns:  # e.g. SELECT count(*) — keep one column for sizing
            columns = [scan.schema[0][0]]
        slots = {}
        for column in columns:
            slot = scan_slot(scan.alias, column)
            self.declare_input(slot)
            slots[column] = slot
        self.scan_inputs[scan.alias] = dict(slots)
        return BaseRows(scan.alias, slots)

    # -- column access ------------------------------------------------------
    def column(self, rows: Rows, ref: ColumnRef) -> str:
        """Slot holding ``ref``'s values aligned with the current rows."""
        if isinstance(rows, ColRows):
            if ref.table is not None or ref.name not in rows.slots:
                raise PlanError(f"unknown column {ref} in materialized rows")
            return rows.slots[ref.name]
        if isinstance(rows, BaseRows):
            bound = self.binding.resolve(ref)
            if bound.alias != rows.alias:
                raise PlanError(f"column {ref} does not belong to {rows.alias!r}")
            full = rows.col_slots[bound.column]
            if rows.cand is None:
                return full
            cached = rows._cache.get(bound.column)
            if cached is None:
                cached = self.emit(
                    "algebra.projection", [Ref(rows.cand), Ref(full)], bound.column
                )
                rows._cache[bound.column] = cached
            return cached
        if isinstance(rows, JoinRows):
            bound = self.binding.resolve(ref)
            key = (bound.alias, bound.column)
            cached = rows._cache.get(key)
            if cached is None:
                base = rows.bases[bound.alias]
                full = base.col_slots[bound.column]
                cached = self.emit(
                    "algebra.projection",
                    [Ref(rows.oid_slots[bound.alias]), Ref(full)],
                    bound.column,
                )
                rows._cache[key] = cached
            return cached
        raise PlanError(f"cannot access columns of {rows!r}")

    def any_column(self, rows: Rows) -> str:
        """Some aligned column slot (used to size constant columns)."""
        if isinstance(rows, ColRows):
            return next(iter(rows.slots.values()))
        if isinstance(rows, BaseRows):
            if rows.cand is not None:
                return rows.cand
            return next(iter(rows.col_slots.values()))
        if isinstance(rows, JoinRows):
            return next(iter(rows.oid_slots.values()))
        raise PlanError(f"no columns in {rows!r}")

    # -- expressions ------------------------------------------------------
    def compile_expr(self, expr: Expr, rows: Rows) -> Operand:
        """Compile an expression to an operand (slot Ref or literal)."""
        if isinstance(expr, Literal):
            return Lit(expr.value)
        if isinstance(expr, ColumnRef):
            return Ref(self.column(rows, expr))
        if isinstance(expr, UnaryOp):
            inner = self.compile_expr(expr.operand, rows)
            if isinstance(inner, Lit):
                value = inner.value
                return Lit(-value if expr.op == "-" else (not value))
            opcode = "calc.neg" if expr.op == "-" else "calc.not"
            return Ref(self.emit(opcode, [inner]))
        if isinstance(expr, BinOp):
            left = self.compile_expr(expr.left, rows)
            right = self.compile_expr(expr.right, rows)
            if isinstance(left, Lit) and isinstance(right, Lit):
                raise PlanError(
                    f"unfolded constant expression {expr} (run the optimizer)"
                )
            if expr.op in ("and", "or"):
                opcode = f"calc.{expr.op}"
            elif expr.op == "/":
                opcode = "calc.div"
            else:
                opcode = f"calc.{expr.op}"
            return Ref(self.emit(opcode, [left, right]))
        if isinstance(expr, FuncCall):
            raise PlanError(f"aggregate {expr} outside an Aggregate node")
        raise PlanError(f"cannot compile expression {expr!r}")

    def expr_slot(self, expr: Expr, rows: Rows, atom: Atom) -> str:
        """Like compile_expr but always returns a column slot.

        Literals are expanded to constant columns sized like the current
        rows.
        """
        operand = self.compile_expr(expr, rows)
        if isinstance(operand, Ref):
            return operand.name
        count = self.emit("bat.count", [Ref(self.any_column(rows))], "n")
        return self.emit(
            "calc.const", [operand, Lit(atom), Ref(count)], "const"
        )

    # -- filters ------------------------------------------------------
    def compile_filter(self, predicate: Expr, rows: Rows) -> Rows:
        """Apply a filter, returning the narrowed row context."""
        for conjunct in split_conjuncts(predicate):
            rows = self._apply_conjunct(conjunct, rows)
        return rows

    def _theta_form(
        self, conjunct: Expr, rows: BaseRows
    ) -> Optional[tuple[str, object, str]]:
        """Recognize ``col <cmp> literal`` (either orientation)."""
        if not (isinstance(conjunct, BinOp) and conjunct.op in _COMPARISONS):
            return None
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right, op = right, left, _FLIPPED[op]
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            return None
        bound = self.binding.resolve(left)
        if bound.alias != rows.alias:
            return None
        return rows.col_slots[bound.column], right.value, op

    def _apply_conjunct(self, conjunct: Expr, rows: Rows) -> Rows:
        if isinstance(rows, BaseRows):
            theta = self._theta_form(conjunct, rows)
            if theta is not None:
                col_slot, value, op = theta
                args: list[Operand] = [Ref(col_slot), Lit(value), Lit(op)]
                if rows.cand is not None:
                    args.append(Ref(rows.cand))
                cand = self.emit("algebra.thetaselect", args, "cand")
                return BaseRows(rows.alias, rows.col_slots, cand)
            mask = self.compile_expr(conjunct, rows)
            if isinstance(mask, Lit):
                raise PlanError(f"constant predicate {conjunct} not supported")
            sel = self.emit("algebra.mask_select", [mask], "sel")
            if rows.cand is not None:
                sel = self.emit(
                    "algebra.projection", [Ref(sel), Ref(rows.cand)], "cand"
                )
            return BaseRows(rows.alias, rows.col_slots, sel)
        if isinstance(rows, JoinRows):
            mask = self.compile_expr(conjunct, rows)
            sel = self.emit("algebra.mask_select", [mask], "sel")
            new_oids = {
                alias: self.emit("algebra.projection", [Ref(sel), Ref(slot)], alias)
                for alias, slot in rows.oid_slots.items()
            }
            return JoinRows(new_oids, rows.bases)
        if isinstance(rows, ColRows):
            mask = self.compile_expr(conjunct, rows)
            sel = self.emit("algebra.mask_select", [mask], "sel")
            new_slots = {
                name: self.emit("algebra.projection", [Ref(sel), Ref(slot)], name)
                for name, slot in rows.slots.items()
            }
            return ColRows(new_slots)
        raise PlanError(f"cannot filter {rows!r}")

    # -- joins ------------------------------------------------------
    def compile_join(
        self, node: LJoin, left: BaseRows, right: BaseRows, first_new: tuple[str, ...] = ()
    ) -> JoinRows:
        """Join two base contexts on ``node``'s keys.  ``first_new`` names
        the slots of each side's first new row: the join then emits only
        the pairs with a new row on either side (the delta join of an
        incremental plan)."""
        left_key = self.column(left, node.left_key)
        right_key = self.column(right, node.right_key)
        lo, ro = self.emit_multi(
            "algebra.join",
            [Ref(left_key), Ref(right_key), *(Ref(slot) for slot in first_new)],
            ["lo", "ro"],
        )
        return JoinRows(
            {
                left.alias: self._base_oids(lo, left, "loids"),
                right.alias: self._base_oids(ro, right, "roids"),
            },
            {left.alias: left, right.alias: right},
        )

    def _base_oids(self, oids: str, rows: BaseRows, hint: str) -> str:
        """Base oids of a join side's matched rows: the join's own oids
        when the side has no candidate list (its key column is the base
        column), else those oids mapped through the candidates."""
        if rows.cand is None:
            return oids
        return self.emit("algebra.projection", [Ref(oids), Ref(rows.cand)], hint)

    # -- aggregation ------------------------------------------------------
    def agg_arg_slot(self, spec: AggSpec, rows: Rows, gids: Optional[str]) -> str:
        """Slot of the aggregate's argument column (aligned with rows)."""
        if spec.arg is None:  # count(*)
            if gids is not None:
                return gids
            return self.any_column(rows)
        atom = self.binding.atom_of(spec.arg) if not isinstance(rows, ColRows) else Atom.FLT
        return self.expr_slot(spec.arg, rows, atom)

    def compile_aggregate(self, node: LAggregate, rows: Rows) -> ColRows:
        """Full (non-incremental) aggregation."""
        if node.keys:
            key_slots = [
                self.expr_slot(key, rows, atom)
                for key, atom in zip(node.keys, node.key_atoms)
            ]
            gids, extents, ngroups = self.emit_multi(
                "group.group",
                [Ref(s) for s in key_slots],
                ["gids", "extents", "ng"],
            )
            out: dict[str, str] = {}
            for index, key_slot in enumerate(key_slots):
                out[f"key_{index}"] = self.emit(
                    "algebra.projection", [Ref(extents), Ref(key_slot)], f"key{index}"
                )
            for spec in node.aggs:
                arg = self.agg_arg_slot(spec, rows, gids)
                opcode = f"aggr.sub{spec.func}"
                out[spec.out] = self.emit(
                    opcode, [Ref(arg), Ref(gids), Ref(ngroups)], spec.out
                )
            return ColRows(out)
        # global aggregation
        out = {}
        for spec in node.aggs:
            arg = self.agg_arg_slot(spec, rows, None)
            out[spec.out] = self.emit(f"aggr.{spec.func}", [Ref(arg)], spec.out)
        if len(out) > 1:
            aligned = self.emit_multi(
                "aggr.align",
                [Ref(slot) for slot in out.values()],
                list(out.keys()),
            )
            out = dict(zip(out.keys(), aligned))
        return ColRows(out)

    # -- top operators ------------------------------------------------------
    def compile_project(self, node: LProject, rows: Rows) -> ColRows:
        out: dict[str, str] = {}
        for (expr, name), atom in zip(node.items, node.atoms):
            out[name] = self.expr_slot(expr, rows, atom)
        return ColRows(out)

    def compile_distinct(self, rows: ColRows) -> ColRows:
        gids, extents, ngroups = self.emit_multi(
            "group.group",
            [Ref(slot) for slot in rows.slots.values()],
            ["gids", "extents", "ng"],
        )
        del gids, ngroups
        return ColRows(
            {
                name: self.emit("algebra.projection", [Ref(extents), Ref(slot)], name)
                for name, slot in rows.slots.items()
            }
        )

    def compile_order(self, node: LOrder, rows: ColRows) -> ColRows:
        order: Optional[str] = None
        for name, descending in reversed(node.keys):
            key_slot = rows.slots[name]
            if order is None:
                __, order = self.emit_multi(
                    "algebra.sort", [Ref(key_slot), Lit(descending)], ["sorted", "ord"]
                )
            else:
                order = self.emit(
                    "algebra.sortrefine",
                    [Ref(order), Ref(key_slot), Lit(descending)],
                    "ord",
                )
        assert order is not None
        return ColRows(
            {
                name: self.emit("algebra.projection", [Ref(order), Ref(slot)], name)
                for name, slot in rows.slots.items()
            }
        )

    def compile_limit(self, node: LLimit, rows: ColRows) -> ColRows:
        return ColRows(
            {
                name: self.emit(
                    "bat.slice", [Ref(slot), Lit(0), Lit(node.count)], name
                )
                for name, slot in rows.slots.items()
            }
        )

    # -- whole-tree compilation ---------------------------------------------
    def compile_tree(self, node: LogicalNode) -> Rows:
        """Recursively compile a logical subtree."""
        if isinstance(node, LScan):
            return self.rows_for_scan(node)
        if isinstance(node, LFilter):
            return self.compile_filter(node.predicate, self.compile_tree(node.child))
        if isinstance(node, LJoin):
            left = self.compile_tree(node.left)
            right = self.compile_tree(node.right)
            if not isinstance(left, BaseRows) or not isinstance(right, BaseRows):
                raise PlanError("joins over non-base inputs are not supported")
            return self.compile_join(node, left, right)
        if isinstance(node, LAggregate):
            return self.compile_aggregate(node, self.compile_tree(node.child))
        if isinstance(node, LProject):
            return self.compile_project(node, self.compile_tree(node.child))
        if isinstance(node, LDistinct):
            rows = self.compile_tree(node.child)
            assert isinstance(rows, ColRows)
            return self.compile_distinct(rows)
        if isinstance(node, LOrder):
            rows = self.compile_tree(node.child)
            assert isinstance(rows, ColRows)
            return self.compile_order(node, rows)
        if isinstance(node, LLimit):
            rows = self.compile_tree(node.child)
            assert isinstance(rows, ColRows)
            return self.compile_limit(node, rows)
        raise PlanError(f"cannot compile node {type(node).__name__}")


def compile_full(planned: PlannedQuery) -> CompiledQuery:
    """Compile a complete plan (re-evaluation / one-time query path)."""
    compiler = PlanCompiler(planned.binding)
    rows = compiler.compile_tree(planned.plan)
    if not isinstance(rows, ColRows):
        raise PlanError("plan root did not produce materialized columns")
    names = [name for name, __ in planned.plan.output_columns()]
    atoms = [atom for __, atom in planned.plan.output_columns()]
    slots = [rows.slots[name] for name in names]
    compiler.program.outputs = tuple(slots)
    eliminate_dead_code(compiler.program)
    compiler.program.validate()
    return CompiledQuery(
        program=compiler.program,
        scan_inputs=compiler.scan_inputs,
        output_names=names,
        output_atoms=atoms,
        output_slots=slots,
    )
