"""Name resolution and type checking for parsed queries.

The binder resolves every :class:`~repro.sql.ast.ColumnRef` against the
catalog through the FROM clause's aliases, rejects ambiguous bare names, and
computes the result atom of every expression.  It leaves the AST untouched —
resolution is returned as a :class:`Binding` lookup object keyed by the
(hashable, structurally-equal) expression nodes, which is sound because two
structurally equal references inside one query scope resolve identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BindError
from repro.kernel.atoms import Atom, division_result, promote
from repro.kernel.storage import Catalog
from repro.sql.ast import (
    AGGREGATE_FUNCS,
    BinOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    Query,
    UnaryOp,
    contains_aggregate,
    walk,
)

_COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_BOOL_OPS = frozenset({"and", "or"})
_ARITH_OPS = frozenset({"+", "-", "*", "%"})


@dataclass(frozen=True)
class BoundColumn:
    """Resolution of one column reference."""

    alias: str
    relation: str
    column: str
    atom: Atom
    is_stream: bool


class Binding:
    """Per-query name-resolution and typing context."""

    def __init__(self, query: Query, catalog: Catalog) -> None:
        self._catalog = catalog
        self._aliases: dict[str, str] = {}
        self._schemas: dict[str, list[tuple[str, Atom]]] = {}
        self._is_stream: dict[str, bool] = {}
        for table in query.tables:
            if table.alias in self._aliases:
                raise BindError(f"duplicate alias {table.alias!r} in FROM")
            schema = catalog.schema_of(table.name)
            self._aliases[table.alias] = table.name
            self._schemas[table.alias] = list(schema.columns)
            self._is_stream[table.alias] = catalog.is_stream(table.name)

    # -- relations ---------------------------------------------------------
    @property
    def aliases(self) -> list[str]:
        return list(self._aliases)

    def is_stream(self, alias: str) -> bool:
        return self._is_stream[alias]

    def schema_of(self, alias: str) -> list[tuple[str, Atom]]:
        return self._schemas[alias]

    # -- columns ---------------------------------------------------------
    def resolve(self, ref: ColumnRef) -> BoundColumn:
        """Resolve a column reference, raising on unknown/ambiguous names."""
        if ref.table is not None:
            if ref.table not in self._aliases:
                raise BindError(f"unknown relation alias {ref.table!r}")
            for name, atom in self._schemas[ref.table]:
                if name == ref.name:
                    return BoundColumn(
                        ref.table,
                        self._aliases[ref.table],
                        name,
                        atom,
                        self._is_stream[ref.table],
                    )
            raise BindError(f"relation {ref.table!r} has no column {ref.name!r}")
        hits: list[BoundColumn] = []
        for alias, schema in self._schemas.items():
            for name, atom in schema:
                if name == ref.name:
                    hits.append(
                        BoundColumn(
                            alias,
                            self._aliases[alias],
                            name,
                            atom,
                            self._is_stream[alias],
                        )
                    )
        if not hits:
            raise BindError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            aliases = ", ".join(hit.alias for hit in hits)
            raise BindError(f"ambiguous column {ref.name!r} (in {aliases})")
        return hits[0]

    def aliases_in(self, expr: Expr) -> set[str]:
        """Relation aliases referenced anywhere inside ``expr``."""
        return {
            self.resolve(node).alias
            for node in walk(expr)
            if isinstance(node, ColumnRef)
        }

    # -- typing ---------------------------------------------------------
    def atom_of(self, expr: Expr) -> Atom:
        """Result atom of an expression (raises BindError on type errors)."""
        if isinstance(expr, Literal):
            if expr.value is None:
                raise BindError("NULL literals are not supported in expressions")
            from repro.kernel.atoms import atom_of_python

            return atom_of_python(expr.value)
        if isinstance(expr, ColumnRef):
            return self.resolve(expr).atom
        if isinstance(expr, UnaryOp):
            inner = self.atom_of(expr.operand)
            if expr.op == "not":
                if inner != Atom.BIT:
                    raise BindError("NOT requires a boolean operand")
                return Atom.BIT
            if expr.op == "-":
                if inner not in (Atom.INT, Atom.FLT):
                    raise BindError(f"cannot negate {inner}")
                return inner
            raise BindError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            if expr.op in _BOOL_OPS:
                if self.atom_of(expr.left) != Atom.BIT or self.atom_of(expr.right) != Atom.BIT:
                    raise BindError(f"{expr.op.upper()} requires boolean operands")
                return Atom.BIT
            left = self.atom_of(expr.left)
            right = self.atom_of(expr.right)
            if expr.op in _COMPARISON_OPS:
                if (left == Atom.STR) != (right == Atom.STR):
                    raise BindError(f"cannot compare {left} with {right}")
                return Atom.BIT
            if expr.op == "/":
                return division_result(left, right)
            if expr.op in _ARITH_OPS:
                try:
                    return promote(left, right)
                except Exception as exc:
                    raise BindError(str(exc)) from exc
            raise BindError(f"unknown operator {expr.op!r}")
        if isinstance(expr, FuncCall):
            return self._function_atom(expr)
        raise BindError(f"cannot type expression {expr!r}")

    def _function_atom(self, call: FuncCall) -> Atom:
        if call.name not in AGGREGATE_FUNCS:
            raise BindError(f"unknown function {call.name!r}")
        if call.star:
            if call.name != "count":
                raise BindError(f"{call.name}(*) is not valid")
            return Atom.INT
        if len(call.args) != 1:
            raise BindError(f"{call.name} takes exactly one argument")
        if contains_aggregate(call.args[0]):
            raise BindError("nested aggregates are not allowed")
        arg = self.atom_of(call.args[0])
        if call.name == "count":
            return Atom.INT
        if call.name == "avg":
            if arg not in (Atom.INT, Atom.FLT):
                raise BindError("avg requires a numeric argument")
            return Atom.FLT
        if call.name == "sum":
            if arg not in (Atom.INT, Atom.FLT):
                raise BindError("sum requires a numeric argument")
            return arg
        # min / max keep the argument atom
        return arg


def bind(query: Query, catalog: Catalog) -> Binding:
    """Create a binding for ``query`` and eagerly validate every expression."""
    binding = Binding(query, catalog)
    for item in query.select_items:
        binding.atom_of(item.expr)
    if query.where is not None:
        if contains_aggregate(query.where):
            raise BindError("aggregates are not allowed in WHERE")
        if binding.atom_of(query.where) != Atom.BIT:
            raise BindError("WHERE predicate must be boolean")
    for key in query.group_by:
        if contains_aggregate(key):
            raise BindError("aggregates are not allowed in GROUP BY")
        binding.atom_of(key)
    if query.having is not None:
        if binding.atom_of(query.having) != Atom.BIT:
            raise BindError("HAVING predicate must be boolean")
    select_aliases = {item.alias for item in query.select_items if item.alias}
    for order in query.order_by:
        if (
            isinstance(order.expr, ColumnRef)
            and order.expr.table is None
            and order.expr.name in select_aliases
        ):
            continue  # ORDER BY a select-list alias — typed via its item
        binding.atom_of(order.expr)
    return binding
