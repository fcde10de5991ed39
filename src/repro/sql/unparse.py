"""AST → SQL text, round-trippable through the parser.

The partitioned-execution layer (:mod:`repro.core.partition`) rewrites a
submitted query's AST — substituting window clauses, splitting aggregates
into partials, synthesizing merge queries — and then needs SQL *text*
again, because each partition engine parses and plans its own copy of
the query.  This module renders any :class:`repro.sql.ast.Query` (or
bare expression) back to SQL the lexer/parser accept verbatim.

Rendering is deliberately conservative: every binary/unary expression is
fully parenthesized, so operator precedence never has to be re-derived,
and ``unparse(parse(sql))`` always re-parses to a structurally equal AST
(property-tested in ``tests/test_unparse.py``).
"""

from __future__ import annotations

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
)

#: AST operator spellings that differ from their token spellings.
_OP_TEXT = {"==": "="}


def unparse_expr(expr: Expr) -> str:
    """Render one expression; parenthesized wherever nesting is possible."""
    if isinstance(expr, Literal):
        return _literal(expr.value)
    if isinstance(expr, ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, BinOp):
        op = _OP_TEXT.get(expr.op, expr.op)
        return f"({unparse_expr(expr.left)} {op} {unparse_expr(expr.right)})"
    if isinstance(expr, UnaryOp):
        sep = " " if expr.op.isalpha() else ""
        return f"({expr.op}{sep}{unparse_expr(expr.operand)})"
    if isinstance(expr, FuncCall):
        inner = "*" if expr.star else ", ".join(unparse_expr(a) for a in expr.args)
        return f"{expr.name}({inner})"
    raise TypeError(f"cannot unparse expression node {expr!r}")


def _literal(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        # repr keeps full precision; the lexer needs a digit before any
        # exponent/dot, which repr guarantees for finite floats.
        return repr(value)
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"cannot unparse literal {value!r}")


def _window(window: WindowClause) -> str:
    if window.kind == "landmark":
        if window.time_based:
            if window.step % 1_000:
                raise ValueError(
                    "cannot render a time window with sub-millisecond "
                    f"boundaries: step={window.step}us"
                )
            return f"[LANDMARK SLIDE {window.step // 1_000} MILLISECONDS]"
        return f"[LANDMARK SLIDE {window.step}]"
    if window.time_based:
        # Microseconds (the AST's canonical unit) have no keyword of their
        # own; milliseconds are the finest the grammar lexes, so time
        # windows must sit on whole-millisecond boundaries.
        size, step = window.size, window.step
        assert size is not None
        if size % 1_000 or step % 1_000:
            raise ValueError(
                "cannot render a time window with sub-millisecond "
                f"boundaries: size={size}us step={step}us"
            )
        text = f"[RANGE {size // 1_000} MILLISECONDS"
        if window.kind == "sliding":
            text += f" SLIDE {step // 1_000} MILLISECONDS"
        return text + "]"
    text = f"[RANGE {window.size}"
    if window.kind == "sliding":
        text += f" SLIDE {window.step}"
    return text + "]"


def _table(table: TableRef) -> str:
    # Grammar order: name [AS alias] [window-clause].
    text = table.name
    if table.alias != table.name:
        text += f" AS {table.alias}"
    if table.window is not None:
        text += f" {_window(table.window)}"
    return text


def _select_item(item: SelectItem) -> str:
    text = unparse_expr(item.expr)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _order_item(item: OrderItem) -> str:
    return unparse_expr(item.expr) + (" DESC" if item.descending else "")


def unparse(query: Query) -> str:
    """Render a full SELECT statement the parser accepts verbatim."""
    parts = ["SELECT"]
    if query.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(item) for item in query.select_items))
    parts.append("FROM")
    parts.append(", ".join(_table(table) for table in query.tables))
    if query.where is not None:
        parts.append(f"WHERE {unparse_expr(query.where)}")
    if query.group_by:
        parts.append(
            "GROUP BY " + ", ".join(unparse_expr(e) for e in query.group_by)
        )
    if query.having is not None:
        parts.append(f"HAVING {unparse_expr(query.having)}")
    if query.order_by:
        parts.append(
            "ORDER BY " + ", ".join(_order_item(item) for item in query.order_by)
        )
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return " ".join(parts)
