"""Abstract syntax tree for the SQL subset.

The grammar covers what the paper's workloads and examples need:
``SELECT``/``FROM``/``WHERE``/``GROUP BY``/``HAVING``/``ORDER BY``/``LIMIT``,
``DISTINCT``, scalar expressions, aggregates, 2-way equi-joins, and a window
clause attached to stream relations::

    SELECT x1, sum(x2) FROM s [RANGE 10240 SLIDE 20]
    WHERE x1 > 10 GROUP BY x1

Window forms:
``[RANGE n SLIDE m]``                count-based sliding window
``[RANGE n]``                        tumbling (slide == size)
``[LANDMARK SLIDE m]``               landmark window, report every m tuples
``[RANGE 10 SECONDS SLIDE 2 SECONDS]`` time-based sliding window
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class for expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Literal(Expr):
    value: object

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Possibly-qualified column reference; ``table`` is None if bare."""

    table: Optional[str]
    name: str

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / % == != < <= > >= and or
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # - not
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


AGGREGATE_FUNCS = frozenset({"sum", "count", "min", "max", "avg"})


@dataclass(frozen=True)
class FuncCall(Expr):
    """Function application; only aggregates are currently defined."""

    name: str
    args: tuple[Expr, ...]
    star: bool = False  # count(*)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCS

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


def walk(expr: Expr):
    """Yield ``expr`` and all nested sub-expressions, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def contains_aggregate(expr: Expr) -> bool:
    """True if any nested node is an aggregate function call."""
    return any(isinstance(e, FuncCall) and e.is_aggregate for e in walk(expr))


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowClause:
    """Window specification attached to a stream in the FROM clause.

    ``size``/``step`` are tuple counts for count-based windows and
    microseconds for time-based ones.  Landmark windows have no size.
    """

    kind: str  # "sliding" | "tumbling" | "landmark"
    size: Optional[int]
    step: int
    time_based: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("sliding", "tumbling", "landmark"):
            raise ValueError(f"bad window kind {self.kind!r}")


# ----------------------------------------------------------------------
# query structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str
    window: Optional[WindowClause] = None

    def __str__(self) -> str:
        suffix = f" {self.alias}" if self.alias != self.name else ""
        return f"{self.name}{suffix}"


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    def output_name(self, position: int) -> str:
        """Column name in the result set."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return f"col{position}"


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class Query:
    """A parsed SELECT statement."""

    select_items: list[SelectItem]
    tables: list[TableRef]
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
