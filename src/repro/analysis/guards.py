"""The engine's lock model: guard annotations and the declared lock order.

State more than one thread writes is annotated at its definition site
with a trailing ``# guarded-by: <lock>`` comment::

    self.dropped = 0          # guarded-by: _lock
    def _admit(self, n):      # guarded-by: self._lock

On an attribute assignment in ``__init__`` the comment names the lock
attribute (of the same object) that must be held around every read or
write of that attribute.  On a ``def`` line it declares a *calling
convention*: the method body runs with the named lock of ``self``
already held — the annotation both exempts the body from guard findings
and seeds the checker's held-lock set so nested accesses stay checked.

State only the firing thread writes carries no annotation and no lock
(DESIGN.md §6).  This module extracts the annotations from source
(:func:`harvest_file`) and declares the
engine-wide **lock order** — the total order every code path must
acquire locks in; :mod:`repro.analysis.concurrency` checks code against
it and :mod:`repro.testing.lockcheck` replays runtime acquisitions
against it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Optional

#: The engine-wide lock acquisition order (DESIGN.md §6).  A thread
#: holding lock ``LOCK_ORDER[i]`` may only acquire locks at strictly
#: higher positions.  Nodes are ``ClassName.attr``; every lock the engine
#: constructs is one of them (tests/test_concurrency_lint.py checks).
LOCK_ORDER: tuple[str, ...] = (
    "DurabilityManager.lock",
    "DataCellEngine._shard_pump_lock",
    "Scheduler._scan_lock",
    "Basket._lock",
    "CollectingEmitter._lock",
)

#: Rank of each declared lock node (lower acquires first).
LOCK_RANKS: dict[str, int] = {node: i for i, node in enumerate(LOCK_ORDER)}

_GUARD_RE = re.compile(r"guarded-by:\s*([\w.]+)")

#: ``threading`` constructors that create a lock (or lock-like) object.
LOCK_CTORS = ("Lock", "RLock", "Condition")


@dataclass
class ClassGuards:
    """Everything the checker knows about one class's locking discipline."""

    name: str
    #: attribute → lock attribute that guards it (both bare names).
    guarded: dict[str, str] = field(default_factory=dict)
    #: attributes that *are* locks (Lock/RLock/Condition instances).
    locks: set[str] = field(default_factory=set)
    #: Condition attr → the lock attr it wraps (holding either is holding
    #: both: ``Condition(self._lock)`` shares the underlying lock).
    lock_aliases: dict[str, str] = field(default_factory=dict)
    #: method name → lock attribute of ``self`` the method is entered with.
    guarded_methods: dict[str, str] = field(default_factory=dict)
    #: attribute → class name of the object stored there (for receiver
    #: chains like ``engine.obs.spans``).
    member_types: dict[str, str] = field(default_factory=dict)

    def canonical_lock(self, lock_attr: str) -> str:
        """Resolve a Condition alias to the lock it wraps."""
        return self.lock_aliases.get(lock_attr, lock_attr)

    def equivalent_locks(self, lock_attr: str) -> set[str]:
        """All attrs naming the same underlying lock (aliases included)."""
        canonical = self.canonical_lock(lock_attr)
        return {canonical} | {
            alias for alias, target in self.lock_aliases.items() if target == canonical
        }


def comment_lines(source: str) -> dict[int, str]:
    """Line number → comment text of source that parses, via the
    tokenizer (string-safe)."""
    return {
        token.start[0]: token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }


def guard_annotation(
    comments: dict[int, str], first_line: int, last_line: Optional[int]
) -> Optional[str]:
    """The ``guarded-by:`` target on any line of a statement, if present."""
    for line in range(first_line, (last_line or first_line) + 1):
        comment = comments.get(line)
        if comment:
            match = _GUARD_RE.search(comment)
            if match:
                return match.group(1).removeprefix("self.")
    return None


def lock_ctor_name(node: Optional[ast.AST]) -> Optional[str]:
    """``threading.Lock()``-style call → ctor name, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in LOCK_CTORS:
        if isinstance(func.value, ast.Name) and func.value.id == "threading":
            return func.attr
    if isinstance(func, ast.Name) and func.id in LOCK_CTORS:
        return func.id
    return None


def annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name from a type annotation.

    Handles ``Name``, string annotations, ``Optional[X]``, ``X | None``
    and quoted forward references; anything else is unknown.
    """
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: re-parse the inner expression.
        try:
            return annotation_class(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            return annotation_class(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = annotation_class(node.left)
        if left is not None and not (
            isinstance(node.left, ast.Constant) and node.left.value is None
        ):
            return left
        return annotation_class(node.right)
    return None


def ctor_class(node: Optional[ast.AST]) -> Optional[str]:
    """``ClassName(...)`` → class name."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name and (name[0].isupper() or name.startswith("_")):
            return name
    return None


def _harvest_init_body(
    cls: ClassGuards, fn: ast.FunctionDef, comments: dict[int, str]
) -> None:
    """Collect locks, aliases, guards, and member types from an ``__init__``."""
    for stmt in ast.walk(fn):
        target: Optional[ast.Attribute] = None
        value: Optional[ast.AST] = None
        annotation: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            if isinstance(stmt.targets[0], ast.Attribute):
                target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Attribute):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
        if target is None or not (
            isinstance(target.value, ast.Name) and target.value.id == "self"
        ):
            continue
        attr = target.attr
        ctor = lock_ctor_name(value)
        if ctor is not None:
            cls.locks.add(attr)
            if ctor == "Condition" and isinstance(value, ast.Call) and value.args:
                arg = value.args[0]
                if (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"
                ):
                    cls.lock_aliases[attr] = arg.attr
            continue
        guard = guard_annotation(
            comments, stmt.lineno, getattr(stmt, "end_lineno", stmt.lineno)
        )
        if guard is not None:
            cls.guarded[attr] = guard
        member = ctor_class(value) or annotation_class(annotation)
        if member is None and isinstance(value, ast.Name):
            # ``self.obs = obs``: propagate the parameter's annotation.
            for arg in fn.args.args + fn.args.kwonlyargs:
                if arg.arg == value.id:
                    member = annotation_class(arg.annotation)
                    break
        if member is not None:
            cls.member_types.setdefault(attr, member)


def harvest_file(source: str, tree: ast.Module) -> dict[str, ClassGuards]:
    """The guard model of every class defined in one file, by class name."""
    comments = comment_lines(source)
    model: dict[str, ClassGuards] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls = ClassGuards(name=node.name)
        for item in node.body:
            # Class-body annotations (dataclass fields) type members.
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                member = annotation_class(item.annotation)
                if member is not None:
                    cls.member_types.setdefault(item.target.id, member)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name in ("__init__", "__post_init__"):
                    _harvest_init_body(cls, item, comments)
                guard = guard_annotation(
                    comments, item.lineno, item.body[0].lineno - 1
                )
                if guard is not None:
                    cls.guarded_methods[item.name] = guard
        model[cls.name] = cls
    return model
