"""Whole-engine concurrency lint (part 1 of ``repro check``).

A flow-insensitive-but-scope-aware AST pass over ``src/repro`` that
checks the engine's locking discipline against the model declared in
:mod:`repro.analysis.guards`:

* **Guarded attributes** — every read/write of an attribute annotated
  ``# guarded-by: <lock>`` must happen inside a ``with <lock>:`` block
  (or in a method whose ``def`` line carries the annotation, meaning the
  caller holds the lock).  ``Condition(self._lock)`` aliases count as
  holding the underlying lock.
* **Lock order** — every statically observable nested acquisition
  becomes an edge ``A -> B`` in the acquisition graph; each edge must go
  strictly down :data:`~repro.analysis.guards.LOCK_ORDER` (an edge
  touching an undeclared lock cannot), and the whole graph must be
  acyclic.
* **No blind sleeps** — ``time.sleep`` must never run under a lock.

That every lock the engine constructs is a declared ``LOCK_ORDER`` node
is a test (tests/test_concurrency_lint.py), not a lint rule.

Held locks are tracked *textually* (``self._lock``, ``basket._lock``).
Receiver classes are inferred from parameter annotations, local
assignments and member-type chains (``engine.obs.spans``); accesses
through receivers the pass cannot type are skipped (under-approximation
— the runtime :mod:`repro.testing.lockcheck` observer covers the dynamic
side).  Nested functions and lambdas are analyzed with an empty held set
since they may run on another thread.

A finding can be suppressed — with justification — by a trailing
``# repro-check: allow(<code>)`` comment on the offending line.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis.diagnostics import Report
from repro.analysis.guards import (
    LOCK_ORDER,
    LOCK_RANKS,
    ClassGuards,
    annotation_class,
    comment_lines,
    ctor_class,
    harvest_file,
)

_ALLOW_RE = re.compile(r"repro-check:\s*allow\(([\w\s,-]+)\)")

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

_ScopeNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


@dataclass(frozen=True)
class LockEdge:
    """One observed ``src held while acquiring dst`` acquisition edge."""

    src: str
    dst: str
    file: str
    line: int


@dataclass
class ConcurrencyResult:
    """Findings plus the lock-acquisition graph."""

    report: Report
    edges: list[LockEdge]
    files: list[str]

    def to_json(self) -> dict[str, object]:
        deduped = sorted({(e.src, e.dst) for e in self.edges})
        return {
            "files": list(self.files),
            "lock_order": list(LOCK_ORDER),
            "edges": [{"src": src, "dst": dst} for src, dst in deduped],
            "report": self.report.to_json(),
        }


def check_paths(paths: Sequence[str]) -> ConcurrencyResult:
    """Run the concurrency lint over the ``.py`` files/directories given."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(str(p) for p in Path(path).rglob("*.py"))
        elif path.endswith(".py"):
            files.append(path)
    sources: list[tuple[str, str]] = []
    report = Report(subject="concurrency")
    for path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                sources.append((path, handle.read()))
        except OSError as exc:
            report.error("module", f"cannot read {path}: {exc}", file=path, code="io-error")
    result = check_sources(sources)
    result.report.diagnostics[:0] = report.diagnostics
    return result


def check_sources(sources: Sequence[tuple[str, str]]) -> ConcurrencyResult:
    """Run the concurrency lint over in-memory ``(path, source)`` pairs."""
    report = Report(subject="concurrency")
    parsed: list[tuple[str, str, ast.Module]] = []
    for path, source in sources:
        try:
            parsed.append((path, source, ast.parse(source)))
        except SyntaxError as exc:
            report.error(
                "module", f"syntax error: {exc.msg}",
                file=path, line=exc.lineno, code="syntax-error",
            )
    model: dict[str, ClassGuards] = {}
    for __, source, tree in parsed:
        model.update(harvest_file(source, tree))
    edges: list[LockEdge] = []
    for path, source, tree in parsed:
        _Module(path, comment_lines(source), model, report, edges).check(tree)
    _check_graph(edges, report)
    return ConcurrencyResult(report, edges, [p for p, _, _ in parsed])


# ----------------------------------------------------------------------
# per-module driver
# ----------------------------------------------------------------------
@dataclass
class _Module:
    """One file's lint state; findings go to the shared report and graph."""

    path: str
    comments: dict[int, str]
    model: dict[str, ClassGuards]
    report: Report
    edges: list[LockEdge]
    #: (node, enclosing class, scope name, is a method of that class)
    worklist: list[tuple[_ScopeNode, Optional[str], Optional[str], bool]] = field(
        default_factory=list
    )

    def check(self, tree: ast.Module) -> None:
        module_level: list[ast.stmt] = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTION_NODES):
                        self.worklist.append((item, node.name, item.name, True))
            elif isinstance(node, _FUNCTION_NODES):
                self.worklist.append((node, None, node.name, False))
            else:
                module_level.append(node)
        _Scope(self, None, None).block(module_level)
        while self.worklist:
            fn, cls, name, method = self.worklist.pop(0)
            _Scope(self, cls, name).run(fn, method)


class _Scope:
    """Checks one function/method body with its own held-lock state."""

    def __init__(
        self, module: _Module, class_name: Optional[str], scope_name: Optional[str]
    ) -> None:
        self.module = module
        self.class_name = class_name
        self.scope_name = scope_name
        #: lock expression text -> ``Class.attr`` node (None if unresolved)
        self.held: dict[str, Optional[str]] = {}
        #: local name -> inferred class (None = unknown)
        self.local_types: dict[str, Optional[str]] = {}

    # -- entry points --------------------------------------------------
    def run(self, fn: _ScopeNode, method: bool) -> None:
        if isinstance(fn, ast.Lambda):
            self._expr(fn.body)
            return
        args = fn.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            cls = annotation_class(arg.annotation)
            if cls is not None:
                self.local_types[arg.arg] = cls
        guards = self._guards(self.class_name)
        lock = guards.guarded_methods.get(fn.name) if method and guards else None
        if lock is not None:
            # Calling convention: the method is entered with this lock
            # held — seed it without recording an acquisition.
            self.held[f"self.{lock}"] = self._lock_node(self.class_name, lock)
        self.block(fn.body)

    def block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    # -- statements ----------------------------------------------------
    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, _FUNCTION_NODES):
            # May run on another thread: analyzed with an empty held set.
            self.module.worklist.append((node, self.class_name, node.name, False))
            return
        if isinstance(node, ast.ClassDef):
            return  # nested classes: out of scope for this pass
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._expr(node.iter)
            self._shadow_targets(node.target)
            self._expr(node.target)
            self.block(node.body)
            self.block(node.orelse)
            return
        if isinstance(node, ast.Assign):
            self._expr(node.value)
            for target in node.targets:
                self._expr(target)
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                self._track_local(node.targets[0].id, node.value)
            return
        if isinstance(node, ast.AnnAssign):
            self._expr(node.value)
            self._expr(node.target)
            if isinstance(node.target, ast.Name):
                self.local_types[node.target.id] = annotation_class(node.annotation)
            return
        if isinstance(node, ast.Try):
            self.block(node.body)
            for handler in node.handlers:
                self._expr(handler.type)
                self.block(handler.body)
            self.block(node.orelse)
            self.block(node.finalbody)
            return
        # Generic statement: check expressions, recurse into sub-blocks.
        for _, value in ast.iter_fields(node):
            if isinstance(value, list):
                for child in value:
                    if isinstance(child, ast.stmt):
                        self._stmt(child)
                    elif isinstance(child, ast.expr):
                        self._expr(child)
            elif isinstance(value, ast.stmt):
                self._stmt(value)
            elif isinstance(value, ast.expr):
                self._expr(value)

    def _with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        added: list[str] = []
        for item in node.items:
            self._expr(item.context_expr)
            if item.optional_vars is not None:
                self._shadow_targets(item.optional_vars)
                self._expr(item.optional_vars)
            if isinstance(item.context_expr, ast.Attribute):
                text = ast.unparse(item.context_expr)
                if text not in self.held:  # else: re-entrant, no new edge
                    expr = item.context_expr
                    lock = self._lock_node(self._class_of(expr.value), expr.attr)
                    self._acquire(text, lock, expr.lineno)
                    added.append(text)
        self.block(node.body)
        for text in added:
            del self.held[text]

    # -- expressions ---------------------------------------------------
    def _expr(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Lambda):
            self.module.worklist.append((node, self.class_name, self.scope_name, False))
            return
        if isinstance(node, ast.Attribute):
            self._attribute(node)
        elif isinstance(node, ast.Call):
            self._call(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.expr_context)):
                continue
            self._expr(child)

    def _attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        rtext = ast.unparse(node.value)
        cls = self._class_of(node.value)
        guards = self._guards(cls)
        if guards is None or attr not in guards.guarded:
            return
        if rtext == "self" and self.scope_name in ("__init__", "__post_init__"):
            return
        lock = guards.guarded[attr]
        if {f"{rtext}.{alias}" for alias in guards.equivalent_locks(lock)} & self.held.keys():
            return
        writing = isinstance(node.ctx, (ast.Store, ast.Del))
        code = "unguarded-write" if writing else "unguarded-read"
        if not self._allowed(node.lineno, code):
            verb = "write to" if writing else "read of"
            self.module.report.error(
                self._where(),
                f"{verb} {cls}.{attr} (guarded-by {lock}) without holding "
                f"{rtext}.{guards.canonical_lock(lock)}",
                file=self.module.path, line=node.lineno, code=code,
            )

    def _call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and self.held
            and not self._allowed(node.lineno, "sleep-under-lock")
        ):
            self.module.report.error(
                self._where(),
                f"time.sleep() while holding {', '.join(sorted(self.held))}",
                file=self.module.path, line=node.lineno, code="sleep-under-lock",
            )

    # -- lock resolution -----------------------------------------------
    def _lock_node(self, cls: Optional[str], attr: str) -> Optional[str]:
        """``Class.attr`` graph node of ``cls``'s lock ``attr``, if known."""
        guards = self._guards(cls)
        if guards is not None and attr in guards.locks:
            return f"{cls}.{guards.canonical_lock(attr)}"
        return None

    def _acquire(self, text: str, node: Optional[str], line: int) -> None:
        if node is not None:
            for held in self.held.values():
                if held is not None:
                    self.module.edges.append(LockEdge(held, node, self.module.path, line))
        self.held[text] = node

    # -- receiver typing -----------------------------------------------
    def _guards(self, cls: Optional[str]) -> Optional[ClassGuards]:
        return self.module.model.get(cls) if cls is not None else None

    def _class_of(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.class_name
            return self.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            guards = self._guards(self._class_of(expr.value))
            if guards is not None:
                return guards.member_types.get(expr.attr)
        return None

    def _track_local(self, name: str, value: ast.expr) -> None:
        if isinstance(value, (ast.Name, ast.Attribute)):
            self.local_types[name] = self._class_of(value)
            return
        cls = ctor_class(value)
        self.local_types[name] = cls if cls in self.module.model else None

    def _shadow_targets(self, target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.local_types[node.id] = None

    # -- misc ----------------------------------------------------------
    def _where(self) -> str:
        if self.class_name is not None and self.scope_name is not None:
            return f"{self.class_name}.{self.scope_name}"
        return self.scope_name or "module"

    def _allowed(self, line: int, code: str) -> bool:
        comment = self.module.comments.get(line)
        if not comment:
            return False
        match = _ALLOW_RE.search(comment)
        return bool(match and code in match.group(1))


# ----------------------------------------------------------------------
# whole-program check
# ----------------------------------------------------------------------
def _check_graph(edges: Sequence[LockEdge], report: Report) -> None:
    """Validate the acquisition graph against the declared lock order."""
    seen: dict[tuple[str, str], LockEdge] = {}
    for edge in edges:
        seen.setdefault((edge.src, edge.dst), edge)
    for (src, dst), edge in sorted(seen.items()):
        src_rank = LOCK_RANKS.get(src)
        dst_rank = LOCK_RANKS.get(dst)
        if src_rank is None or dst_rank is None:
            why = "involves a lock outside the declared LOCK_ORDER"
        elif src_rank >= dst_rank:
            why = f"goes up the declared lock order (rank {src_rank} -> {dst_rank})"
        else:
            continue
        report.error(
            "lock-order",
            f"{src} held while acquiring {dst} — {why}",
            file=edge.file, line=edge.line, code="lock-order-violation",
        )
    adjacency: dict[str, list[str]] = {}
    for src, dst in seen:
        adjacency.setdefault(src, []).append(dst)
    color: dict[str, int] = {}
    stack: list[str] = []

    def dfs(node: str) -> None:
        color[node] = 1
        stack.append(node)
        for nxt in sorted(adjacency.get(node, ())):
            if color.get(nxt, 0) == 1:
                cycle = stack[stack.index(nxt):] + [nxt]
                edge = seen[(node, nxt)]
                report.error(
                    "lock-order",
                    "lock acquisition cycle: " + " -> ".join(cycle),
                    file=edge.file, line=edge.line, code="lock-cycle",
                )
            elif color.get(nxt, 0) == 0:
                dfs(nxt)
        stack.pop()
        color[node] = 2

    for node in sorted(adjacency):
        if color.get(node, 0) == 0:
            dfs(node)
