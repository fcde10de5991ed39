"""Whole-engine concurrency lint (part 1 of ``repro check``).

A flow-insensitive-but-scope-aware AST pass over ``src/repro`` that
checks the engine's locking discipline against the model declared in
:mod:`repro.analysis.guards`:

* **Guarded attributes** — every read/write of an attribute annotated
  ``# guarded-by: <lock>`` must happen inside a ``with <lock>:`` block
  (or in a method whose ``def`` line carries the annotation, meaning the
  caller holds the lock).  ``Condition(self._lock)`` aliases count as
  holding the underlying lock, and ``basket.locked()`` is recognized as
  ``basket._lock``.
* **Lock order** — every statically observable nested acquisition
  becomes an edge ``A -> B`` in the acquisition graph; edges between
  locks in :data:`~repro.analysis.guards.LOCK_ORDER` must go strictly
  down the declared order, and the whole graph must be acyclic.
  ``self.m()`` calls propagate the callee's acquisitions to the caller's
  held set (intra-class, fixpoint over the call graph).
* **Engine invariants** — every ``threading.Lock``/``RLock``/
  ``Condition`` constructed in the engine must live on a class (locks
  need an owner), ``time.sleep`` must never run under a lock, and
  private (``_underscore``) attributes must not be written from outside
  their class (the "no basket mutation outside ``basket._lock``" rule,
  generalized).

Held locks are tracked *textually* (``self._lock``, ``other._lock``,
``basket._lock``) so cross-object disciplines like
``Profiler.merge_from`` check naturally.  Receiver classes are inferred
from parameter annotations, local assignments, member-type chains
(``engine.obs.spans``), and the naming conventions in
:data:`~repro.analysis.guards.NAME_HINTS`; accesses through receivers
the pass cannot type are skipped (under-approximation — the runtime
:mod:`repro.testing.lockcheck` oracle covers the dynamic side).

Deliberate approximations: ``.acquire()`` holds for the rest of the
function (``.release()`` is ignored), and nested functions/lambdas are
analyzed with an empty held set since they may run on another thread.

A finding can be suppressed — with justification — by a trailing
``# repro-check: allow(<code>)`` comment on the offending line.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.analysis.diagnostics import Report
from repro.analysis.guards import (
    LOCK_ORDER,
    LOCK_RANKS,
    NAME_HINTS,
    GuardModel,
    annotation_class,
    comment_lines,
    ctor_class,
    harvest_file,
    lock_ctor_name,
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

    def to_json(self) -> dict[str, object]:
        return {"src": self.src, "dst": self.dst, "file": self.file, "line": self.line}


@dataclass
class ConcurrencyResult:
    """Findings plus the extracted model and lock-acquisition graph."""

    report: Report
    model: GuardModel
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


@dataclass
class _MethodFacts:
    """Per-method lock acquisitions and intra-class calls (for closure)."""

    acquires: set[str] = field(default_factory=set)
    calls: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class _SelfCall:
    """A ``self.callee()`` made while holding locks (edge propagation)."""

    cls: str
    callee: str
    held: frozenset[str]
    file: str
    line: int


def iter_python_files(paths: Sequence[str]) -> list[str]:
    """All ``.py`` files under the given files/directories, sorted."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    return out


def check_paths(paths: Sequence[str]) -> ConcurrencyResult:
    """Run the concurrency lint over files/directories on disk."""
    sources: list[tuple[str, str]] = []
    report = Report(subject="concurrency")
    for path in iter_python_files(paths):
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
    model = GuardModel()
    for path, source, tree in parsed:
        model.merge(harvest_file(path, source, tree))
    edges: list[LockEdge] = []
    registry: dict[tuple[str, str], _MethodFacts] = {}
    self_calls: list[_SelfCall] = []
    for path, source, tree in parsed:
        comments = comment_lines(source)
        _check_module(path, tree, comments, model, report, edges, registry, self_calls)
        _check_lock_owners(path, tree, comments, report)
    _propagate_self_calls(registry, self_calls, edges)
    _check_graph(edges, report)
    return ConcurrencyResult(report, model, edges, [p for p, _, _ in parsed])


# ----------------------------------------------------------------------
# per-module driver
# ----------------------------------------------------------------------
def _check_module(
    path: str,
    tree: ast.Module,
    comments: dict[int, str],
    model: GuardModel,
    report: Report,
    edges: list[LockEdge],
    registry: dict[tuple[str, str], _MethodFacts],
    self_calls: list[_SelfCall],
) -> None:
    # (node, enclosing class, scope name, register-in-call-graph)
    worklist: list[tuple[_ScopeNode, Optional[str], Optional[str], bool]] = []
    module_level: list[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTION_NODES):
                    worklist.append((item, node.name, item.name, True))
        elif isinstance(node, _FUNCTION_NODES):
            worklist.append((node, None, node.name, True))
        else:
            module_level.append(node)
    scope = _Scope(
        path, comments, model, report, edges, None, None,
        registry, self_calls, worklist, register=False,
    )
    scope.block(module_level)
    while worklist:
        fn, cls, name, register = worklist.pop(0)
        _Scope(
            path, comments, model, report, edges, cls, name,
            registry, self_calls, worklist, register=register,
        ).run(fn)


class _Scope:
    """Checks one function/method body with its own held-lock state."""

    def __init__(
        self,
        path: str,
        comments: dict[int, str],
        model: GuardModel,
        report: Report,
        edges: list[LockEdge],
        class_name: Optional[str],
        scope_name: Optional[str],
        registry: dict[tuple[str, str], _MethodFacts],
        self_calls: list[_SelfCall],
        worklist: list[tuple[_ScopeNode, Optional[str], Optional[str], bool]],
        register: bool,
    ) -> None:
        self.path = path
        self.comments = comments
        self.model = model
        self.report = report
        self.edges = edges
        self.class_name = class_name
        self.scope_name = scope_name
        self.registry = registry
        self.self_calls = self_calls
        self.worklist = worklist
        self.register = register
        #: lock expression text -> ``Class.attr`` node (None if unresolved)
        self.held: dict[str, Optional[str]] = {}
        #: local name -> inferred class (None = unknown, shadows NAME_HINTS)
        self.local_types: dict[str, Optional[str]] = {}
        self.acquires: set[str] = set()
        self.calls: list[str] = []

    # -- entry points --------------------------------------------------
    def run(self, fn: _ScopeNode) -> None:
        if isinstance(fn, ast.Lambda):
            self._expr(fn.body)
            return
        args = fn.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            cls = annotation_class(arg.annotation)
            if cls is not None:
                self.local_types[arg.arg] = cls
        guards = self.model.guards_for(self.class_name)
        if self.register and guards is not None and self.scope_name is not None:
            lock = guards.guarded_methods.get(self.scope_name)
            if lock is not None:
                # Calling convention: the method is entered with this
                # lock held — seed it without counting an acquisition.
                self.held[lock] = self._lock_node_for_text(lock)
        self.block(fn.body)
        if self.register and self.class_name is not None and self.scope_name is not None:
            self.registry[(self.class_name, self.scope_name)] = _MethodFacts(
                set(self.acquires), list(self.calls)
            )

    def block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    # -- statements ----------------------------------------------------
    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, _FUNCTION_NODES):
            # May run on another thread: analyzed with an empty held set.
            self.worklist.append((node, self.class_name, node.name, False))
            return
        if isinstance(node, ast.ClassDef):
            return  # nested classes: out of scope for this pass
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
            return
        if isinstance(node, ast.If):
            self._if(node)
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
        if isinstance(node, ast.Expr):
            self._expr(node.value)
            acquired = self._acquire_call(node.value)
            if acquired is not None:
                # Bare ``X.acquire()``: held for the rest of the function.
                self._acquire(acquired[0], acquired[1], node.lineno)
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
            resolved = self._lock_item(item.context_expr)
            if resolved is not None:
                text, lock_node = resolved
                if self._acquire(text, lock_node, item.context_expr.lineno):
                    added.append(text)
        self.block(node.body)
        for text in added:
            del self.held[text]

    def _if(self, node: ast.If) -> None:
        self._expr(node.test)
        guard = self._acquire_guard(node)
        # The guarded body runs when acquisition FAILED — check it (and
        # the orelse) before marking the lock held.
        self.block(node.body)
        self.block(node.orelse)
        if guard is not None:
            self._acquire(guard[0], guard[1], node.lineno)

    def _acquire_guard(
        self, node: ast.If
    ) -> Optional[tuple[str, Optional[str]]]:
        """``if not X.acquire(...): return`` — X is held afterwards."""
        test = node.test
        if not (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and node.body
            and isinstance(node.body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))
        ):
            return None
        return self._acquire_call(test.operand)

    def _acquire_call(self, node: ast.expr) -> Optional[tuple[str, Optional[str]]]:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            return None
        target = node.func.value
        if isinstance(target, ast.Attribute):
            return self._lock_item(target)
        return None

    # -- expressions ---------------------------------------------------
    def _expr(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Lambda):
            self.worklist.append((node, self.class_name, self.scope_name, False))
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
        if attr.startswith("__"):
            return
        receiver = node.value
        rtext = ast.unparse(receiver)
        cls = self._class_of(receiver)
        guards = self.model.guards_for(cls)
        writing = isinstance(node.ctx, (ast.Store, ast.Del))
        if guards is not None and attr in guards.guarded:
            if rtext == "self" and self.scope_name in ("__init__", "__post_init__"):
                return
            lock = guards.guarded[attr]
            required = {
                f"{rtext}.{alias}" for alias in guards.equivalent_locks(lock)
            }
            if required & self.held.keys():
                return
            code = "unguarded-write" if writing else "unguarded-read"
            if self._allowed(node.lineno, code):
                return
            verb = "write to" if writing else "read of"
            self.report.error(
                self._where(),
                f"{verb} {cls}.{attr} (guarded-by {lock}) without holding "
                f"{rtext}.{guards.canonical_lock(lock)}",
                file=self.path, line=node.lineno, code=code,
            )
            return
        if (
            writing
            and attr.startswith("_")
            and rtext != "self"
            and not self._allowed(node.lineno, "foreign-private-write")
        ):
            self.report.error(
                self._where(),
                f"write to private attribute {rtext}.{attr} from outside its class",
                file=self.path, line=node.lineno, code="foreign-private-write",
            )

    def _call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if (
            func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and self.held
            and not self._allowed(node.lineno, "sleep-under-lock")
        ):
            self.report.error(
                self._where(),
                f"time.sleep() while holding {', '.join(sorted(self.held))}",
                file=self.path, line=node.lineno, code="sleep-under-lock",
            )
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.class_name is not None
        ):
            self.calls.append(func.attr)
            held_nodes = frozenset(n for n in self.held.values() if n is not None)
            if held_nodes:
                self.self_calls.append(
                    _SelfCall(
                        self.class_name, func.attr, held_nodes,
                        self.path, node.lineno,
                    )
                )

    # -- lock resolution -----------------------------------------------
    def _lock_item(self, expr: ast.expr) -> Optional[tuple[str, Optional[str]]]:
        """With-item / acquire target -> ``(held text, graph node)``."""
        if isinstance(expr, ast.Attribute):
            cls = self._class_of(expr.value)
            guards = self.model.guards_for(cls)
            node: Optional[str] = None
            if guards is not None and expr.attr in guards.locks:
                node = f"{cls}.{guards.canonical_lock(expr.attr)}"
            return ast.unparse(expr), node
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "locked"
            and not expr.args
        ):
            # ``basket.locked()`` hands out basket._lock for with-blocks.
            base = expr.func.value
            cls = self._class_of(base)
            guards = self.model.guards_for(cls)
            node = None
            if guards is not None and "_lock" in guards.locks:
                node = f"{cls}._lock"
            return f"{ast.unparse(base)}._lock", node
        return None

    def _acquire(self, text: str, node: Optional[str], line: int) -> bool:
        if text in self.held:
            return False  # re-entrant acquisition of the same object
        for hnode in self.held.values():
            if hnode is not None and node is not None:
                self.edges.append(LockEdge(hnode, node, self.path, line))
        self.held[text] = node
        if node is not None:
            self.acquires.add(node)
        return True

    def _lock_node_for_text(self, lock_text: str) -> Optional[str]:
        rtext, _, lattr = lock_text.rpartition(".")
        if not rtext:
            return None
        try:
            receiver = ast.parse(rtext, mode="eval").body
        except SyntaxError:
            return None
        cls = self._class_of(receiver)
        guards = self.model.guards_for(cls)
        if guards is not None and lattr in guards.locks:
            return f"{cls}.{guards.canonical_lock(lattr)}"
        return None

    # -- receiver typing -----------------------------------------------
    def _class_of(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.class_name
            if expr.id in self.local_types:
                return self.local_types[expr.id]
            return NAME_HINTS.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._class_of(expr.value)
            guards = self.model.guards_for(base)
            if guards is not None:
                return guards.member_types.get(expr.attr)
            return None
        return None

    def _track_local(self, name: str, value: ast.expr) -> None:
        if lock_ctor_name(value) is not None:
            self.local_types[name] = None
            return
        self.local_types[name] = self._infer(value)

    def _infer(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, (ast.Name, ast.Attribute)):
            return self._class_of(value)
        cls = ctor_class(value)
        if cls is not None and cls in self.model.classes:
            return cls
        return None

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
        comment = self.comments.get(line)
        if not comment:
            return False
        match = _ALLOW_RE.search(comment)
        return bool(match and code in match.group(1))


# ----------------------------------------------------------------------
# whole-program checks
# ----------------------------------------------------------------------
def _check_lock_owners(
    path: str,
    tree: ast.Module,
    comments: dict[int, str],
    report: Report,
) -> None:
    """Every lock constructed in the engine must belong to a class."""

    def visit(node: ast.AST, in_class: bool) -> None:
        name = lock_ctor_name(node)
        if name is not None and not in_class:
            comment = comments.get(node.lineno, "")
            match = _ALLOW_RE.search(comment)
            if not (match and "lock-no-owner" in match.group(1)):
                report.error(
                    "module",
                    f"threading.{name}() created outside any class — "
                    "every engine lock needs an owner class",
                    file=path, line=node.lineno, code="lock-no-owner",
                )
        in_class = in_class or isinstance(node, ast.ClassDef)
        for child in ast.iter_child_nodes(node):
            visit(child, in_class)

    visit(tree, False)


def _propagate_self_calls(
    registry: dict[tuple[str, str], _MethodFacts],
    self_calls: Sequence[_SelfCall],
    edges: list[LockEdge],
) -> None:
    """Add edges for locks acquired (transitively) by ``self.m()`` calls
    made while holding a lock."""
    closures: dict[tuple[str, str], set[str]] = {}

    def closure(key: tuple[str, str], seen: set[tuple[str, str]]) -> set[str]:
        if key in closures:
            return closures[key]
        if key in seen:
            return set()
        seen.add(key)
        facts = registry.get(key)
        if facts is None:
            return set()
        out = set(facts.acquires)
        for callee in facts.calls:
            out |= closure((key[0], callee), seen)
        closures[key] = out
        return out

    for call in self_calls:
        acquired = closure((call.cls, call.callee), set())
        for held in sorted(call.held):
            for node in sorted(acquired):
                if node != held:
                    edges.append(LockEdge(held, node, call.file, call.line))


def _check_graph(edges: Sequence[LockEdge], report: Report) -> None:
    """Validate the acquisition graph against the declared lock order."""
    seen: dict[tuple[str, str], LockEdge] = {}
    for edge in edges:
        seen.setdefault((edge.src, edge.dst), edge)
    for (src, dst), edge in sorted(seen.items()):
        src_rank = LOCK_RANKS.get(src)
        dst_rank = LOCK_RANKS.get(dst)
        if src_rank is None or dst_rank is None:
            report.warning(
                "lock-order",
                f"acquisition edge {src} -> {dst} involves a lock outside "
                "the declared LOCK_ORDER",
                file=edge.file, line=edge.line, code="unranked-lock",
            )
        elif src_rank >= dst_rank:
            report.error(
                "lock-order",
                f"{src} (rank {src_rank}) held while acquiring {dst} "
                f"(rank {dst_rank}) — violates the declared lock order",
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
