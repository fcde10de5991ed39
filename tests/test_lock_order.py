"""The engine's lock order (DESIGN.md §6): a thread holding
``LOCK_ORDER[i]`` only acquires locks further down.  The threaded hammer
(tests/test_single_writer.py) records real edges with :func:`instrument`."""

import ast
import re
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LOCK_ORDER = (
    "DurabilityManager.lock", "DataCellEngine._shard_pump_lock",
    "Scheduler._scan_lock", "Basket._lock", "CollectingEmitter._lock",
)


class _Recorded:
    """A lock that records each (held, acquired) node pair, per thread."""

    def __init__(self, raw, node, edges, held):
        self._raw, self.node, self._edges, self._held = raw, node, edges, held

    def __enter__(self):
        self._raw.acquire()
        stack = self._held.__dict__.setdefault("stack", [])
        if self not in stack:  # a re-entrant acquire adds no edge
            self._edges.update((lock.node, self.node) for lock in stack)
        stack.append(self)

    def __exit__(self, *exc):
        self._held.stack.pop()
        self._raw.release()


def instrument(engine):
    """Swap a built engine's locks for recorders (before feeding); returns the edges."""
    edges, held = set(), threading.local()
    owners = [(engine, "_shard_pump_lock"), (engine.scheduler, "_scan_lock")]
    owners += [(engine._dur, "lock")] if engine._dur is not None else []
    owners += [(basket, "_lock") for basket in engine._logs.values()]
    owners += [(handle.emitter, "_lock") for handle in engine._queries.values()]
    for owner, attr in owners:
        node = f"{type(owner).__name__}.{attr}"
        setattr(owner, attr, _Recorded(getattr(owner, attr), node, edges, held))
    return edges


def _lock_ctor(node):
    """True if ``node`` is a ``[threading.]Lock/RLock/Condition(...)`` call."""
    name = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
    return name.removeprefix("threading.") in ("Lock", "RLock", "Condition")


def test_lock_order_declares_every_engine_lock():
    """Every lock built under src/repro (test tooling aside) is a ``self.<attr>``
    of a class, and those ``Class.attr`` nodes (``Condition(self._lock)`` is
    ``_lock``) are exactly LOCK_ORDER."""
    owners, strays = set(), []
    paths = [path for path in SRC.rglob("*.py") if "testing" not in path.relative_to(SRC).parts]
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(node): node for node in ast.walk(tree) if _lock_ctor(node)}
        for cls in [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            for node in ast.walk(cls):
                call = getattr(node, "value", None)
                if isinstance(node, ast.Assign) and calls.pop(id(call), None):
                    target = call.args[0] if call.args else node.targets[0]
                    assert ast.unparse(target).startswith("self."), f"{path}:{node.lineno}"
                    owners.add(f"{cls.name}.{target.attr}")
        strays += [f"{path}:{node.lineno}" for node in calls.values()]
    assert not strays, f"locks constructed outside `self.x = ...` on a class: {strays}"
    assert sorted(owners) == sorted(LOCK_ORDER)  # and LOCK_ORDER has no repeats


def test_design_lock_table_is_lock_order():
    """DESIGN.md §6 prints LOCK_ORDER as a table; the two must not drift."""
    design = (SRC.parent.parent / "DESIGN.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \| `([\w.]+)` \|", design, flags=re.M)
    assert [(int(rank), node) for rank, node in rows] == list(enumerate(LOCK_ORDER))
