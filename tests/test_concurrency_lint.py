"""The concurrency lint: guard tracking, lock graph, engine invariants.

Unit tests drive :func:`repro.analysis.concurrency.check_sources` over
small inline modules; the acceptance test at the bottom runs the full
lint over the real ``src/repro`` tree and requires it to be clean —
that is the CI gate ``repro check`` enforces.
"""

import ast
import re
import textwrap
from pathlib import Path

from repro.analysis.concurrency import check_paths, check_sources
from repro.analysis.guards import LOCK_ORDER, LOCK_RANKS, lock_ctor_name

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint(source, name="mod.py"):
    return check_sources([(name, textwrap.dedent(source))])


def codes(result):
    return [d.code for d in result.report.diagnostics]


GUARDED_CLASS = """
    import threading

    class Tally:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock
"""


def test_write_under_with_block_is_clean():
    result = lint(
        GUARDED_CLASS
        + """
        def bump(self):
            with self._lock:
                self.count += 1
    """
    )
    assert result.report.ok
    assert not result.report.diagnostics


def test_unguarded_write_and_read_are_flagged():
    result = lint(
        GUARDED_CLASS
        + """
        def bump(self):
            self.count += 1

        def peek(self):
            return self.count
    """
    )
    assert codes(result) == ["unguarded-write", "unguarded-read"]
    write = result.report.diagnostics[0]
    assert write.severity == "error"
    assert write.file == "mod.py"
    assert write.line is not None
    assert "_lock" in write.message


def test_init_writes_are_exempt():
    # __init__ publishes the object; no other thread can hold a
    # reference yet, so unguarded writes there are fine.
    result = lint(GUARDED_CLASS)
    assert result.report.ok


def test_guarded_method_convention_seeds_held_set():
    result = lint(
        GUARDED_CLASS
        + """
        def _bump_locked(self):  # guarded-by: self._lock
            self.count += 1

        def bump(self):
            with self._lock:
                self._bump_locked()
    """
    )
    assert result.report.ok


def test_condition_alias_counts_as_the_wrapped_lock():
    result = lint(
        """
        import threading

        class Buf:
            def __init__(self):
                self._lock = threading.RLock()
                self._not_full = threading.Condition(self._lock)
                self.rows = 0  # guarded-by: _lock

            def put(self):
                with self._not_full:
                    self.rows += 1
        """
    )
    assert result.report.ok


def test_sleep_under_lock_is_flagged():
    result = lint(
        GUARDED_CLASS
        + """
        def slow(self):
            import time
            with self._lock:
                time.sleep(0.1)
    """
    )
    assert "sleep-under-lock" in codes(result)


def test_allow_comment_suppresses_a_finding():
    result = lint(
        GUARDED_CLASS
        + """
        def peek(self):
            return self.count  # repro-check: allow(unguarded-read)
    """
    )
    assert result.report.ok


def test_lock_order_violation_and_cycle():
    result = lint(
        """
        import threading

        class Basket:
            def __init__(self):
                self._lock = threading.Lock()

        class Scheduler:
            def __init__(self):
                self._lock = threading.Lock()

        def bad(basket: Basket, scheduler: Scheduler):
            with basket._lock:
                with scheduler._lock:
                    pass

        def good(basket: Basket, scheduler: Scheduler):
            with scheduler._lock:
                with basket._lock:
                    pass
        """
    )
    found = codes(result)
    assert "lock-order-violation" in found
    assert "lock-cycle" in found
    assert not result.report.ok


def test_lock_order_is_a_total_order():
    assert len(set(LOCK_ORDER)) == len(LOCK_ORDER)
    assert all(LOCK_RANKS[n] == i for i, n in enumerate(LOCK_ORDER))


def test_design_lock_table_is_lock_order():
    """DESIGN.md §6 prints LOCK_ORDER as a table; the two must not drift."""
    design = (SRC.parent.parent / "DESIGN.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \| `([\w.]+)` \|", design, flags=re.M)
    assert [(int(rank), node) for rank, node in rows] == list(enumerate(LOCK_ORDER))


def test_repro_check_is_clean_on_the_engine_sources():
    """The CI gate: zero findings on the annotated src/repro tree."""
    result = check_paths([str(SRC)])
    rendered = result.report.render()
    assert result.report.ok, rendered
    assert not result.report.warnings(), rendered
    # checkpoint() takes the journal lock, then the shard-pump lock: the
    # engine's one statically visible nested acquisition.
    edges = {(e.src, e.dst) for e in result.edges}
    assert edges == {("DurabilityManager.lock", "DataCellEngine._shard_pump_lock")}


def test_lock_order_declares_every_engine_lock():
    """The lock count is this test, not a table: every Lock/RLock/
    Condition constructed under src/repro (test tooling aside) is a
    ``self.<attr> = threading.<ctor>(...)`` on a class, and the set of
    those ``Class.attr`` nodes — Conditions folded into the lock they
    wrap — is exactly LOCK_ORDER."""
    owners, strays = set(), []
    for path in sorted(SRC.rglob("*.py")):
        if "testing" in path.relative_to(SRC).parts:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = {id(node) for node in ast.walk(tree) if lock_ctor_name(node)}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if not (
                    isinstance(node, ast.Assign)
                    and lock_ctor_name(node.value)
                    and ast.unparse(node.targets[0]).startswith("self.")
                ):
                    continue
                attr = node.targets[0].attr
                args = node.value.args
                if lock_ctor_name(node.value) == "Condition" and args:
                    attr = args[0].attr  # Condition(self._lock) is that lock
                owners.add(f"{cls.name}.{attr}")
                found.discard(id(node.value))
        strays += [f"{path}:{node.lineno}" for node in ast.walk(tree) if id(node) in found]
    assert not strays, f"locks constructed outside `self.x = ...` on a class: {strays}"
    assert owners == set(LOCK_ORDER)
