"""Runtime lock-order conformance: the dynamic oracle for the static model.

:class:`ObservedLock` wraps an engine lock and reports every acquisition
to a :class:`LockObserver`, which keeps a per-thread stack of held locks
and records the *edges* actually taken (held node → newly acquired
node).  :meth:`LockObserver.violations` replays the observed edges
against the declared engine lock order
(:data:`repro.analysis.guards.LOCK_ORDER`): an edge that acquires a
lower-ranked lock while holding a higher-ranked one, or nests two locks
of the same rank, is a divergence between what the code *did* and what
the static graph says it may do.

:func:`instrument` swaps a built engine's locks in place; the threaded
hammer test (tests/test_single_writer.py) runs a whole engine under it.
``Basket._not_full`` stays unobserved: a Condition *sharing* the basket
lock waits through the raw lock underneath the wrapper — the same lock,
just invisible here.

This module is test-tooling: nothing in the engine imports it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.guards import LOCK_RANKS


class LockOrderViolation(AssertionError):
    """Observed acquisition order diverges from the static lock order."""


@dataclass(frozen=True)
class ObservedEdge:
    """One observed held → acquired transition (deduplicated)."""

    src: str  # lock node held ("Scheduler._scan_lock", ...)
    dst: str  # lock node acquired while src was held
    thread: str  # name of the first thread that took this edge

    def describe(self) -> str:
        return f"{self.src} -> {self.dst} (thread {self.thread})"


class LockObserver:
    """Collects acquisition edges from every :class:`ObservedLock`."""

    def __init__(self) -> None:
        # Bookkeeping lock: never observed, and only ever taken as the
        # innermost lock, so it cannot perturb the order being measured.
        self._lock = threading.Lock()
        self._edges: dict[tuple[str, str], ObservedEdge] = {}  # guarded-by: _lock
        self.acquisitions = 0  # total non-reentrant acquires; guarded-by: _lock
        self._held = threading.local()  # per-thread stack of ObservedLock

    def _stack(self) -> list["ObservedLock"]:
        if not hasattr(self._held, "stack"):
            self._held.stack = []
        return self._held.stack

    def on_acquire(self, lock: "ObservedLock") -> None:
        stack = self._stack()
        if not any(held is lock for held in stack):
            thread = threading.current_thread().name
            with self._lock:
                self.acquisitions += 1
                for held in stack:
                    edge = ObservedEdge(held.node, lock.node, thread)
                    self._edges.setdefault((held.node, lock.node), edge)
        stack.append(lock)

    def on_release(self, lock: "ObservedLock") -> None:
        # Drop the most recent entry for this instance (tolerates a
        # non-LIFO acquire()/release() pairing).
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return

    def edges(self) -> list[ObservedEdge]:
        with self._lock:
            return sorted(self._edges.values(), key=lambda e: (e.src, e.dst))

    def violations(self) -> list[str]:
        """Observed edges that the static lock order forbids.

        Edges touching undeclared (unranked) locks are ignored: every lock
        the engine constructs is declared, so those are test-local locks.
        """
        out = []
        for edge in self.edges():
            src_rank = LOCK_RANKS.get(edge.src)
            dst_rank = LOCK_RANKS.get(edge.dst)
            if src_rank is None or dst_rank is None or src_rank < dst_rank:
                continue
            kind = (
                "nests two locks of the same node"
                if src_rank == dst_rank
                else "acquires against the declared order"
            )
            out.append(f"{edge.describe()}: {kind}")
        return out

    def assert_conforms(self) -> None:
        """Raise :class:`LockOrderViolation` on any divergence."""
        found = self.violations()
        if found:
            raise LockOrderViolation(
                "observed lock acquisitions diverge from the static "
                "lock order:\n  " + "\n  ".join(found)
            )


class ObservedLock:
    """A lock proxy that reports acquire/release to a :class:`LockObserver`.

    Wraps ``threading.Lock`` and ``threading.RLock`` instances alike;
    everything not intercepted delegates to the raw lock.
    """

    def __init__(self, raw: Any, node: str, observer: LockObserver) -> None:
        self._raw = raw
        self.node = node
        self._observer = observer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._raw.acquire(blocking, timeout)
        if acquired:
            self._observer.on_acquire(self)
        return acquired

    def release(self) -> None:
        self._observer.on_release(self)
        self._raw.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._raw, name)


def instrument(engine: Any, observer: Optional[LockObserver] = None) -> LockObserver:
    """Swap a built engine's locks for :class:`ObservedLock` wrappers.

    Call after all ``submit``/``create_stream`` calls and before any
    feeding or ``scheduler.start()``; swapping a held lock would split
    its identity between the wrapper and the raw lock.
    """
    observer = observer or LockObserver()

    def wrap(obj: Any, attr: str, node: str) -> None:
        raw = getattr(obj, attr)
        if not isinstance(raw, ObservedLock):
            # Test-harness surgery on private lock attributes, by design.
            setattr(obj, attr, ObservedLock(raw, node, observer))

    if engine._dur is not None:
        wrap(engine._dur, "lock", "DurabilityManager.lock")
    wrap(engine, "_shard_pump_lock", "DataCellEngine._shard_pump_lock")
    wrap(engine.scheduler, "_scan_lock", "Scheduler._scan_lock")
    for basket in engine._logs.values():
        wrap(basket, "_lock", "Basket._lock")
    for handle in engine._queries.values():
        wrap(handle.emitter, "_lock", "CollectingEmitter._lock")
    return observer
