"""Runtime lock-order conformance: the dynamic oracle for the static model.

:class:`ObservedLock` wraps an engine lock and reports every acquisition
to a :class:`LockObserver`, which keeps a per-thread stack of held locks
and records the *edges* actually taken (held node → newly acquired
node).  After a concurrency test or fuzzer run,
:meth:`LockObserver.violations` replays the observed edges against the
declared engine lock order (:data:`repro.analysis.guards.LOCK_ORDER`) —
any edge that acquires a lower-ranked lock while holding a higher-ranked
one, or nests two locks of the same rank, is a divergence between what
the code *did* and what the static graph says it may do.

:func:`instrument` swaps the observable locks of a built engine in
place.  Call it after every ``submit`` and before feeding: swapping a
lock some thread already holds would split its identity.  One engine
lock stays unobserved by design: ``Basket._not_full`` is a Condition
*sharing* the basket lock — waits go through the raw lock underneath the
wrapper, which is correct (same lock) but invisible here.

This module is test-tooling: nothing in the engine imports it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.guards import LOCK_RANKS

__all__ = [
    "LockOrderViolation",
    "ObservedLock",
    "LockObserver",
    "instrument",
]


class LockOrderViolation(AssertionError):
    """Observed acquisition order diverges from the static lock order."""


@dataclass(frozen=True)
class ObservedEdge:
    """One observed held → acquired transition (deduplicated)."""

    src: str  # lock node held ("Scheduler._lock", ...)
    dst: str  # lock node acquired while src was held
    thread: str  # name of the first thread that took this edge

    def describe(self) -> str:
        return f"{self.src} -> {self.dst} (thread {self.thread})"


class LockObserver:
    """Collects acquisition edges from every :class:`ObservedLock`."""

    def __init__(self) -> None:
        # Internal bookkeeping lock: a plain Lock, never observed, and
        # only ever taken as the innermost lock (no engine code runs
        # under it), so it cannot perturb the order being measured.
        self._lock = threading.Lock()
        self._edges: dict[tuple[str, str], ObservedEdge] = {}  # guarded-by: _lock
        self.acquisitions = 0  # total non-reentrant acquires; guarded-by: _lock
        self._held = threading.local()  # per-thread stack of ObservedLock

    # -- called by ObservedLock ---------------------------------------
    def _stack(self) -> list["ObservedLock"]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def on_acquire(self, lock: "ObservedLock") -> None:
        stack = self._stack()
        reentrant = any(held is lock for held in stack)
        if not reentrant:
            edges = [
                (held.node, lock.node)
                for held in stack
                if held is not lock
            ]
            with self._lock:
                self.acquisitions += 1
                thread = threading.current_thread().name
                for src, dst in edges:
                    self._edges.setdefault((src, dst), ObservedEdge(src, dst, thread))
        stack.append(lock)

    def on_release(self, lock: "ObservedLock") -> None:
        stack = self._stack()
        # Releases may be non-LIFO (rare, but acquire()/release() pairs
        # are free-form): drop the most recent entry for this instance.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return

    # -- conformance ---------------------------------------------------
    def edges(self) -> list[ObservedEdge]:
        with self._lock:
            return sorted(self._edges.values(), key=lambda e: (e.src, e.dst))

    def violations(self) -> list[str]:
        """Observed edges that the static lock order forbids.

        Edges touching undeclared (unranked) locks are ignored — the
        static lint already warns on those at their acquisition sites.
        """
        out = []
        for edge in self.edges():
            src_rank = LOCK_RANKS.get(edge.src)
            dst_rank = LOCK_RANKS.get(edge.dst)
            if src_rank is None or dst_rank is None:
                continue
            if src_rank >= dst_rank:
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

    def locked(self) -> bool:
        return self._raw.locked()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._raw, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObservedLock({self.node})"


@dataclass
class _Instrumented:
    """What :func:`instrument` wrapped (handy for assertions in tests)."""

    observer: LockObserver
    wrapped: list[str] = field(default_factory=list)


def instrument(engine: Any, observer: Optional[LockObserver] = None) -> LockObserver:
    """Swap a built engine's locks for :class:`ObservedLock` wrappers.

    Call after all ``submit``/``create_stream`` calls and before any
    feeding or ``scheduler.start()``; swapping a held lock would split
    its identity between the wrapper and the raw lock.
    """
    observer = observer or LockObserver()

    def wrap(obj: Any, attr: str, node: str) -> None:
        raw = getattr(obj, attr, None)
        if raw is None or isinstance(raw, ObservedLock):
            return
        # Test-harness surgery on private lock attributes, by design.
        setattr(obj, attr, ObservedLock(raw, node, observer))

    scheduler = engine.scheduler
    wrap(scheduler, "_lock", "Scheduler._lock")
    wrap(scheduler, "_scan_lock", "Scheduler._scan_lock")
    for basket in engine._logs.values():
        wrap(basket, "_lock", "Basket._lock")
    wrap(engine.fragment_cache, "_lock", "FragmentCache._lock")
    wrap(scheduler.profiler, "_lock", "Profiler._lock")
    if engine.obs is not None:
        wrap(engine.obs, "_lock", "Observability._lock")
        wrap(engine.obs.spans, "_lock", "SpanRecorder._lock")
        for hist in list(getattr(engine.obs, "_opcodes", {}).values()):
            wrap(hist, "_lock", "LogHistogram._lock")
    for handle in engine._queries.values():
        wrap(handle.emitter, "_lock", "CollectingEmitter._lock")
    return observer
