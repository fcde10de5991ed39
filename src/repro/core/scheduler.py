"""The DataCell scheduler — a Petri-net execution model (paper §2).

Factories are transitions; baskets are places; a factory *fires* when its
``ready()`` condition holds (enough unread tuples at its cursor on every
input stream's basket).  The
scheduler repeatedly scans for enabled factories and steps them, routing
each produced :class:`ResultBatch` to the query's emitters.

Two driving modes:

* synchronous — benchmarks and tests call :meth:`run_until_idle` after
  feeding data, so response times are measured without thread noise;
* background — examples start :meth:`start` / :meth:`stop` to process
  arrivals from receptor threads continuously.

Either way **one factory fires at a time per process**: a scan holds the
scheduler-wide *scan lock* from its first ``ready()`` test to its last
dispatch, so a user thread calling :meth:`run_once` while the background
loop is scanning waits for that scan instead of firing beside it.  Firing
order is registration order, always.

Lock order (see DESIGN.md §6): scan lock → basket lock → fragment-cache
lock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.factory import FactoryBase, ResultBatch
from repro.errors import SchedulerError
from repro.kernel.execution.profiler import (
    COUNTER_FIRINGS,
    COUNTER_ROWS_EMITTED,
    COUNTER_TUPLES_CONSUMED,
    COUNTER_WORKER_ERRORS,
    Profiler,
)
from repro.obs.core import Observability
from repro.obs.spans import FiringSpan

ResultSink = Callable[[str, ResultBatch], None]


@dataclass
class _Registration:
    factory: FactoryBase
    sinks: list[ResultSink] = field(default_factory=list)
    # Written only by a scan (or restore_steps), under Scheduler._scan_lock.
    steps: int = 0
    # Per-factory accumulation of firing profilers (timings + counters).
    profiler: Profiler = field(default_factory=Profiler)
    # perf_counter at the end of the last firing while the factory stayed
    # ready (observability only): the next firing's ready-wait baseline.
    # Same discipline as ``steps``.
    ready_since: Optional[float] = None


class Scheduler:
    """Fires ready factories, one at a time, and dispatches their results."""

    def __init__(
        self,
        max_steps_per_scan: int = 1_000_000,
        obs: Optional[Observability] = None,
    ) -> None:
        self._registrations: dict[str, _Registration] = {}  # guarded-by: _lock
        self._lock = threading.RLock()
        # Held around a whole scan (every ready()+step()+dispatch of one
        # run_once) and by quiesced(): whoever holds it is the only thread
        # firing.  Re-entrant only so that a pump from a sink on the firing
        # thread reaches the ``_scanning`` test instead of deadlocking.
        self._scan_lock = threading.RLock()
        self._scanning = False  # guarded-by: _scan_lock
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lock
        self._stop_event = threading.Event()
        self._max_steps_per_scan = max_steps_per_scan
        self._worker_error: Optional[BaseException] = None  # guarded-by: _lock
        self._ever_started = False  # guarded-by: _lock
        self.profiler = Profiler()
        #: Tracing sinks (spans, latency histograms); None = tracing off,
        #: in which case the firing path pays a single ``is None`` test.
        self.obs = obs

    # -- registration ------------------------------------------------------
    def register(self, factory: FactoryBase, *sinks: ResultSink) -> None:
        with self._lock:
            if factory.name in self._registrations:
                raise SchedulerError(f"factory {factory.name!r} already registered")
            self._registrations[factory.name] = _Registration(factory, list(sinks))

    def unregister(self, name: str) -> None:
        with self._lock:
            self._registrations.pop(name, None)

    def add_sink(self, name: str, sink: ResultSink) -> None:
        with self._lock:
            self._registrations[name].sinks.append(sink)

    def factories(self) -> list[str]:
        with self._lock:
            return list(self._registrations)

    def factory_stats(self) -> dict[str, dict[str, dict]]:
        """Per-factory structured profiler snapshots.

        Each value is :meth:`Profiler.snapshot`'s shape: ``{"tags",
        "opcodes", "calls", "counters"}``.  Counters include ``firings``
        and, when fragment sharing is active, ``fragment_cache_hits`` /
        ``fragment_cache_misses``; with observability on they also carry
        ``tuples_consumed`` / ``rows_emitted``.
        """
        with self._lock:
            registrations = dict(self._registrations)
        return {
            name: registration.profiler.snapshot()
            for name, registration in registrations.items()
        }

    # -- synchronous driving ------------------------------------------------
    def run_once(self) -> int:
        """One scan: step every currently-ready factory once, in
        registration order.  Returns the number of firings.

        A caller that arrives while another thread is scanning waits for
        that scan to finish (so :meth:`run_until_idle` is a barrier);
        a sink that pumps the scheduler from inside a firing gets
        :class:`SchedulerError`.  A failed firing aborts the scan, counts
        once in the ``worker_errors`` profiler counter and re-raises.
        """
        with self._lock:
            registrations = list(self._registrations.values())
        with self._scan_lock:
            if self._scanning:
                raise SchedulerError(
                    "run_once() called from inside a firing (a sink or "
                    "factory on the firing thread pumped the scheduler)"
                )
            self._scanning = True
            try:
                return sum(self._fire(registration) for registration in registrations)
            except Exception:
                self.profiler.count(COUNTER_WORKER_ERRORS)
                raise
            finally:
                self._scanning = False

    def _fire(self, registration: _Registration) -> int:  # guarded-by: self._scan_lock
        """Fire one factory once if it is ready; returns 0 or 1.

        With observability enabled the firing is wrapped in a
        :class:`~repro.obs.spans.FiringSpan`: factory name, firing seq,
        tuples consumed/emitted, ready-wait time, and the per-tag cost
        breakdown, recorded into the span ring.  The ingest→emit latency
        loop is closed here too: each basket's newest fully-consumed
        arrival stamp is subtracted from the dispatch time.
        """
        factory = registration.factory
        obs = self.obs
        if obs is not None:
            return self._fire_traced(registration, obs)
        if not factory.ready():
            return 0
        profiler = Profiler()
        batch = factory.step(profiler)
        if batch is None:
            return 0
        profiler.count(COUNTER_FIRINGS)
        registration.steps += 1
        registration.profiler.merge_from(profiler)
        self.profiler.merge_from(profiler)
        self._dispatch(factory.name, registration, batch)
        return 1

    def _fire_traced(self, registration: _Registration, obs: Observability) -> int:  # guarded-by: self._scan_lock
        """The observability-enabled twin of the plain firing path."""
        factory = registration.factory
        if not factory.ready():
            registration.ready_since = None
            return 0
        start = time.perf_counter()
        ready_wait = (
            start - registration.ready_since
            if registration.ready_since is not None
            else 0.0
        )
        profiler = Profiler()
        profiler.set_observer(obs.observe_opcode)
        consumed_before = factory.consumed_total()
        batch = factory.step(profiler)
        if batch is None:
            registration.ready_since = None
            return 0
        consumed = factory.consumed_total() - consumed_before
        profiler.count(COUNTER_FIRINGS)
        profiler.count(COUNTER_TUPLES_CONSUMED, consumed)
        profiler.count(COUNTER_ROWS_EMITTED, len(batch))
        registration.steps += 1
        registration.profiler.merge_from(profiler)
        self.profiler.merge_from(profiler)
        self._dispatch(factory.name, registration, batch)
        end = time.perf_counter()
        for basket in factory.baskets():
            arrival = basket.take_consumed_arrival()
            if arrival is not None:
                obs.latency.observe(end - arrival)
        obs.firing_duration.observe(end - start)
        obs.spans.record(
            FiringSpan(
                factory=factory.name,
                seq=registration.steps,
                wall=time.time(),
                duration=end - start,
                consumed=consumed,
                emitted=len(batch),
                ready_wait=ready_wait,
                tags=profiler.tags(),
            )
        )
        # Baseline for the next firing's ready-wait: if the factory is
        # still enabled, the wait it accrues starts now.
        registration.ready_since = end
        return 1

    def run_until_idle(self) -> int:
        """Scan until no factory is ready; returns total firings.

        Re-raises any exception captured by the background loop first, so
        failures in threaded runs surface instead of being lost.
        """
        self._raise_worker_error()
        total = 0
        for __ in range(self._max_steps_per_scan):
            fired = self.run_once()
            if fired == 0:
                return total
            total += fired
        raise SchedulerError("run_until_idle exceeded the step budget")

    def _dispatch(self, name: str, registration: _Registration, batch: ResultBatch) -> None:
        for sink in registration.sinks:
            sink(name, batch)

    # -- background driving ------------------------------------------------
    def start(self, poll_interval: float = 0.001) -> None:
        """Run the scheduler loop in a daemon thread."""

        def loop() -> None:
            while not self._stop_event.is_set():
                try:
                    fired = self.run_once()
                except Exception as exc:
                    with self._lock:
                        self._worker_error = exc
                    return
                if fired == 0:
                    time.sleep(poll_interval)

        thread = threading.Thread(target=loop, name="datacell-scheduler", daemon=True)
        with self._lock:
            if self._thread is not None:
                raise SchedulerError("scheduler already running")
            self._ever_started = True
            self._stop_event.clear()
            self._thread = thread
        # Outside the lock: the loop's first scan takes _lock itself.
        thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the background loop (optionally draining ready work first).

        If the loop died on an exception, that exception is re-raised here
        (and draining is skipped — the engine is in an undefined state).

        ``drain=True`` runs :meth:`drain` after the loop has joined — and
        also on a scheduler that was never started (the synchronous
        driving mode) — so that post-stop state is *final*: every ready
        factory has fired, baskets hold only tuples that genuinely never
        formed a window, and the overflow counters (shed / blocked, see
        docs/OPERATIONS.md) are exact rather than racing a half-finished
        scan.  Draining also frees room in bounded baskets, waking
        producers parked on the ``Block`` policy.  A repeated ``stop()``
        after the loop is gone is a no-op (it neither drains again nor
        resurfaces an already-raised worker error).

        On the error path no draining happens — but producers parked on
        ``Block`` are still woken: every registered factory's baskets get
        :meth:`~repro.core.basket.Basket.abort_waiters`, so the parked
        threads raise :class:`~repro.errors.BasketOverflowError` instead
        of sleeping forever on a scheduler that will never free room.
        """
        self._stop_event.set()
        with self._lock:
            thread, self._thread = self._thread, None
            ever_started = self._ever_started
        # Join outside the lock: the loop's scans take _lock themselves,
        # so joining under it would deadlock.
        joined = False
        if thread is not None:
            thread.join()
            joined = True
        try:
            self._raise_worker_error()
        except Exception as exc:
            self._abort_parked(f"scheduler stopped after worker error: {exc!r}")
            raise
        if drain and (joined or not ever_started):
            self.drain()

    def _abort_parked(self, reason: str) -> None:
        """Wake every producer parked on a registered factory's baskets."""
        with self._lock:
            registrations = list(self._registrations.values())
        for registration in registrations:
            for basket in registration.factory.baskets():
                basket.abort_waiters(reason)

    def drain(self) -> int:
        """Fire until quiescence so shed/parked accounting is exact.

        Returns the number of firings.  Equivalent to
        :meth:`run_until_idle`; the separate name exists so call sites can
        say *why* they are scanning (finalizing counters at shutdown).
        """
        return self.run_until_idle()

    # -- durability --------------------------------------------------------
    @contextmanager
    def quiesced(self):
        """Hold the scan lock for a consistent checkpoint snapshot.

        Blocks until the scan in progress finishes, then keeps every
        factory parked while the caller gathers state.  ``_lock`` is taken
        first (declared order: Scheduler._lock → scan lock), which also
        freezes the registration table for the duration.
        """
        with self._lock, self._scan_lock:
            if self._scanning:
                raise SchedulerError("quiesced() called from inside a firing")
            yield

    def steps_snapshot(self) -> dict[str, int]:
        """Per-factory firing counts; call inside :meth:`quiesced` (which
        holds the scan lock, the only writer of ``steps``)."""
        with self._lock:
            return {
                name: registration.steps
                for name, registration in self._registrations.items()
            }

    def restore_steps(self, name: str, steps: int) -> None:
        """Adopt a snapshot's firing count for one factory (restore path)."""
        with self._lock:
            registration = self._registrations[name]
        with self._scan_lock:
            registration.steps = steps

    def wrap_sinks(self, name: str, wrapper: Callable[[ResultSink], ResultSink]) -> None:
        """Replace each of a factory's sinks with ``wrapper(sink)``.

        The restore path uses this to interpose the duplicate-emission
        filter in front of every emitter after a recovery.
        """
        with self._lock:
            registration = self._registrations[name]
            registration.sinks = [wrapper(sink) for sink in registration.sinks]

    def _raise_worker_error(self) -> None:
        with self._lock:
            error, self._worker_error = self._worker_error, None
        if error is not None:
            raise error
