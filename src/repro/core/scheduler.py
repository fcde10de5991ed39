"""The DataCell scheduler — a Petri-net execution model (paper §2).

Factories are transitions; baskets are places; a factory *fires* when its
``ready()`` condition holds (enough unread tuples at its cursor on every
input stream's basket).  The
scheduler repeatedly scans for enabled factories and steps them, routing
each produced :class:`ResultBatch` to the emitters of every query handle
the factory serves (alpha-equivalent queries share one factory).

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

The scan lock is also the scheduler's only lock: registrations, the loop
handle and a captured loop error are edited under it, and everything the
firing thread writes (profilers, spans, histograms, the fragment cache) is
single-writer — readers copy it at a *scan boundary*
(:meth:`Scheduler.scan_boundary`).  Lock order: DESIGN.md §6.
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
    #: Handle name -> its sinks.  Alpha-equivalent queries share one
    #: factory, so one firing may emit to several handles (DESIGN.md §6,
    #: "Whole-query sharing"); the first handle names the firing's span.
    sinks: dict[str, list[ResultSink]] = field(default_factory=dict)
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
        # Held around a whole scan (every ready()+step()+dispatch of one
        # run_once), by quiesced() and by readers' scan_boundary(): whoever
        # holds it is the only thread firing.  Re-entrant so that a pump
        # from a sink on the firing thread reaches the ``_scanning`` test
        # instead of deadlocking, and so that sink can still read metrics.
        self._scan_lock = threading.RLock()
        # handle name -> its factory's registration (shared by the handles
        # of one factory), and each registration once, in firing order.
        self._registrations: dict[str, _Registration] = {}  # guarded-by: _scan_lock
        self._order: list[_Registration] = []  # guarded-by: _scan_lock
        self._scanning = False  # guarded-by: _scan_lock
        self._thread: Optional[threading.Thread] = None  # guarded-by: _scan_lock
        self._stop_event = threading.Event()
        self._max_steps_per_scan = max_steps_per_scan
        self._worker_error: Optional[BaseException] = None  # guarded-by: _scan_lock
        self._ever_started = False  # guarded-by: _scan_lock
        self.profiler = Profiler()
        #: Tracing sinks (spans, latency histograms); None = tracing off,
        #: in which case the firing path pays a few ``is None`` tests.
        self.obs = obs

    # -- registration ------------------------------------------------------
    def register(self, factory: FactoryBase, *sinks: ResultSink) -> None:
        """Register ``factory`` with one handle, named after it, emitting
        to ``sinks``."""
        name = factory.name
        with self._scan_lock:
            if name in self._registrations:
                raise SchedulerError(f"factory {name!r} already registered")
            registration = _Registration(factory, {name: list(sinks)})
            self._registrations[name] = registration
            self._order.append(registration)

    def attach(self, name: str, to: str, *sinks: ResultSink) -> None:
        """Handle ``name`` becomes one more sink of handle ``to``'s
        factory: no second registration, readiness test or firing."""
        with self._scan_lock:
            if name in self._registrations:
                raise SchedulerError(f"factory {name!r} already registered")
            registration = self._registrations[to]
            registration.sinks[name] = list(sinks)
            self._registrations[name] = registration

    def unregister(self, name: str) -> None:
        """Detach handle ``name``; its factory goes with its last handle."""
        with self._scan_lock:
            self._detach(name)

    def move(self, name: str, factory: FactoryBase) -> None:
        """Give handle ``name`` a registration of its own for ``factory``,
        carrying its sinks, its firing count and a copy of its profile
        (a shared handle that splits off, as ``reset_landmark`` does)."""
        with self._scan_lock:
            old = self._registrations[name]
            moved = _Registration(factory, {name: self._detach(name)}, steps=old.steps)
            moved.profiler.merge_from(old.profiler)
            self._registrations[name] = moved
            self._order.append(moved)

    def _detach(self, name: str) -> list[ResultSink]:  # guarded-by: self._scan_lock
        registration = self._registrations.pop(name, None)
        if registration is None:
            return []
        sinks = registration.sinks.pop(name)
        if not registration.sinks:
            self._order.remove(registration)
        return sinks

    def add_sink(self, name: str, sink: ResultSink) -> None:
        with self._scan_lock:
            self._registrations[name].sinks[name].append(sink)

    def factories(self) -> list[str]:
        with self._scan_lock:
            return list(self._registrations)

    def factory_stats(self) -> dict[str, dict[str, dict]]:
        """Per-handle structured profiler snapshots: the handles of one
        shared factory each report that factory's profile.

        Each value is :meth:`Profiler.snapshot`'s shape: ``{"tags",
        "opcodes", "calls", "counters"}``.  Counters include ``firings``
        and, when fragment sharing is active, ``fragment_cache_hits`` /
        ``fragment_cache_misses``; with observability on they also carry
        ``tuples_consumed`` / ``rows_emitted``.  One copy, taken at a scan
        boundary.
        """
        with self._scan_lock:
            return {
                name: registration.profiler.snapshot()
                for name, registration in self._registrations.items()
            }

    @contextmanager
    def scan_boundary(self):
        """Hold the scan lock while copying what the firing thread writes.

        Nothing fires while the caller holds it, so profilers, spans,
        histograms and the fragment cache read mutually consistent.  Take
        it only for the copy.  From a sink on the firing thread it
        re-enters (the copy then sees the firing in progress).
        """
        with self._scan_lock:
            yield

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
        with self._scan_lock:
            registrations = list(self._order)
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

        One path, traced or not: ready check, step, profiler merges and
        dispatch.  With observability enabled the firing is also observed,
        once: tuples consumed (differenced from ``consumed_total()`` around
        the step) and rows emitted, the firing's per-opcode totals folded
        into the opcode histograms, the ingest→emit latency of each
        basket's newest fully-consumed arrival, and a
        :class:`~repro.obs.spans.FiringSpan` with the ready-wait and the
        per-tag cost split.  Tracing off, each of those is one ``is None``
        test.
        """
        factory = registration.factory
        if not factory.ready():
            registration.ready_since = None
            return 0
        obs = self.obs
        if obs is not None:
            wall, start = time.time(), time.perf_counter()
            consumed_before = factory.consumed_total()
        profiler = Profiler()
        batch = factory.step(profiler)
        if batch is None:
            registration.ready_since = None
            return 0
        profiler.count(COUNTER_FIRINGS)
        if obs is not None:
            consumed = factory.consumed_total() - consumed_before
            profiler.count(COUNTER_TUPLES_CONSUMED, consumed)
            profiler.count(COUNTER_ROWS_EMITTED, len(batch))
            obs.observe_opcodes(profiler)
        registration.steps += 1
        registration.profiler.merge_from(profiler)
        self.profiler.merge_from(profiler)
        for index, (name, sinks) in enumerate(registration.sinks.items()):
            # Every further handle gets its own batch over the same columns.
            own = batch.share() if index else batch
            for sink in sinks:
                sink(name, own)
        if obs is None:
            return 1
        end = time.perf_counter()
        for basket in factory.baskets():
            arrival = basket.take_consumed_arrival()
            if arrival is not None:
                obs.latency.observe(end - arrival)
        obs.firing_duration.observe(end - start)
        ready_since = registration.ready_since
        obs.spans.record(
            FiringSpan(
                factory=next(iter(registration.sinks)),
                seq=registration.steps,
                wall=wall,
                duration=end - start,
                consumed=consumed,
                emitted=len(batch),
                ready_wait=start - ready_since if ready_since is not None else 0.0,
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

    # -- background driving ------------------------------------------------
    def start(self, poll_interval: float = 0.001) -> None:
        """Run the scheduler loop in a daemon thread."""

        def loop() -> None:
            while not self._stop_event.is_set():
                try:
                    fired = self.run_once()
                except Exception as exc:
                    with self._scan_lock:
                        self._worker_error = exc
                    return
                if fired == 0:
                    time.sleep(poll_interval)

        thread = threading.Thread(target=loop, name="datacell-scheduler", daemon=True)
        with self._scan_lock:
            if self._thread is not None:
                raise SchedulerError("scheduler already running")
            self._ever_started = True
            self._stop_event.clear()
            self._thread = thread
        thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the background loop (optionally draining ready work first).

        If the loop died on an exception, that exception is re-raised here
        (and draining is skipped — the engine is in an undefined state).

        ``drain=True`` runs :meth:`drain` after the loop has joined — and
        also on a scheduler that was never started (the synchronous
        driving mode) — so that post-stop state is *final*: every ready
        factory has fired, baskets hold only tuples that genuinely never
        formed a window, and the overflow counters (blocked appends, see
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
        with self._scan_lock:
            thread, self._thread = self._thread, None
            ever_started = self._ever_started
        # Join outside the lock: the loop's scans take it themselves, so
        # joining under it would deadlock.
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
        with self._scan_lock:
            registrations = list(self._order)
        for registration in registrations:
            for basket in registration.factory.baskets():
                basket.abort_waiters(reason)

    def drain(self) -> int:
        """Fire until quiescence so parked accounting is exact.

        Returns the number of firings.  Equivalent to
        :meth:`run_until_idle`; the separate name exists so call sites can
        say *why* they are scanning (finalizing counters at shutdown).
        """
        return self.run_until_idle()

    # -- durability --------------------------------------------------------
    @contextmanager
    def quiesced(self):
        """Hold the scan lock with no firing in progress.

        Blocks until the scan in progress finishes, then keeps every
        factory parked while the caller gathers a consistent checkpoint
        snapshot (or writes firing-thread state, like the shard merge);
        the registration table is frozen for the duration too.
        """
        with self._scan_lock:
            if self._scanning:
                raise SchedulerError("quiesced() called from inside a firing")
            yield

    def steps_snapshot(self) -> dict[str, int]:
        """Per-handle firing counts (a shared factory's count under each
        of its handles); call inside :meth:`quiesced` (which
        holds the scan lock, the only writer of ``steps``)."""
        with self._scan_lock:
            return {
                name: registration.steps
                for name, registration in self._registrations.items()
            }

    def restore_steps(self, name: str, steps: int) -> None:
        """Adopt a snapshot's firing count for one handle's factory
        (restore path, where every handle has a factory of its own)."""
        with self._scan_lock:
            self._registrations[name].steps = steps

    def wrap_sinks(self, name: str, wrapper: Callable[[ResultSink], ResultSink]) -> None:
        """Replace each of handle ``name``'s sinks with ``wrapper(sink)``.

        The restore path uses this to interpose the duplicate-emission
        filter in front of every emitter after a recovery.
        """
        with self._scan_lock:
            sinks = self._registrations[name].sinks
            sinks[name] = [wrapper(sink) for sink in sinks[name]]

    def _raise_worker_error(self) -> None:
        with self._scan_lock:
            error, self._worker_error = self._worker_error, None
        if error is not None:
            raise error
