"""Deterministic, seedable fault injection for overload testing.

Overload behaviour is only trustworthy if it is *tested under failure* —
but failures injected with wall-clock randomness make tests flaky, which
is worse than no test.  Every injector here is driven either by an
explicit schedule (exact ordinals) or by a seeded
``numpy.random.default_rng``, so a failing run replays identically.

Injectors (each wraps the real component and delegates everything else):

* :class:`StallingSource` — wraps a receptor's row iterator; every
  ``every``-th row the producer sleeps ``seconds`` (a bursty/stalling
  upstream).
* :class:`FlakyEmitter` — wraps a result sink; chosen deliveries raise
  :class:`InjectedFault` (a crashing downstream).  Pair it with
  :class:`~repro.core.emitter.RetryingEmitter` to test retry/dead-letter
  paths: ``fail_streak`` controls how many *consecutive* attempts for the
  same batch fail, so retries can be made to succeed or exhaust on
  purpose.
* :class:`SlowFactory` — wraps a factory; every ``every``-th ``step``
  sleeps ``delay`` before executing (a slow operator, the canonical way
  to make producers outrun the scheduler without huge data volumes).
* :class:`CrashPoint` — a durability fault hook that simulates the
  process dying (raises :class:`InjectedCrash`) at an exact hook
  ordinal: mid-segment-append (torn frame on disk), mid-checkpoint
  (snapshot written, manifest not), or any other
  :mod:`repro.core.durability` hook point.  The crash-recovery tests
  sweep the ordinal to kill the engine *everywhere* and assert restore
  yields exactly-once emissions.

All injectors are thread-safe where the wrapped component is driven from
scheduler/receptor threads.  :func:`wait_until` is the polling barrier the
concurrency tests use to sequence threads on observable state instead of
fixed sleeps.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.factory import FactoryBase, ResultBatch
from repro.errors import ReproError
from repro.kernel.execution.profiler import Profiler


class InjectedFault(ReproError):
    """Raised by fault injectors; never raised by the engine itself, so
    tests can assert a failure came from the harness."""


class InjectedCrash(InjectedFault):
    """Raised by :class:`CrashPoint` to simulate the process dying at an
    exact durability hook point (the caller abandons the engine next)."""


class CrashPoint:
    """Deterministic process-death injector for durability tests.

    Installed via :meth:`DataCellEngine.install_fault_hook`, it counts the
    :mod:`repro.core.durability` hook invocations matching ``points`` (all
    hook points when None) and raises :class:`InjectedCrash` on the
    ``at``-th (0-based).  Because ``segment.append.torn`` fires *after*
    the first half of a frame is fsynced, a crash there leaves a torn
    record on disk — byte-for-byte what a power cut produces — and
    ``checkpoint.snapshot_written`` kills between the snapshot and the
    manifest rename, the classic half-committed checkpoint.  The test
    then calls ``engine.abandon()`` (never ``close()``: a dying process
    does not flush) and restores from the data dir.

    Deterministic: the ordinal is an exact count, so a failing ``at``
    replays identically.  ``fired`` records whether the crash triggered,
    letting kill-anywhere sweeps detect when they have run out of hook
    points and the workload completed uninterrupted.
    """

    def __init__(self, at: int, points: Optional[Iterable[str]] = None) -> None:
        if at < 0:
            raise ReproError(f"at must be >= 0, got {at}")
        self.at = at
        self.points = frozenset(points) if points is not None else None
        self.seen = 0
        self.fired = False

    def __call__(self, point: str) -> None:
        if self.points is not None and point not in self.points:
            return
        ordinal = self.seen
        self.seen += 1
        if ordinal == self.at:
            self.fired = True
            raise InjectedCrash(
                f"injected crash at {point} (hook ordinal {ordinal})"
            )


def wait_until(
    predicate: Callable[[], bool],
    timeout: float = 5.0,
    interval: float = 0.001,
) -> bool:
    """Poll ``predicate`` until it holds; ``False`` on timeout.

    The deterministic alternative to ``time.sleep(guess)`` in concurrency
    tests: the caller names the exact state transition it is waiting for
    (e.g. "both producers are parked on the basket's not-full condition")
    instead of hoping a fixed delay was long enough on a loaded machine.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class StallingSource:
    """Iterator wrapper: sleep ``seconds`` before every ``every``-th row.

    Deterministic: stalls happen at fixed ordinals (rows ``every``,
    ``2*every``, ...), not at random times.
    """

    def __init__(
        self, source: Iterable[Sequence], every: int, seconds: float
    ) -> None:
        if every < 1:
            raise ReproError(f"every must be >= 1, got {every}")
        self._source = iter(source)
        self.every = every
        self.seconds = seconds
        self.stalls = 0
        self._emitted = 0

    def __iter__(self) -> Iterator[Sequence]:
        return self

    def __next__(self) -> Sequence:
        row = next(self._source)
        self._emitted += 1
        if self._emitted % self.every == 0:
            self.stalls += 1
            time.sleep(self.seconds)
        return row


class FlakyEmitter:
    """Result sink that fails on schedule.

    Failure schedule, in precedence order:

    * ``failures`` — explicit 0-based *delivery ordinals* that fail (a
      delivery is one batch; retries of the same batch count via
      ``fail_streak``, not as new ordinals);
    * ``rate``/``seed`` — each delivery fails independently with
      probability ``rate`` from a seeded RNG (deterministic sequence).

    ``fail_streak`` (default 1) makes the first ``fail_streak`` attempts
    of a failing delivery raise before the batch goes through — set it
    above a :class:`RetryingEmitter`'s retry budget to force dead-letters,
    below it to test recovery.  ``inner`` (optional) receives every batch
    that succeeds.
    """

    def __init__(
        self,
        inner: Optional[Callable[[str, ResultBatch], None]] = None,
        failures: Optional[Iterable[int]] = None,
        rate: float = 0.0,
        seed: int = 0,
        fail_streak: int = 1,
    ) -> None:
        if fail_streak < 1:
            raise ReproError(f"fail_streak must be >= 1, got {fail_streak}")
        self._inner = inner
        self._failures = set(failures) if failures is not None else None
        self._rate = rate
        self._rng = np.random.default_rng(seed)
        self.fail_streak = fail_streak
        self._lock = threading.Lock()
        self._delivery = -1  # current delivery ordinal
        self._attempts = 0  # attempts made for the current delivery
        self._fail_this = False
        self._last_batch: Optional[ResultBatch] = None
        self.raised = 0
        self.delivered = 0

    def _should_fail(self, delivery: int) -> bool:
        if self._failures is not None:
            return delivery in self._failures
        return bool(self._rng.random() < self._rate)

    def __call__(self, factory_name: str, batch: ResultBatch) -> None:
        with self._lock:
            if batch is not self._last_batch:
                self._last_batch = batch
                self._delivery += 1
                self._attempts = 0
                self._fail_this = self._should_fail(self._delivery)
            self._attempts += 1
            if self._fail_this and self._attempts <= self.fail_streak:
                self.raised += 1
                raise InjectedFault(
                    f"injected emitter failure (delivery {self._delivery}, "
                    f"attempt {self._attempts})"
                )
            self.delivered += 1
        if self._inner is not None:
            self._inner(factory_name, batch)


class SlowFactory(FactoryBase):
    """Factory wrapper adding a fixed delay to every ``every``-th step.

    Slows the *service rate* deterministically so a synthetic stream at a
    known arrival rate overloads the engine by a chosen factor.  Delegates
    the scheduler's interface (``ready``/``step``/``consumed_total``/
    ``baskets``) and any other attribute (e.g. ``window_index``) to the
    wrapped factory.
    """

    def __init__(self, inner: FactoryBase, delay: float, every: int = 1) -> None:
        if every < 1:
            raise ReproError(f"every must be >= 1, got {every}")
        self.inner = inner
        self.name = inner.name
        self.delay = delay
        self.every = every
        self.slow_steps = 0
        self._steps = 0

    def ready(self) -> bool:
        return self.inner.ready()

    def step(self, profiler: Optional[Profiler] = None) -> Optional[ResultBatch]:
        self._steps += 1
        if self._steps % self.every == 0:
            self.slow_steps += 1
            time.sleep(self.delay)
        return self.inner.step(profiler)

    def consumed_total(self) -> int:
        return self.inner.consumed_total()

    def baskets(self) -> tuple:
        return self.inner.baskets()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
