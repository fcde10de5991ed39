"""Fault-injection harness + RetryingEmitter failure paths.

The harness must be deterministic (same seed → same failures) or the
stress tests built on it would flake; the RetryingEmitter must shield the
scheduler from a crashing sink and park undeliverable batches in the
dead-letter collector.
"""

import time

import numpy as np
import pytest

from repro import DataCellEngine, RetryingEmitter
from repro.core.emitter import CollectingEmitter
from repro.core.factory import ResultBatch
from repro.errors import ReproError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.execution.profiler import (
    COUNTER_DEAD_LETTERS,
    COUNTER_EMIT_RETRIES,
    Profiler,
)
from repro.testing.faults import (
    FlakyEmitter,
    InjectedFault,
    SlowFactory,
    StallingSource,
)


def batch(value: int, index: int = 1) -> ResultBatch:
    return ResultBatch(["a"], {"a": BAT.from_values([value], Atom.INT)}, index, 0.0)


class TestStallingSource:
    def test_rows_pass_through_unchanged(self):
        source = StallingSource([(i, i) for i in range(10)], every=100, seconds=0.0)
        assert list(source) == [(i, i) for i in range(10)]
        assert source.stalls == 0

    def test_stalls_at_fixed_ordinals(self):
        source = StallingSource([(i,) for i in range(6)], every=2, seconds=0.0)
        list(source)
        assert source.stalls == 3

    def test_stall_actually_sleeps(self):
        source = StallingSource([(1,), (2,)], every=1, seconds=0.02)
        start = time.monotonic()
        list(source)
        assert time.monotonic() - start >= 0.04

    def test_bad_every_rejected(self):
        with pytest.raises(ReproError):
            StallingSource([], every=0, seconds=0.1)


class TestFlakyEmitter:
    def test_explicit_failure_schedule(self):
        emitter = FlakyEmitter(failures=[1])
        emitter("f", batch(1))  # delivery 0: fine
        with pytest.raises(InjectedFault):
            emitter("f", batch(2))  # delivery 1: scheduled failure
        emitter("f", batch(3))  # delivery 2: fine
        assert emitter.raised == 1
        assert emitter.delivered == 2

    def test_seeded_rate_is_deterministic(self):
        def run():
            emitter = FlakyEmitter(rate=0.5, seed=11)
            outcomes = []
            for i in range(20):
                try:
                    emitter("f", batch(i))
                    outcomes.append(True)
                except InjectedFault:
                    outcomes.append(False)
            return outcomes

        assert run() == run()
        assert False in run() and True in run()

    def test_fail_streak_allows_recovery_on_retry(self):
        emitter = FlakyEmitter(failures=[0], fail_streak=2)
        one = batch(1)
        with pytest.raises(InjectedFault):
            emitter("f", one)
        with pytest.raises(InjectedFault):
            emitter("f", one)  # same batch: attempt 2, still in the streak
        emitter("f", one)  # attempt 3 succeeds
        assert emitter.delivered == 1

    def test_inner_sink_receives_successes(self):
        inner = CollectingEmitter()
        emitter = FlakyEmitter(inner=inner, failures=[0])
        with pytest.raises(InjectedFault):
            emitter("f", batch(1))
        emitter("f", batch(2))
        assert len(inner.batches()) == 1


class TestSlowFactory:
    def test_delegates_and_delays(self):
        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        query = engine.submit(
            "SELECT x1, count(*) FROM s [RANGE 4 SLIDE 2] GROUP BY x1"
        )
        slow = SlowFactory(query.factory, delay=0.01, every=1)
        engine.feed("s", columns={"x1": np.arange(4) % 2, "x2": np.arange(4)})
        assert slow.ready()
        start = time.monotonic()
        produced = slow.step()
        assert time.monotonic() - start >= 0.01
        assert produced is not None
        assert slow.slow_steps == 1
        assert slow.window_index == 1  # attribute delegation

    def test_delegates_the_scheduler_interface(self):
        """The scheduler reads consumed tuples and the baskets through the
        wrapper; both must be the wrapped factory's, not empty defaults."""
        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        query = engine.submit("SELECT sum(x1) FROM s [RANGE 4 SLIDE 2]")
        engine.feed("s", columns={"x1": np.arange(8), "x2": np.arange(8)})
        engine.run_until_idle()
        slow = SlowFactory(query.factory, delay=0.0)
        assert query.factory.consumed_total() == 8
        assert slow.consumed_total() == 8
        assert len(query.factory.baskets()) == 1
        assert slow.baskets() == query.factory.baskets()


class TestRetryingEmitter:
    def test_transient_failure_recovers(self):
        inner = CollectingEmitter()
        flaky = FlakyEmitter(inner=inner, failures=[0], fail_streak=2)
        profiler = Profiler()
        retrying = RetryingEmitter(
            flaky, max_retries=3, backoff=0.001, profiler=profiler
        )
        retrying("f", batch(1))
        assert len(inner.batches()) == 1
        assert retrying.retries == 2
        assert retrying.dead_lettered == 0
        assert profiler.counter(COUNTER_EMIT_RETRIES) == 2

    def test_exhausted_retries_dead_letter_the_batch(self):
        flaky = FlakyEmitter(failures=[0], fail_streak=100)
        profiler = Profiler()
        retrying = RetryingEmitter(
            flaky, max_retries=2, backoff=0.001, profiler=profiler
        )
        doomed = batch(7, index=3)
        retrying("f", doomed)  # must NOT raise
        letters = retrying.dead_letters()
        assert letters == [doomed]
        assert retrying.dead_lettered == 1
        assert isinstance(retrying.last_error, InjectedFault)
        assert profiler.counter(COUNTER_DEAD_LETTERS) == 1

    def test_custom_dead_letter_sink(self):
        parked = []
        retrying = RetryingEmitter(
            FlakyEmitter(rate=1.0),
            max_retries=0,
            backoff=0.0,
            dead_letter=lambda name, b: parked.append((name, b)),
        )
        retrying("f", batch(1))
        assert len(parked) == 1
        with pytest.raises(TypeError):
            retrying.dead_letters()

    def test_downstream_failure_does_not_kill_the_factory(self):
        """End to end: a permanently broken sink never breaks the query."""
        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        query = engine.submit(
            "SELECT x1, count(*) FROM s [RANGE 10 SLIDE 5] GROUP BY x1"
        )
        broken = FlakyEmitter(rate=1.0, fail_streak=10**6)  # never recovers
        retrying = RetryingEmitter(broken, max_retries=1, backoff=0.0)
        engine.scheduler.add_sink(query.name, retrying)
        rng = np.random.default_rng(2)
        engine.feed(
            "s", columns={"x1": rng.integers(0, 3, 30), "x2": rng.integers(0, 9, 30)}
        )
        fired = engine.run_until_idle()  # would raise without the wrapper
        assert fired > 0
        assert len(query.results()) == fired  # collecting emitter unaffected
        assert retrying.dead_lettered == fired
