"""Overload stress tests: sustained 4× overload, blocked producers,
threaded ingest under faults.

These are the acceptance tests for the overload-control layer: a bounded
stream under a synthetic overload must keep memory bounded and report its
shedding through the profiler, and the failure paths (full ``Block``
basket with nobody draining, stalled receptors, slow factories) must
degrade instead of deadlocking.
"""

import threading
import time

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.overflow import Block, ShedOldest
from repro.errors import BasketOverflowError
from repro.kernel.execution.profiler import (
    COUNTER_INGEST_DROPPED,
    COUNTER_SHED,
)
from repro.testing.faults import SlowFactory, StallingSource

WINDOW = 200
STEP = 100
CAPACITY = 4 * WINDOW


def overloaded_engine(policy, capacity=CAPACITY):
    engine = DataCellEngine()
    engine.create_stream(
        "s", [("x1", "int"), ("x2", "int")], capacity=capacity, overflow=policy
    )
    query = engine.submit(
        f"SELECT x1, sum(x2) FROM s [RANGE {WINDOW} SLIDE {STEP}] "
        "GROUP BY x1 ORDER BY x1"
    )
    return engine, query


def chunk(rng, size):
    return {
        "x1": rng.integers(0, 4, size),
        "x2": rng.integers(0, 50, size),
    }


class TestShedOldestUnderOverload:
    def test_4x_overload_bounded_memory_nonzero_shed(self):
        """The acceptance scenario: arrivals at 4× the consumption rate.

        Each tick feeds 4 slides' worth of tuples but the scheduler only
        fires once, so producers outrun the factory by 4×.  The basket
        must never exceed its capacity and the profiler must report the
        overflow through the shed counter.
        """
        engine, query = overloaded_engine(ShedOldest())
        rng = np.random.default_rng(17)
        cursor = next(iter(query.baskets.values()))
        max_parked = 0
        for __ in range(30):
            engine.feed("s", columns=chunk(rng, 4 * STEP))
            engine.scheduler.run_once()
            max_parked = max(max_parked, len(cursor))
        engine.run_until_idle()
        shed = engine.profiler.counter(COUNTER_SHED)
        assert max_parked <= CAPACITY  # bounded memory, always
        assert shed > 0  # overload was real and accounted
        stats = engine.overload_stats()["s"]
        assert stats["shed"] == shed
        assert query.results()  # the query still produced windows
        # ShedOldest admits every incoming tuple (evicting parked ones),
        # so the admission count equals the offered count while `shed`
        # tracks the evictions.
        offered = 30 * 4 * STEP
        assert cursor.basket.appended_total == offered

    @pytest.mark.concurrency
    def test_threaded_4x_overload_stays_bounded(self):
        """Same scenario with a real producer thread and background
        scheduler, plus a SlowFactory throttling the service rate."""
        engine, query = overloaded_engine(ShedOldest(), capacity=2 * WINDOW)
        registration = engine.scheduler._registrations[query.name]
        registration.factory = SlowFactory(registration.factory, delay=0.002)
        basket = next(iter(query.baskets.values()))
        rng = np.random.default_rng(23)
        occupancy: list[int] = []
        stop = threading.Event()

        def producer():
            while not stop.is_set():
                engine.feed("s", columns=chunk(rng, STEP))
                occupancy.append(len(basket))
                time.sleep(0.0005)

        engine.start(poll_interval=0.0005)
        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.5)
        stop.set()
        thread.join(timeout=5.0)
        engine.stop(drain=True)
        assert max(occupancy) <= 2 * WINDOW
        assert engine.profiler.counter(COUNTER_SHED) > 0
        assert query.results()
        # Drain-on-stop finalized the accounting: nothing fireable remains.
        assert not query.factory.ready()


class TestBlockFailurePaths:
    def test_block_push_with_stopped_scheduler_times_out(self):
        """A full Block basket with nobody consuming must time out —
        never deadlock — and count the timeout."""
        engine, query = overloaded_engine(Block(timeout=0.05), capacity=STEP)
        engine.start()
        engine.stop(drain=False)  # scheduler exists but no longer runs
        engine.feed("s", columns=chunk(np.random.default_rng(5), STEP))
        start = time.monotonic()
        with pytest.raises(BasketOverflowError):
            engine.feed("s", columns=chunk(np.random.default_rng(6), STEP))
        assert time.monotonic() - start < 2.0
        assert engine.overload_stats()["s"]["block_timeouts"] == 1

    @pytest.mark.concurrency
    def test_block_backpressure_is_lossless_with_running_scheduler(self):
        """With the scheduler draining, Block never drops a tuple: every
        window is produced exactly as in the unbounded run."""
        engine, query = overloaded_engine(Block(timeout=10.0), capacity=WINDOW)
        rng = np.random.default_rng(31)
        chunks = [chunk(rng, STEP) for __ in range(20)]
        engine.start(poll_interval=0.0005)
        for columns in chunks:
            engine.feed("s", columns=columns)  # may park until room frees
        engine.stop(drain=True)
        assert engine.profiler.counter(COUNTER_SHED) == 0

        reference = DataCellEngine()
        reference.create_stream("s", [("x1", "int"), ("x2", "int")])
        ref_query = reference.submit(query.sql)
        for columns in chunks:
            reference.feed("s", columns=columns)
        reference.run_until_idle()
        assert query.result_rows() == ref_query.result_rows()


class TestReceptorUnderOverload:
    @pytest.mark.concurrency
    def test_background_ingest_sheds_instead_of_wedging(self):
        """A receptor feeding a full Fail-policy basket with no consumer
        must drop batches (counted) and finish — not hang or die."""
        engine = DataCellEngine()
        engine.create_stream(
            "s", [("x1", "int"), ("x2", "int")], capacity=64
        )
        query = engine.submit(
            "SELECT x1, count(*) FROM s [RANGE 1000 SLIDE 500] GROUP BY x1"
        )
        receptor = engine.receptor("s")
        receptor.batch_size = 64
        receptor.max_retries = 1
        receptor.backoff = 0.001
        source = StallingSource(
            [(i % 5, i) for i in range(256)], every=64, seconds=0.001
        )
        receptor.start(source, on_batch=lambda n: None)
        receptor.join(timeout=10.0)
        assert receptor.delivered == 64  # first batch filled the basket
        assert receptor.dropped == 192  # the rest was shed at the receptor
        assert receptor.profiler.counter(COUNTER_INGEST_DROPPED) == 192
        assert source.stalls == 4

    @pytest.mark.concurrency
    def test_receptor_with_scheduler_delivers_under_stalls(self):
        """Stalling upstream + bounded basket + running scheduler: the
        pipeline keeps producing windows and loses nothing under Block."""
        engine = DataCellEngine()
        engine.create_stream(
            "s",
            [("x1", "int"), ("x2", "int")],
            capacity=256,
            overflow=Block(timeout=5.0),
        )
        query = engine.submit(
            "SELECT x1, count(*) FROM s [RANGE 100 SLIDE 50] GROUP BY x1"
        )
        receptor = engine.receptor("s")
        receptor.batch_size = 100  # batches must fit the Block capacity
        rows = [(i % 3, i) for i in range(1000)]
        engine.start(poll_interval=0.0005)
        receptor.start(StallingSource(rows, every=200, seconds=0.002))
        receptor.join(timeout=30.0)
        engine.stop(drain=True)
        assert receptor.delivered == 1000
        assert receptor.dropped == 0
        assert len(query.results()) == (1000 - 100) // 50 + 1
