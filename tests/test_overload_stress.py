"""Overload stress tests: sustained 4× overload, blocked producers,
threaded ingest under faults.

These are the acceptance tests for the overload-control layer: a bounded
stream under a synthetic overload must keep memory bounded and lose
nothing, and the failure paths (full ``Block`` basket with nobody
draining, stalled receptors, slow factories) must degrade instead of
deadlocking.
"""

import threading
import time

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.overflow import Block, Fail
from repro.errors import BasketOverflowError
from repro.kernel.execution.profiler import COUNTER_INGEST_DROPPED
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
    """Sustained 4x overload on a ``Fail`` basket: the producer sheds
    the batches the basket refuses, and the basket stays a hard bound.

    The class keeps the name it had when the basket itself could shed its
    oldest tuples; the bound and the conservation it checks are the same.
    """

    def test_4x_overload_bounded_memory_nonzero_shed(self):
        """The acceptance scenario: arrivals at 4x the consumption rate.

        Each tick offers 4 slides but the scheduler fires only once, so
        the producer outruns the factory by 4x.  The basket must never
        exceed its capacity, some batches must be refused, and the query
        must see exactly the admitted batches: offered = admitted +
        refused, and the windows equal an unbounded run over the
        admitted batches alone.
        """
        engine, query = overloaded_engine(Fail())
        rng = np.random.default_rng(17)
        cursor = next(iter(query.baskets.values()))
        admitted = []
        refused = max_parked = 0
        for __ in range(30):
            for __ in range(4):
                columns = chunk(rng, STEP)
                try:
                    engine.feed("s", columns=columns)
                    admitted.append(columns)
                except BasketOverflowError:
                    refused += STEP
                max_parked = max(max_parked, len(cursor))
            engine.scheduler.run_once()
        engine.run_until_idle()
        assert max_parked <= CAPACITY  # bounded memory, always
        assert refused > 0  # overload was real
        assert engine.overload_stats()["s"]["parked"] <= CAPACITY
        offered = 30 * 4 * STEP
        assert cursor.basket.appended_total == offered - refused
        assert query.results()  # the query still produced windows

        reference = DataCellEngine()
        reference.create_stream("s", [("x1", "int"), ("x2", "int")])
        ref_query = reference.submit(query.sql)
        for columns in admitted:
            reference.feed("s", columns=columns)
        reference.run_until_idle()
        assert query.result_rows() == ref_query.result_rows()

    @pytest.mark.concurrency
    def test_threaded_4x_overload_stays_bounded(self):
        """Same scenario with a real producer thread and background
        scheduler, plus a SlowFactory throttling the service rate: a
        ``Fail`` producer racing the firing thread never sees more than
        the capacity parked."""
        engine, query = overloaded_engine(Fail(), capacity=2 * WINDOW)
        registration = engine.scheduler._registrations[query.name]
        registration.factory = SlowFactory(registration.factory, delay=0.002)
        basket = next(iter(query.baskets.values()))
        rng = np.random.default_rng(23)
        occupancy: list[int] = []
        counts = {"offered": 0, "refused": 0}
        stop = threading.Event()

        def producer():
            while not stop.is_set():
                counts["offered"] += STEP
                try:
                    engine.feed("s", columns=chunk(rng, STEP))
                except BasketOverflowError:
                    counts["refused"] += STEP
                occupancy.append(len(basket))
                time.sleep(0.0005)

        engine.start(poll_interval=0.0005)
        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.5)
        stop.set()
        thread.join(timeout=5.0)
        engine.stop(drain=True)
        assert not thread.is_alive()
        assert max(occupancy) <= 2 * WINDOW
        assert counts["refused"] > 0
        assert basket.basket.appended_total == counts["offered"] - counts["refused"]
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
        window is produced exactly as in the unbounded run.

        A producer thread offers a slide every 0.5 ms while a SlowFactory
        consumes one every 2 ms (4x overload), so it parks on the full
        basket.  Another thread samples ``overload_stats()`` the whole
        time: no sample ever shows more tuples parked than the capacity.
        """
        engine, query = overloaded_engine(Block(timeout=10.0), capacity=WINDOW)
        registration = engine.scheduler._registrations[query.name]
        registration.factory = SlowFactory(registration.factory, delay=0.002)
        rng = np.random.default_rng(31)
        chunks = [chunk(rng, STEP) for __ in range(40)]
        samples: list[dict] = []
        done = threading.Event()

        def producer():
            for columns in chunks:
                engine.feed("s", columns=columns)  # may park until room frees
                time.sleep(0.0005)
            done.set()

        def sampler():
            while not done.is_set():
                samples.append(engine.overload_stats()["s"])
                time.sleep(0.0002)

        engine.start(poll_interval=0.0005)
        threads = [threading.Thread(target=f, daemon=True) for f in (producer, sampler)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        engine.stop(drain=True)
        assert done.is_set() and samples
        assert max(sample["parked"] for sample in samples) <= WINDOW
        assert max(sample["max_parked"] for sample in samples) <= WINDOW
        stats = engine.overload_stats()["s"]
        assert stats["block_waits"] > 0  # the overload was real
        assert stats["block_timeouts"] == 0
        assert query.baskets["s"].basket.appended_total == len(chunks) * STEP

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
