"""Scheduler shutdown after a background-loop crash (docs/OPERATIONS.md).

When the background loop dies on a factory exception, ``stop()`` re-raises
that error and skips draining — the engine is in an undefined state.  The
documented contract for producers parked on a ``Block`` overflow policy is
that they must not sleep forever on a scheduler that will never free room:
``stop()`` wakes them and each raises ``BasketOverflowError``.
"""

import threading
import time

import pytest

from repro import DataCellEngine
from repro.core.factory import FactoryBase
from repro.core.overflow import Block
from repro.errors import BasketOverflowError


class _ExplodingFactory(FactoryBase):
    name = "boom"

    def ready(self):
        return True

    def step(self, profiler=None):
        raise RuntimeError("kernel exploded")


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestStopAfterCrash:
    def build(self):
        """An engine whose loop will crash, with a bounded Block stream.

        The continuous query needs 8 tuples per window but the basket
        caps at 4, so the query never fires and never frees room — the
        only way a parked producer wakes is the shutdown path.
        """
        engine = DataCellEngine()
        engine.create_stream(
            "s", [("x1", "int")], capacity=4, overflow=Block(timeout=30.0)
        )
        query = engine.submit("SELECT count(*) AS n FROM s [RANGE 8 SLIDE 8]")
        engine.scheduler.register(_ExplodingFactory())
        return engine, query

    def test_stop_wakes_block_parked_producers(self):
        engine, query = self.build()
        basket = next(iter(query.baskets.values())).basket
        engine.feed("s", rows=[(i,) for i in range(4)])  # basket now full

        caught = []
        parked = threading.Event()

        def producer():
            parked.set()
            try:
                engine.feed("s", rows=[(99,), (100,)])
            except BasketOverflowError as exc:
                caught.append(exc)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert parked.wait(5.0)
        assert wait_until(lambda: basket.block_waits >= 1)

        engine.start(poll_interval=0.0001)
        assert wait_until(lambda: engine.scheduler._thread is None
                          or not engine.scheduler._thread.is_alive())

        with pytest.raises(RuntimeError, match="kernel exploded"):
            engine.stop(drain=True)

        # The parked producer was woken, not left to its 30 s timeout.
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(caught) == 1
        assert "worker error" in str(caught[0])
        assert basket.block_timeouts == 0  # woken, not timed out

        # Documented post-crash state: drain was skipped, the basket
        # still parks the tuples that never formed a window.
        assert len(basket) == 4
        assert query.results() == []

        # A repeated stop() neither resurfaces the error nor drains.
        engine.stop()
        assert len(basket) == 4
        engine.close()

    def test_appends_after_aborted_stop_fail_fast(self):
        engine, query = self.build()
        engine.feed("s", rows=[(i,) for i in range(4)])
        engine.start(poll_interval=0.0001)
        assert wait_until(lambda: not engine.scheduler._thread.is_alive())
        with pytest.raises(RuntimeError, match="kernel exploded"):
            engine.stop(drain=True)
        # Later blocking appends see the abort reason immediately instead
        # of parking for their full timeout.
        start = time.monotonic()
        with pytest.raises(BasketOverflowError, match="worker error"):
            engine.feed("s", rows=[(1,)])
        assert time.monotonic() - start < 5.0
        engine.close()
