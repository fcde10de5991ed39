"""Bounded baskets and overflow policies (overload-control tentpole).

Covers the two policies (Fail / Block), the basket mechanics they drive,
the engine-level wiring (per-stream knobs, profiler counters, one
admission per stream), the refusal of the removed lossy policies, and —
crucially — pins that an unbounded basket behaves exactly as before.
"""

import threading
import time

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.basket import Basket
from repro.core.overflow import Block, Fail, parse_overflow_spec
from repro.errors import BasketError, BasketOverflowError, ReproError
from repro.kernel.atoms import Atom
from repro.kernel.execution.profiler import COUNTER_BLOCK_TIMEOUTS, COUNTER_BLOCK_WAITS
from repro.kernel.storage import Schema
from repro.testing import wait_until

SCHEMA = Schema.of(("x", Atom.INT))


def make_basket(capacity=None, overflow=None):
    return Basket("b", SCHEMA, capacity=capacity, overflow=overflow)


def rows(*values):
    return [(v,) for v in values]


class TestConstruction:
    def test_capacity_must_be_positive(self):
        with pytest.raises(BasketError):
            make_basket(capacity=0)

    def test_policy_without_capacity_rejected(self):
        with pytest.raises(BasketError):
            make_basket(overflow=Block())

    def test_default_policy_is_fail(self):
        basket = make_basket(capacity=3)
        assert isinstance(basket.overflow_policy, Fail)

    def test_unbounded_has_no_policy(self):
        basket = make_basket()
        assert basket.capacity is None
        assert basket.overflow_policy is None


class TestFail:
    def test_fitting_batch_admitted(self):
        basket = make_basket(capacity=3)
        assert basket.append_rows(rows(1, 2, 3)) == 3

    def test_overflow_raises_and_appends_nothing(self):
        basket = make_basket(capacity=3)
        basket.append_rows(rows(1, 2))
        with pytest.raises(BasketOverflowError) as info:
            basket.append_rows(rows(3, 4))
        assert info.value.requested == 2
        assert info.value.room == 1
        assert basket.column("x").to_list() == [1, 2]

    @pytest.mark.parametrize("path", ["rows", "columns"])
    def test_a_rejected_batch_leaves_the_time_frontier(self, path):
        basket = make_basket(capacity=4, overflow=Fail())

        def append(values, timestamps):
            if path == "rows":
                return basket.append_rows(rows(*values), timestamps=timestamps)
            return basket.append_columns({"x": values}, timestamps=timestamps)

        append([1, 2, 3], [1, 2, 3])
        with pytest.raises(BasketOverflowError):
            append([4, 5], [4, 5])
        assert append([4], [4]) == 1
        assert basket.timestamps().to_list() == [1, 2, 3, 4]

    def test_room_frees_after_delete_head(self):
        basket = make_basket(capacity=3)
        basket.append_rows(rows(1, 2, 3))
        basket.delete_head(2)
        assert basket.append_rows(rows(4, 5)) == 2
        assert basket.column("x").to_list() == [3, 4, 5]


class TestBlock:
    def test_timeout_raises_not_deadlocks(self):
        basket = make_basket(capacity=2, overflow=Block(timeout=0.05))
        basket.append_rows(rows(1, 2))
        start = time.monotonic()
        with pytest.raises(BasketOverflowError):
            basket.append_rows(rows(3))
        assert time.monotonic() - start < 2.0
        assert basket.block_timeouts == 1
        assert basket.block_waits == 1

    def test_oversized_batch_fails_fast(self):
        basket = make_basket(capacity=2, overflow=Block(timeout=30.0))
        start = time.monotonic()
        with pytest.raises(BasketOverflowError):
            basket.append_rows(rows(1, 2, 3))
        assert time.monotonic() - start < 1.0

    def test_consumer_unblocks_producer(self):
        basket = make_basket(capacity=2, overflow=Block(timeout=5.0))
        basket.append_rows(rows(1, 2))
        done = threading.Event()

        def producer():
            basket.append_rows(rows(3))
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.02)
        assert not done.is_set()  # parked, waiting for room
        basket.delete_head(1)
        assert done.wait(5.0)
        assert basket.column("x").to_list() == [2, 3]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ReproError):
            Block(timeout=-1)

    def test_two_producers_wake_in_room_order(self):
        """Partial room wakes only the producer whose batch fits.

        `delete_head` uses `notify_all`, so both parked producers recheck
        the room; the admit loop must put back to sleep the one whose
        batch still does not fit (no partial append, no lost wake-up).
        Sequenced on observable basket state via ``wait_until`` — no
        timing assumptions.
        """
        basket = make_basket(capacity=3, overflow=Block(timeout=10.0))
        basket.append_rows(rows(1, 2, 3))
        big_done = threading.Event()
        small_done = threading.Event()

        def big_producer():
            basket.append_rows(rows(7, 8))  # needs room 2
            big_done.set()

        def small_producer():
            basket.append_rows(rows(9))  # needs room 1
            small_done.set()

        big = threading.Thread(target=big_producer, daemon=True)
        big.start()
        assert wait_until(lambda: basket.block_waits == 1)
        small = threading.Thread(target=small_producer, daemon=True)
        small.start()
        assert wait_until(lambda: basket.block_waits == 2)
        assert not big_done.is_set() and not small_done.is_set()

        basket.delete_head(1)  # room 1: only the small batch fits
        assert small_done.wait(5.0)
        assert not big_done.is_set()  # woken, rechecked, parked again
        assert basket.column("x").to_list() == [2, 3, 9]

        basket.delete_head(2)  # room 2: now the big batch admits
        assert big_done.wait(5.0)
        big.join(5.0)
        small.join(5.0)
        assert basket.column("x").to_list() == [9, 7, 8]
        assert basket.block_waits == 2
        assert basket.block_timeouts == 0


class TestProfilerSurface:
    def test_block_counts_mirrored(self):
        """Blocked counts live on the basket; the engine profiler adds
        them up when read, so every copy it hands out carries them."""
        engine = DataCellEngine()
        engine.create_stream("s", [("x", "int")], capacity=2, overflow=Block(timeout=0.0))
        engine.submit("SELECT count(*) AS n FROM s [RANGE 4 SLIDE 4]")
        engine.feed("s", rows(1, 2))
        with pytest.raises(BasketOverflowError):
            engine.feed("s", rows(3))
        stats = engine.overload_stats()["s"]
        assert (stats["block_waits"], stats["block_timeouts"]) == (1, 1)
        for counters in (engine.profiler.counters, engine.metrics()["counters"]):
            assert counters[COUNTER_BLOCK_WAITS] == 1
            assert counters[COUNTER_BLOCK_TIMEOUTS] == 1


class TestUnboundedPinned:
    """With capacity unset, behaviour is byte-identical to the seed."""

    def test_no_overflow_state_touched(self):
        basket = make_basket()
        basket.append_rows(rows(*range(100)))
        basket.append_columns({"x": np.arange(100)})
        assert basket.block_waits == 0
        assert len(basket) == 200
        assert basket.appended_total == 200

    def test_logical_clock_unchanged(self):
        basket = make_basket()
        basket.append_rows(rows(1, 2))
        basket.append_columns({"x": np.arange(3)})
        assert basket.timestamps().to_list() == [0, 1, 2, 3, 4]

    def test_query_results_identical_with_and_without_capacity(self):
        def run(**stream_kwargs):
            engine = DataCellEngine()
            engine.create_stream(
                "s", [("x1", "int"), ("x2", "int")], **stream_kwargs
            )
            query = engine.submit(
                "SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 20] "
                "GROUP BY x1 ORDER BY x1"
            )
            rng = np.random.default_rng(3)
            for __ in range(5):
                engine.feed(
                    "s",
                    columns={
                        "x1": rng.integers(0, 4, 20),
                        "x2": rng.integers(0, 9, 20),
                    },
                )
                engine.run_until_idle()
            return query.result_rows()

        default = run()
        # A capacity the workload never exceeds must not change anything.
        roomy = run(capacity=10_000, overflow=Block(timeout=1.0))
        assert default == roomy
        assert default  # sanity: windows actually fired


class TestSnapshot:
    def test_restore_reads_older_format_5_basket_state(self):
        """Format-5 snapshots written while shedding existed carry a
        ``shed_total`` (and, for sampling, a ``policy_rng``) per basket.
        Restore needs neither and ignores both; new snapshots omit them."""
        basket = make_basket(capacity=8, overflow=Block(timeout=0.0))
        basket.append_rows(rows(1, 2, 3))
        state = basket.snapshot_state()
        assert "shed_total" not in state and "policy_rng" not in state
        state.update(shed_total=5, policy_rng={"state": 1})
        twin = make_basket(capacity=8, overflow=Block(timeout=0.0))
        twin.restore_state(state)
        assert twin.column("x").to_list() == [1, 2, 3]
        assert twin.snapshot_state().keys() == basket.snapshot_state().keys()


class TestEngineWiring:
    def _overloaded_engine(self, policy):
        engine = DataCellEngine()
        engine.create_stream(
            "s", [("x1", "int"), ("x2", "int")], capacity=30, overflow=policy
        )
        query = engine.submit(
            "SELECT x1, count(*) FROM s [RANGE 20 SLIDE 10] GROUP BY x1"
        )
        return engine, query

    def test_non_shedding_stream_keeps_sharing(self):
        engine = DataCellEngine()
        engine.create_stream(
            "s", [("x1", "int"), ("x2", "int")],
            capacity=1000, overflow=Block(timeout=0.1),
        )
        query = engine.submit(
            "SELECT x1, count(*) FROM s [RANGE 20 SLIDE 10] GROUP BY x1"
        )
        assert query.factory.shares_fragments

    def test_fail_rejects_the_batch_for_every_query(self):
        """Fail decides once per stream against the slowest query: a
        batch that does not fit is seen by no query, so sharers stay
        aligned and keep sharing."""
        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")], capacity=30)
        fast = "SELECT x1, count(*) FROM s [RANGE 20 SLIDE 10] GROUP BY x1"
        # Same step, other size: a factory of its own that shares fragments.
        q1, q2 = engine.submit(fast), engine.submit(fast.replace("RANGE 20", "RANGE 10"))
        slow = engine.submit("SELECT count(*) FROM s [RANGE 40 SLIDE 10]")
        columns = {"x1": np.zeros(25, dtype=np.int64),
                   "x2": np.zeros(25, dtype=np.int64)}
        engine.feed("s", columns=columns)
        engine.run_until_idle()
        lags = [len(q.baskets["s"]) for q in (q1, q2, slow)]
        assert lags == [5, 5, 25]
        with pytest.raises(BasketOverflowError):
            engine.feed("s", columns=columns)  # 25 + 25 > 30 for `slow`
        assert [len(q.baskets["s"]) for q in (q1, q2, slow)] == lags
        assert slow.baskets["s"].basket.appended_total == 25
        assert q1.factory.shares_fragments and q2.factory.shares_fragments
        assert engine.fragment_cache.stats()["hits"] == 2

    def test_one_policy_instance_per_stream(self):
        engine = DataCellEngine()
        policy = Block(timeout=0.5)
        engine.create_stream(
            "s", [("x1", "int"), ("x2", "int")], capacity=10, overflow=policy
        )
        q1 = engine.submit("SELECT x1, count(*) FROM s [RANGE 4 SLIDE 2] GROUP BY x1")
        q2 = engine.submit("SELECT x2, count(*) FROM s [RANGE 4 SLIDE 2] GROUP BY x2")
        policies = {
            id(cursor.basket.overflow_policy)
            for query in (q1, q2)
            for cursor in query.baskets.values()
        }
        assert policies == {id(policy)}

    def test_overflow_without_capacity_rejected(self):
        engine = DataCellEngine()
        with pytest.raises(ReproError):
            engine.create_stream("s", [("x1", "int")], overflow=Block())


class TestParseOverflowSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("fail", Fail),
            ("block", Block),
            ("block:0.5", Block),
        ],
    )
    def test_valid_specs(self, spec, expected):
        policy = parse_overflow_spec(spec)
        assert isinstance(policy, expected)
        # describe() is the spec journals and snapshots store.
        assert parse_overflow_spec(policy.describe()).describe() == policy.describe()

    def test_parameters_carried(self):
        assert parse_overflow_spec("block:0.5").timeout == 0.5
        assert parse_overflow_spec("block").timeout is None

    @pytest.mark.parametrize(
        "spec", ["shed-oldest", "shed_oldest", "SHED-NEWEST", "sample:0.25", "sample:0.25:7"]
    )
    def test_removed_policies_are_refused(self, spec):
        """The shedding and sampling policies are gone; naming one says
        so and points at the admission rules."""
        with pytest.raises(ReproError, match="was removed.*DESIGN.md §7"):
            parse_overflow_spec(spec)

    @pytest.mark.parametrize(
        "spec", ["", "nope", "sample", "block:x", "fail:1", "shed-oldest:2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ReproError):
            parse_overflow_spec(spec)
