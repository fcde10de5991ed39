"""Bounded baskets and overflow policies (overload-control tentpole).

Covers the policy decisions (Fail / Block / ShedOldest / ShedNewest /
Sample), the basket mechanics they drive, the engine-level wiring
(per-stream knobs, profiler counters, one admission per stream), and —
crucially — pins that an unbounded basket behaves exactly as before.
"""

import threading
import time

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.basket import Basket
from repro.core.overflow import (
    Block,
    Fail,
    Sample,
    ShedNewest,
    ShedOldest,
    parse_overflow_spec,
)
from repro.errors import BasketError, BasketOverflowError, ReproError
from repro.kernel.atoms import Atom
from repro.kernel.execution.profiler import COUNTER_SHED
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
            make_basket(overflow=ShedOldest())

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


class TestShedOldest:
    def test_evicts_head_keeps_newest(self):
        basket = make_basket(capacity=5, overflow=ShedOldest())
        basket.append_rows(rows(*range(5)))
        basket.append_rows(rows(5, 6, 7))
        assert basket.column("x").to_list() == [3, 4, 5, 6, 7]
        assert basket.shed_total == 3

    def test_batch_larger_than_capacity(self):
        basket = make_basket(capacity=4, overflow=ShedOldest())
        basket.append_rows(rows(0, 1))
        admitted = basket.append_rows(rows(*range(10, 20)))
        assert admitted == 4
        assert basket.column("x").to_list() == [16, 17, 18, 19]
        # 2 parked evicted + 6 of the incoming batch dropped
        assert basket.shed_total == 8

    def test_timestamps_stay_monotonic(self):
        basket = make_basket(capacity=4, overflow=ShedOldest())
        basket.append_rows(rows(*range(4)))
        basket.append_rows(rows(4, 5))
        ts = basket.timestamps().to_list()
        assert ts == sorted(ts)
        assert basket.count_before(ts[-1]) == len(ts) - 1

    def test_columnar_path(self):
        basket = make_basket(capacity=5, overflow=ShedOldest())
        basket.append_columns({"x": np.arange(5)})
        basket.append_columns({"x": np.arange(5, 8)})
        assert basket.column("x").to_list() == [3, 4, 5, 6, 7]


class TestShedNewest:
    def test_admits_prefix_drops_tail(self):
        basket = make_basket(capacity=5, overflow=ShedNewest())
        admitted = basket.append_columns({"x": np.arange(8)})
        assert admitted == 5
        assert basket.column("x").to_list() == [0, 1, 2, 3, 4]
        assert basket.shed_total == 3

    def test_full_basket_sheds_everything(self):
        basket = make_basket(capacity=2, overflow=ShedNewest())
        basket.append_rows(rows(1, 2))
        assert basket.append_rows(rows(3, 4, 5)) == 0
        assert basket.shed_total == 3

    def test_explicit_timestamps_follow_selection(self):
        basket = make_basket(capacity=2, overflow=ShedNewest())
        basket.append_rows(rows(1, 2, 3), timestamps=[10, 20, 30])
        assert basket.timestamps().to_list() == [10, 20]


class TestSample:
    def test_deterministic_for_seed(self):
        outcomes = []
        for __ in range(2):
            basket = make_basket(capacity=10, overflow=Sample(0.5, seed=42))
            basket.append_columns({"x": np.arange(10)})
            basket.append_columns({"x": np.arange(10, 30)})
            outcomes.append((basket.column("x").to_list(), basket.shed_total))
        assert outcomes[0] == outcomes[1]

    def test_capacity_is_hard_bound(self):
        basket = make_basket(capacity=4, overflow=Sample(1.0, seed=0))
        basket.append_columns({"x": np.arange(3)})
        basket.append_columns({"x": np.arange(50)})
        assert len(basket) == 4

    def test_rate_zero_sheds_all_overflow(self):
        basket = make_basket(capacity=4, overflow=Sample(0.0, seed=0))
        basket.append_columns({"x": np.arange(4)})
        assert basket.append_columns({"x": np.arange(6)}) == 0
        assert basket.shed_total == 6

    def test_bad_rate_rejected(self):
        with pytest.raises(ReproError):
            Sample(1.5)

    def test_clone_restarts_rng(self):
        policy = Sample(0.5, seed=7)
        first = policy.admit(0, 100, 10)
        clone = policy.clone()
        assert np.array_equal(clone.admit(0, 100, 10).keep, first.keep)


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
    def test_shed_counts_mirrored(self):
        """Shed counts live on the basket; the engine profiler adds them
        up when read, so every copy it hands out carries them."""
        engine = DataCellEngine()
        engine.create_stream("s", [("x", "int")], capacity=2, overflow=ShedNewest())
        engine.submit("SELECT count(*) AS n FROM s [RANGE 4 SLIDE 4]")
        engine.feed("s", rows(1, 2, 3, 4))
        assert engine.overload_stats()["s"]["shed"] == 2
        assert engine.profiler.counter(COUNTER_SHED) == 2
        assert engine.metrics()["counters"][COUNTER_SHED] == 2


class TestUnboundedPinned:
    """With capacity unset, behaviour is byte-identical to the seed."""

    def test_no_overflow_state_touched(self):
        basket = make_basket()
        basket.append_rows(rows(*range(100)))
        basket.append_columns({"x": np.arange(100)})
        assert basket.shed_total == 0
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

    def test_shed_surfaces_in_engine_profiler(self):
        engine, query = self._overloaded_engine(ShedOldest())
        rng = np.random.default_rng(1)
        for __ in range(4):
            engine.feed(
                "s",
                columns={
                    "x1": rng.integers(0, 3, 50),
                    "x2": rng.integers(0, 9, 50),
                },
            )
        engine.run_until_idle()
        assert engine.profiler.counter(COUNTER_SHED) > 0
        stats = engine.overload_stats()["s"]
        assert stats["shed"] > 0
        assert stats["capacity"] == 30
        assert stats["max_parked"] <= 30

    def test_shedding_stream_keeps_sharing(self):
        engine, query = self._overloaded_engine(ShedOldest())
        assert query.factory.shares_fragments

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
        q1, q2 = engine.submit(fast), engine.submit(fast)
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

    def test_policy_template_cloned_once_per_stream(self):
        engine = DataCellEngine()
        template = Sample(0.5, seed=9)
        engine.create_stream(
            "s", [("x1", "int"), ("x2", "int")], capacity=10, overflow=template
        )
        q1 = engine.submit("SELECT x1, count(*) FROM s [RANGE 4 SLIDE 2] GROUP BY x1")
        q2 = engine.submit("SELECT x2, count(*) FROM s [RANGE 4 SLIDE 2] GROUP BY x2")
        policies = {
            id(cursor.basket.overflow_policy)
            for query in (q1, q2)
            for cursor in query.baskets.values()
        }
        assert len(policies) == 1
        assert id(template) not in policies

    def test_overflow_without_capacity_rejected(self):
        engine = DataCellEngine()
        with pytest.raises(ReproError):
            engine.create_stream("s", [("x1", "int")], overflow=ShedOldest())


class TestParseOverflowSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("fail", Fail),
            ("block", Block),
            ("block:0.5", Block),
            ("shed-oldest", ShedOldest),
            ("shed_oldest", ShedOldest),
            ("SHED-NEWEST", ShedNewest),
            ("sample:0.25", Sample),
            ("sample:0.25:7", Sample),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert isinstance(parse_overflow_spec(spec), expected)

    def test_parameters_carried(self):
        assert parse_overflow_spec("block:0.5").timeout == 0.5
        policy = parse_overflow_spec("sample:0.25:7")
        assert policy.rate == 0.25
        assert policy.seed == 7

    @pytest.mark.parametrize(
        "spec", ["", "nope", "sample", "block:x", "fail:1", "shed-oldest:2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ReproError):
            parse_overflow_spec(spec)
