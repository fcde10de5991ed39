"""Behavioural tests for time-based sliding windows.

Arrival timestamps are supplied explicitly (microseconds), so the tests
control exactly which tuples fall into which time slice — including empty
basic windows, which the paper says are "recognized and simply skipped".
"""

import tempfile
import threading
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import DataCellEngine
from repro.core.basket import Basket
from repro.core.overflow import Fail
from repro.errors import BasketError, BasketOverflowError

from conftest import assert_rows_equal, ref_q1


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    return e


SQL = (
    "SELECT x1, sum(x2) FROM s [RANGE 40 SECONDS SLIDE 10 SECONDS] "
    "WHERE x1 > 3 GROUP BY x1 ORDER BY x1"
)

US = 1_000_000


def feed_with_ts(engine, x1, x2, ts):
    engine.feed(
        "s",
        columns={"x1": np.asarray(x1), "x2": np.asarray(x2)},
        timestamps=np.asarray(ts, dtype=np.int64),
    )


class TestTimeWindows:
    def test_fires_only_when_boundary_passed(self, engine):
        query = engine.submit(SQL)
        # 39 seconds of data: first window [0, 40s) not complete yet
        feed_with_ts(engine, [5, 6], [1, 2], [0, 39 * US])
        engine.run_until_idle()
        assert query.results() == []
        # a tuple at 41s closes the first window
        feed_with_ts(engine, [7], [3], [41 * US])
        engine.run_until_idle()
        assert len(query.results()) == 1
        assert query.results()[0].rows() == [(5, 1), (6, 2)]

    def test_sliding_by_time(self, engine):
        query = engine.submit(SQL)
        # one tuple every 5 seconds for 100 seconds
        count = 21
        ts = [i * 5 * US for i in range(count)]
        x1 = [i % 10 for i in range(count)]
        x2 = [i for i in range(count)]
        feed_with_ts(engine, x1, x2, ts)
        engine.run_until_idle()
        results = query.results()
        # windows close at 40s, 50s, ..., 100s -> tuple at 100s closes [60,100)
        assert len(results) == 7
        for k, batch in enumerate(results):
            lo_t, hi_t = k * 10 * US, (k * 10 + 40) * US
            sel = [
                (a, b)
                for a, b, t in zip(x1, x2, ts)
                if lo_t <= t < hi_t and a > 3
            ]
            expected: dict[int, int] = {}
            for a, b in sel:
                expected[a] = expected.get(a, 0) + b
            assert batch.rows() == sorted(expected.items())

    def test_empty_basic_windows_skipped(self, engine):
        query = engine.submit(SQL)
        # burst at t=0, silence, then a tuple at 95s: several empty slices
        feed_with_ts(engine, [9, 8], [10, 20], [0, US])
        feed_with_ts(engine, [7], [30], [95 * US])
        engine.run_until_idle()
        results = query.results()
        assert len(results) == 6  # boundaries 40..90s all closed by the 95s tuple
        assert results[0].rows() == [(8, 20), (9, 10)]
        # window [20s, 60s) holds nothing
        assert results[2].rows() == []

    def test_matches_reevaluation(self, engine):
        qi = engine.submit(SQL)
        qr = engine.submit(SQL, mode="reeval")
        rng = np.random.default_rng(21)
        count = 200
        ts = np.cumsum(rng.integers(0, 2 * US, count)).astype(np.int64)
        x1 = rng.integers(0, 10, count).astype(np.int64)
        x2 = rng.integers(0, 50, count).astype(np.int64)
        feed_with_ts(engine, x1, x2, ts)
        engine.run_until_idle()
        assert len(qi.results()) > 3
        assert qi.result_rows() == qr.result_rows()

    def test_time_landmark(self, engine):
        sql = "SELECT count(*) FROM s [LANDMARK SLIDE 10 SECONDS]"
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        ts = [i * US for i in range(0, 50, 2)]  # every 2s for 50s
        feed_with_ts(engine, [1] * len(ts), [1] * len(ts), ts)
        engine.run_until_idle()
        assert len(qi.results()) == 4
        assert qi.result_rows() == qr.result_rows()
        assert qi.results()[0].rows() == [(5,)]  # tuples in [0, 10s)


#: The out-of-order repro: v = 1..4 at 1, 7, 3, 12 s, then v = 5 at 26 s.
#: Fed in timestamp order, the [6 s, 16 s) window holds v = 2 and 4.
ORDER_SQL = "SELECT count(v), sum(v) FROM s [RANGE 10 SECONDS SLIDE 5 SECONDS]"
IN_ORDER_WINDOWS = [[(2, 3)], [(2, 6)], [(1, 4)], []]


def order_engine(**kwargs):
    engine = DataCellEngine(**kwargs)
    engine.create_stream("s", [("v", "int")])
    engine.submit(ORDER_SQL, name="q")
    return engine


def state_of(engine):
    """What a refused batch must leave as it was."""
    log = engine._logs["s"]
    return (
        len(log),
        log.appended_total,
        log.max_timestamp(),
        dict(engine._stream_fed),
        engine._dur.seq if engine._dur is not None else None,
    )


class TestOutOfOrderTimestamps:
    """Timestamps may not decrease by arrival: a batch that breaks that
    is refused before it is journaled or changes any state."""

    @pytest.mark.parametrize("durable", [False, True])
    def test_the_repro_is_refused_not_mis_windowed(self, tmp_path, durable):
        engine = order_engine(data_dir=str(tmp_path) if durable else None)
        try:
            engine.feed("s", rows=[(1,), (2,)], timestamps=[1 * US, 7 * US])
            before = state_of(engine)
            with pytest.raises(BasketError, match="must not decrease"):
                engine.feed("s", rows=[(3,)], timestamps=[3 * US])
            with pytest.raises(BasketError, match="tuple 1 of the batch"):
                engine.feed("s", rows=[(3,), (4,)], timestamps=[13 * US, 12 * US])
            assert state_of(engine) == before
            engine.feed("s", rows=[(4,)], timestamps=[12 * US])  # in order
            engine.feed("s", rows=[(5,)], timestamps=[26 * US])
            engine.run_until_idle()
            windows = [batch.rows() for batch in engine.query("q").results()]
            assert windows == IN_ORDER_WINDOWS
        finally:
            engine.close()

    @pytest.mark.parametrize("durable", [False, True])
    def test_a_batch_without_timestamps_is_checked_too(self, tmp_path, durable):
        """A batch fed without timestamps is stamped from the stream's
        counter; stamps that would land below the frontier are refused
        before the batch is journaled, like explicit ones."""
        engine = order_engine(data_dir=str(tmp_path) if durable else None)
        try:
            engine.feed("s", rows=[(1,), (2,)], timestamps=[1 * US, 7 * US])
            before = state_of(engine)
            with pytest.raises(BasketError, match="no timestamps"):
                engine.feed("s", rows=[(3,), (4,)])
            assert state_of(engine) == before
            engine.feed("s", rows=[(5,)], timestamps=[26 * US])
            engine.run_until_idle()
            windows = [batch.rows() for batch in engine.query("q").results()]
            # Once admitted, v = 3, 4 landed in the first window and the
            # [6 s, 16 s) window lost v = 2.
            assert windows == [[(2, 3)], [(1, 2)], [], []]
        finally:
            engine.close()

    def test_counter_stamps_move_the_frontier(self):
        engine = order_engine()
        try:
            engine.feed("s", rows=[(1,), (2,), (3,)])  # stamped 0, 1, 2
            with pytest.raises(BasketError, match="before 2"):
                engine.feed("s", rows=[(4,)], timestamps=[1])
            engine.feed("s", rows=[(4,)], timestamps=[2])
        finally:
            engine.close()

    def test_equal_timestamps_and_the_watermark(self):
        engine = order_engine()
        try:
            engine.feed("s", rows=[(1,), (2,)], timestamps=[2 * US, 2 * US])
            engine.feed("s", rows=[(3,)], timestamps=[2 * US])  # equal is in order
            engine.advance_time("s", 9 * US)
            with pytest.raises(BasketError, match="watermark"):
                engine.feed("s", rows=[(4,)], timestamps=[8 * US])
            engine.feed("s", rows=[(4,)], timestamps=[9 * US])
        finally:
            engine.close()

    def test_a_partitioned_stream_refuses_before_routing(self):
        engine = DataCellEngine(partitions=2)
        try:
            engine.create_stream("s", [("k", "int"), ("v", "int")], partition_by="k")
            engine.submit(
                "SELECT k, count(v) FROM s [RANGE 10 SECONDS SLIDE 5 SECONDS] GROUP BY k",
                name="q",
            )
            engine.feed("s", rows=[(1, 1), (2, 2)], timestamps=[1 * US, 7 * US])
            routed = list(engine._partitioned["s"].routed)
            with pytest.raises(BasketError, match="must not decrease"):
                engine.feed("s", rows=[(1, 3)], timestamps=[3 * US])
            assert engine._partitioned["s"].routed == routed
            engine.advance_time("s", 20 * US)
            with pytest.raises(BasketError, match="watermark"):
                engine.feed("s", rows=[(2, 4)], timestamps=[12 * US])
        finally:
            engine.close()

    @pytest.mark.recovery
    def test_the_order_survives_a_restore(self, tmp_path):
        """The newest timestamp is part of the stream's snapshot, and
        journaled batches replay through the same check."""
        engine = order_engine(data_dir=str(tmp_path))
        engine.feed("s", rows=[(1,)], timestamps=[1 * US])
        engine.checkpoint()
        engine.feed("s", rows=[(2,)], timestamps=[7 * US])  # journaled only
        engine.abandon()
        restored = DataCellEngine.restore(str(tmp_path))
        try:
            with pytest.raises(BasketError, match="must not decrease"):
                restored.feed("s", rows=[(3,)], timestamps=[3 * US])
            restored.checkpoint()
            restored.feed("s", rows=[(4,)], timestamps=[12 * US])
            restored.feed("s", rows=[(5,)], timestamps=[26 * US])
            restored.run_until_idle()
            windows = [batch.rows() for batch in restored.query("q").results()]
            assert windows == IN_ORDER_WINDOWS
        finally:
            restored.close()
        again = DataCellEngine.restore(str(tmp_path))
        try:
            with pytest.raises(BasketError, match="must not decrease"):
                again.feed("s", rows=[(6,)], timestamps=[25 * US])
        finally:
            again.close()

    @pytest.mark.parametrize("kind", ["plain", "durable", "partitioned"])
    def test_a_rejected_batch_does_not_move_the_frontier(self, tmp_path, kind):
        """A batch the ``Fail`` policy rejects leaves the stream's time
        frontier where it was: its retry is admitted, and the windows are
        those of a run that never offered it."""
        batches = [
            ([1, 2, 3], [1, 2, 3]),
            ([4, 5], [4, 5]),  # does not fit: 3 parked + 2 > capacity 4
            ([4], [4]),
            ([6, 7], [9, 11]),
            ([8], [13]),
        ]

        def run(feeds, data_dir):
            engine = DataCellEngine(
                data_dir=data_dir, partitions=2 if kind == "partitioned" else 1
            )
            try:
                engine.create_stream(
                    "s", [("k", "int"), ("v", "int")],
                    capacity=4, overflow=Fail(), partition_by="k",
                )
                handle = engine.submit(
                    "SELECT k, count(v), sum(v) FROM s "
                    "[RANGE 4 SECONDS SLIDE 2 SECONDS] GROUP BY k",
                    name="q",
                )
                rejected = 0
                for values, seconds in feeds:
                    try:
                        engine.feed(
                            "s",
                            rows=[(1, v) for v in values],  # one key: one partition
                            timestamps=[t * US for t in seconds],
                        )
                    except BasketOverflowError:
                        rejected += 1
                        continue
                    # Close what the batch completed, so its basic
                    # windows leave the basket.
                    engine.advance_time("s", (seconds[-1] + 1) * US)
                    engine.run_until_idle()
                return rejected, [batch.rows() for batch in handle.results()]
            finally:
                engine.close()

        durable = kind == "durable"
        retried = run(batches, str(tmp_path / "retried") if durable else None)
        in_order = run(
            batches[:1] + batches[2:], str(tmp_path / "in-order") if durable else None
        )
        assert retried[0] == 1 and in_order[0] == 0
        assert retried[1] == in_order[1]
        assert len(in_order[1]) >= 3

    def test_racing_producers_never_decrease_the_basket(self):
        """A producer that checked its batch and then lost the race to the
        append must not land it behind a newer one: the check and the
        frontier move with the append, under one lock."""
        engine = order_engine()
        append = Basket.append_columns
        parked, release = threading.Event(), threading.Event()

        def late_append(basket, columns, timestamps=None):
            if threading.current_thread().name == "early":
                parked.set()
                release.wait(5)
            return append(basket, columns, timestamps)

        errors = []

        def early():
            try:
                engine.feed("s", rows=[(1,)], timestamps=[1 * US])
            except BasketError as exc:
                errors.append(exc)

        try:
            with patch.object(Basket, "append_columns", late_append):
                producer = threading.Thread(target=early, name="early")
                producer.start()
                assert parked.wait(5)
                engine.feed("s", rows=[(2,)], timestamps=[7 * US])
                release.set()
                producer.join(5)
            ts = engine.query("q").baskets["s"].timestamps().tail
            assert list(ts) == sorted(ts)
            assert len(errors) == 1 and "must not decrease" in str(errors[0])
        finally:
            engine.close()


@pytest.mark.parametrize("durable", [False, True])
@settings(max_examples=25)
@given(
    prefix=st.lists(st.integers(0, 30), max_size=4).map(sorted),
    batch=st.lists(st.integers(0, 30), min_size=1, max_size=6),
)
def test_a_shuffled_batch_is_refused_and_changes_nothing(durable, prefix, batch):
    """Explicit timestamps out of order — within the batch, or below
    what the stream admitted before it — raise :class:`BasketError` and
    leave the basket, the frontier, the journal and the windows as they
    were."""
    assume(prefix + batch != sorted(prefix + batch))
    with tempfile.TemporaryDirectory() as tmp:
        engine = order_engine(data_dir=tmp if durable else None)
        try:
            if prefix:
                engine.feed("s", rows=[(v,) for v in prefix], timestamps=[t * US for t in prefix])
            engine.run_until_idle()

            def observed():
                log = engine._logs["s"]
                windows = [b.rows() for b in engine.query("q").results()]
                return state_of(engine), log._newest_ts, windows

            before = observed()
            with pytest.raises(BasketError, match="must not decrease"):
                engine.feed("s", rows=[(v,) for v in batch], timestamps=[t * US for t in batch])
            engine.run_until_idle()
            assert observed() == before
        finally:
            engine.close()
