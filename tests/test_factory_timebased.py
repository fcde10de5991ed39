"""Behavioural tests for time-based sliding windows.

Arrival timestamps are supplied explicitly (microseconds), so the tests
control exactly which tuples fall into which time slice — including empty
basic windows, which the paper says are "recognized and simply skipped".
"""

import numpy as np
import pytest

from repro import DataCellEngine
from repro.errors import BasketError

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
