"""Behavioural tests for single-stream incremental factories.

Every test cross-checks the incremental factory against full
re-evaluation and a plain-Python reference on the same data.
"""

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.basket import Basket
from repro.kernel.execution import Profiler

from conftest import assert_rows_equal, ref_q1


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    return e


def feed_random(engine, count, seed=0, domain=10):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, domain, count).astype(np.int64)
    x2 = rng.integers(0, 50, count).astype(np.int64)
    engine.feed("s", columns={"x1": x1, "x2": x2})
    return x1, x2


Q1 = "SELECT x1, sum(x2) FROM s [RANGE 100 SLIDE 20] WHERE x1 > 3 GROUP BY x1 ORDER BY x1"


class TestSlidingSemantics:
    def test_no_result_before_first_window(self, engine):
        query = engine.submit(Q1)
        feed_random(engine, 99)
        engine.run_until_idle()
        assert query.results() == []
        assert not query.factory.ready()

    def test_first_window_fires_at_size(self, engine):
        query = engine.submit(Q1)
        feed_random(engine, 100)
        engine.run_until_idle()
        assert len(query.results()) == 1

    def test_window_per_step(self, engine):
        query = engine.submit(Q1)
        feed_random(engine, 100 + 5 * 20)
        engine.run_until_idle()
        assert len(query.results()) == 6
        assert [b.window_index for b in query.results()] == [1, 2, 3, 4, 5, 6]

    def test_partial_step_does_not_fire(self, engine):
        query = engine.submit(Q1)
        feed_random(engine, 119)
        engine.run_until_idle()
        assert len(query.results()) == 1

    def test_results_match_reference(self, engine):
        query = engine.submit(Q1)
        x1, x2 = feed_random(engine, 300, seed=5)
        engine.run_until_idle()
        for k, batch in enumerate(query.results()):
            expected = ref_q1(x1[k * 20 : k * 20 + 100], x2[k * 20 : k * 20 + 100], 3)
            assert_rows_equal(batch.rows(), expected)

    def test_matches_reevaluation(self, engine):
        qi = engine.submit(Q1, mode="incremental")
        qr = engine.submit(Q1, mode="reeval")
        feed_random(engine, 500, seed=9)
        engine.run_until_idle()
        assert qi.result_rows() == qr.result_rows()

    def test_incremental_feeding(self, engine):
        """Tuples arriving in dribs and drabs produce the same windows."""
        query = engine.submit(Q1)
        rng = np.random.default_rng(2)
        x1 = rng.integers(0, 10, 200).astype(np.int64)
        x2 = rng.integers(0, 50, 200).astype(np.int64)
        for i in range(0, 200, 7):
            engine.feed("s", columns={"x1": x1[i : i + 7], "x2": x2[i : i + 7]})
            engine.run_until_idle()
        results = query.results()
        assert len(results) == 6
        for k, batch in enumerate(results):
            expected = ref_q1(x1[k * 20 : k * 20 + 100], x2[k * 20 : k * 20 + 100], 3)
            assert_rows_equal(batch.rows(), expected)

    def test_basket_drained_after_consumption(self, engine):
        query = engine.submit(Q1)
        feed_random(engine, 100)
        engine.run_until_idle()
        assert query.baskets["s"].count == 0  # inputs discarded, partials kept


class TestTumbling:
    def test_tumbling_windows_disjoint(self, engine):
        query = engine.submit("SELECT sum(x2) FROM s [RANGE 50]")
        x1, x2 = feed_random(engine, 150, seed=3)
        engine.run_until_idle()
        rows = [batch.rows() for batch in query.results()]
        assert len(rows) == 3
        for k in range(3):
            assert rows[k] == [(int(x2[k * 50 : (k + 1) * 50].sum()),)]


class TestQueryShapes:
    def test_select_only(self, engine):
        query = engine.submit("SELECT x1 FROM s [RANGE 40 SLIDE 10] WHERE x1 > 6")
        x1, __ = feed_random(engine, 80, seed=7)
        engine.run_until_idle()
        for k, batch in enumerate(query.results()):
            expected = [(int(v),) for v in x1[k * 10 : k * 10 + 40] if v > 6]
            assert batch.rows() == expected

    def test_global_aggregates(self, engine):
        sql = "SELECT min(x1), max(x1), count(*), avg(x2) FROM s [RANGE 60 SLIDE 30]"
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        feed_random(engine, 240, seed=8)
        engine.run_until_idle()
        for a, b in zip(qi.results(), qr.results()):
            assert_rows_equal(a.rows(), b.rows())

    def test_empty_global_result(self, engine):
        query = engine.submit("SELECT max(x1), sum(x2) FROM s [RANGE 40 SLIDE 20] WHERE x1 > 99")
        feed_random(engine, 120, seed=1)
        engine.run_until_idle()
        assert all(batch.rows() == [] for batch in query.results())
        assert len(query.results()) == 5

    def test_count_only_empty_is_zero(self, engine):
        query = engine.submit("SELECT count(*) FROM s [RANGE 40 SLIDE 20] WHERE x1 > 99")
        feed_random(engine, 40, seed=1)
        engine.run_until_idle()
        assert query.results()[0].rows() == [(0,)]

    def test_having(self, engine):
        sql = (
            "SELECT x1, count(*) FROM s [RANGE 100 SLIDE 50] "
            "GROUP BY x1 HAVING count(*) > 10 ORDER BY x1"
        )
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        feed_random(engine, 300, seed=4, domain=5)
        engine.run_until_idle()
        assert qi.result_rows() == qr.result_rows()
        assert any(len(rows) for rows in qi.result_rows())

    def test_distinct_order_limit(self, engine):
        sql = "SELECT DISTINCT x1 FROM s [RANGE 60 SLIDE 20] ORDER BY x1 DESC LIMIT 3"
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        feed_random(engine, 240, seed=6)
        engine.run_until_idle()
        assert qi.result_rows() == qr.result_rows()

    def test_avg_grouped(self, engine):
        sql = "SELECT x1, avg(x2) FROM s [RANGE 80 SLIDE 40] GROUP BY x1 ORDER BY x1"
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        feed_random(engine, 400, seed=10, domain=4)
        engine.run_until_idle()
        for a, b in zip(qi.results(), qr.results()):
            assert_rows_equal(a.rows(), b.rows())


class TestProfiling:
    def test_breakdown_tags(self, engine):
        query = engine.submit(Q1)
        feed_random(engine, 140)
        factory = query.factory
        batch = factory.step(Profiler())
        assert batch is not None
        assert "main" in batch.breakdown
        assert "merge" in batch.breakdown
        assert batch.response_seconds > 0


@pytest.fixture
def deletes(monkeypatch):
    """Counts ``Basket.delete_head`` calls: each one compacts the basket."""
    calls = []
    original = Basket.delete_head

    def counting(basket, count):
        calls.append(basket.name)
        original(basket, count)

    monkeypatch.setattr(Basket, "delete_head", counting)
    return calls


class TestCompaction:
    """A firing deletes what it consumed from each basket once, however
    many basic windows (or chunks) it slices: a delete per slice
    compacted the basket once per slice, quadratic in the window."""

    def test_first_firing_of_512_basic_windows(self, engine, deletes):
        query = engine.submit("SELECT x1, sum(x2) FROM s [RANGE 5120 SLIDE 10] GROUP BY x1")
        feed_random(engine, 5120 + 30)
        assert query.factory.step() is not None
        assert len(query.factory._stores["s"]) == 512
        assert deletes == ["s"]

    def test_m_chunk_firing(self, engine, deletes):
        query = engine.submit(Q1)
        feed_random(engine, 120)
        query.factory.step()
        deletes.clear()
        assert query.factory.step_chunked(5) is not None
        assert deletes == ["s"]
