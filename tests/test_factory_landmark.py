"""Behavioural tests for landmark windows (fixed start, growing window)."""

import numpy as np
import pytest

from repro import DataCellEngine

from conftest import assert_rows_equal, ref_q1, ref_q3


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    e.create_stream("s2", [("x1", "int"), ("x2", "int")])
    return e


def feed(engine, stream, count, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, 100, count).astype(np.int64)
    x2 = rng.integers(0, 50, count).astype(np.int64)
    engine.feed(stream, columns={"x1": x1, "x2": x2})
    return x1, x2


class TestLandmarkSingle:
    Q3 = "SELECT max(x1), sum(x2) FROM s [LANDMARK SLIDE 25] WHERE x1 > 30"

    def test_results_cover_growing_prefix(self, engine):
        query = engine.submit(self.Q3)
        x1, x2 = feed(engine, "s", 200, seed=11)
        engine.run_until_idle()
        results = query.results()
        assert len(results) == 8
        for k, batch in enumerate(results):
            hi = (k + 1) * 25
            assert_rows_equal(batch.rows(), ref_q3(x1[:hi], x2[:hi], 30))

    def test_matches_reevaluation(self, engine):
        qi = engine.submit(self.Q3)
        qr = engine.submit(self.Q3, mode="reeval")
        feed(engine, "s", 300, seed=12)
        engine.run_until_idle()
        assert qi.result_rows() == qr.result_rows()

    def test_partials_compacted(self, engine):
        """Landmark stores one cumulative bundle, not one per step."""
        query = engine.submit(self.Q3)
        feed(engine, "s", 250, seed=13)
        engine.run_until_idle()
        assert len(query.factory._stores["s"]) == 1

    def test_grouped_landmark(self, engine):
        sql = "SELECT x1, count(*) FROM s [LANDMARK SLIDE 20] GROUP BY x1 ORDER BY x1"
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        feed(engine, "s", 200, seed=14)
        engine.run_until_idle()
        assert qi.result_rows() == qr.result_rows()

    def test_select_only_landmark_accumulates(self, engine):
        sql = "SELECT x1 FROM s [LANDMARK SLIDE 10] WHERE x1 > 90"
        qi = engine.submit(sql)
        x1, __ = feed(engine, "s", 100, seed=15)
        engine.run_until_idle()
        results = qi.results()
        assert len(results) == 10
        for k, batch in enumerate(results):
            expected = [(int(v),) for v in x1[: (k + 1) * 10] if v > 90]
            assert batch.rows() == expected


class TestLandmarkJoin:
    SQL = (
        "SELECT count(*) FROM s s1 [LANDMARK SLIDE 20], s2 [LANDMARK SLIDE 20] "
        "WHERE s1.x2 = s2.x2"
    )

    def test_matches_reevaluation(self, engine):
        qi = engine.submit(self.SQL)
        qr = engine.submit(self.SQL, mode="reeval")
        rng = np.random.default_rng(16)
        for stream in ("s", "s2"):
            engine.feed(
                stream,
                columns={
                    "x1": rng.integers(0, 10, 100),
                    "x2": rng.integers(0, 25, 100),
                },
            )
        engine.run_until_idle()
        assert len(qi.results()) == 5
        assert qi.result_rows() == qr.result_rows()
