"""Tests for the paper's extension features: landmark resets and
explicit watermark advancement (punctuations)."""

import numpy as np
import pytest

from repro import DataCellEngine
from repro.errors import UnsupportedQueryError

US = 1_000_000


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    e.create_stream("s2", [("x1", "int"), ("x2", "int")])
    return e


class TestLandmarkReset:
    def test_reset_restarts_accumulation(self, engine):
        query = engine.submit("SELECT sum(x2), count(*) FROM s [LANDMARK SLIDE 10]")
        engine.feed("s", columns={"x1": np.zeros(30, np.int64),
                                  "x2": np.full(30, 5, np.int64)})
        engine.run_until_idle()
        assert query.results()[-1].rows() == [(150, 30)]
        query.factory.reset_landmark()
        engine.feed("s", columns={"x1": np.zeros(10, np.int64),
                                  "x2": np.full(10, 7, np.int64)})
        engine.run_until_idle()
        # only post-reset tuples count
        assert query.results()[-1].rows() == [(70, 10)]

    def test_reset_restarts_a_selection_landmark(self, engine):
        """A non-compacting landmark keeps every selected tuple; the
        engine-level reset drops them all, so the next window holds only
        tuples fed after it."""
        query = engine.submit("SELECT x1 FROM s [LANDMARK SLIDE 8] WHERE x1 > 10")
        rng = np.random.default_rng(5)
        pre = rng.integers(0, 100, 64).astype(np.int64)
        engine.feed("s", columns={"x1": pre, "x2": pre})
        engine.run_until_idle()
        assert query.results()[-1].rows() == [(int(v),) for v in pre if v > 10]
        engine.reset_landmark(query.name)
        post = rng.integers(0, 100, 16).astype(np.int64)
        engine.feed("s", columns={"x1": post, "x2": post})
        engine.run_until_idle()
        assert query.results()[-1].rows() == [(int(v),) for v in post if v > 10]

    def test_reset_join_landmark(self, engine):
        query = engine.submit(
            "SELECT count(*) FROM s a [LANDMARK SLIDE 10], s2 b [LANDMARK SLIDE 10] "
            "WHERE a.x2 = b.x2"
        )
        ones = {"x1": np.zeros(20, np.int64), "x2": np.ones(20, np.int64)}
        engine.feed("s", columns=ones)
        engine.feed("s2", columns=ones)
        engine.run_until_idle()
        assert query.results()[-1].rows() == [(400,)]
        query.factory.reset_landmark()
        engine.feed("s", columns={k: v[:10] for k, v in ones.items()})
        engine.feed("s2", columns={k: v[:10] for k, v in ones.items()})
        engine.run_until_idle()
        assert query.results()[-1].rows() == [(100,)]

    def test_reset_rejected_for_sliding(self, engine):
        query = engine.submit("SELECT count(*) FROM s [RANGE 10 SLIDE 5]")
        with pytest.raises(UnsupportedQueryError):
            query.factory.reset_landmark()


class TestWatermarks:
    SQL = "SELECT count(*) FROM s [RANGE 40 SECONDS SLIDE 10 SECONDS]"

    def test_punctuation_closes_windows_in_silence(self, engine):
        query = engine.submit(self.SQL)
        engine.feed(
            "s",
            columns={"x1": [1, 2], "x2": [0, 0]},
            timestamps=[0, 5 * US],
        )
        engine.run_until_idle()
        assert query.results() == []  # window [0, 40s) still open
        engine.advance_time("s", 41 * US)
        engine.run_until_idle()
        assert len(query.results()) == 1
        assert query.results()[0].rows() == [(2,)]

    def test_punctuation_closes_multiple_windows(self, engine):
        query = engine.submit(self.SQL)
        engine.feed("s", columns={"x1": [1], "x2": [0]}, timestamps=[0])
        engine.advance_time("s", 71 * US)
        engine.run_until_idle()
        # boundaries 40s, 50s, 60s, 70s have all passed; the single tuple at
        # t=0 only lives in the first window [0, 40s)
        assert [b.rows() for b in query.results()] == [[(1,)], [(0,)], [(0,)], [(0,)]]

    def test_watermark_never_regresses(self, engine):
        query = engine.submit(self.SQL)
        engine.feed("s", columns={"x1": [1], "x2": [0]}, timestamps=[0])
        engine.advance_time("s", 45 * US)
        engine.advance_time("s", 1 * US)  # ignored
        basket = query.baskets["s"]
        assert basket.max_timestamp() == 45 * US

    def test_unknown_stream(self, engine):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            engine.advance_time("ghost", 1)

    def test_reeval_also_fires_on_watermark(self, engine):
        query = engine.submit(self.SQL, mode="reeval")
        engine.feed("s", columns={"x1": [1, 2], "x2": [0, 0]}, timestamps=[0, US])
        engine.advance_time("s", 50 * US)
        engine.run_until_idle()
        assert len(query.results()) == 2
        assert query.results()[0].rows() == [(2,)]
