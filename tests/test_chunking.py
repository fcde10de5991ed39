"""Tests for m-chunk processing and the adaptive controller (Figure 8)."""

import numpy as np
import pytest

from repro import AdaptiveChunker, DataCellEngine
from repro.errors import UnsupportedQueryError

from conftest import ref_q1, assert_rows_equal


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    e.create_stream("s2", [("x1", "int"), ("x2", "int")])
    return e


SQL = "SELECT x1, sum(x2) FROM s [RANGE 60 SLIDE 12] WHERE x1 > 2 GROUP BY x1 ORDER BY x1"


def feed(engine, count, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, 10, count).astype(np.int64)
    x2 = rng.integers(0, 9, count).astype(np.int64)
    engine.feed("s", columns={"x1": x1, "x2": x2})
    return x1, x2


class TestChunkedStepping:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 12])
    def test_chunked_equals_plain(self, engine, m):
        # The same query on one engine would share one factory, and this
        # test steps each factory by hand: the chunked one runs alone.
        other = DataCellEngine()
        other.create_stream("s", [("x1", "int"), ("x2", "int")])
        q_plain = engine.submit(SQL)
        q_chunk = other.submit(SQL)
        feed(engine, 240, seed=1)
        feed(other, 240, seed=1)
        plain, chunked = [], []
        while q_plain.factory.ready():
            plain.append(q_plain.factory.step().rows())
        while q_chunk.factory.ready():
            chunked.append(q_chunk.factory.step_chunked(m).rows())
        assert plain == chunked
        assert len(plain) == 16

    def test_chunked_matches_reference(self, engine):
        query = engine.submit(SQL)
        x1, x2 = feed(engine, 180, seed=2)
        results = []
        while query.factory.ready():
            results.append(query.factory.step_chunked(5).rows())
        for k, rows in enumerate(results):
            expected = ref_q1(x1[k * 12 : k * 12 + 60], x2[k * 12 : k * 12 + 60], 2)
            assert_rows_equal(rows, expected)

    def test_m_clamped_to_step_size(self, engine):
        query = engine.submit(SQL)
        feed(engine, 120, seed=3)
        batch = query.factory.step_chunked(999)  # m > |w| must still work
        assert batch is not None

    def test_m_must_be_positive(self, engine):
        query = engine.submit(SQL)
        feed(engine, 60, seed=3)
        with pytest.raises(UnsupportedQueryError):
            query.factory.step_chunked(0)

    def test_not_ready_returns_none(self, engine):
        query = engine.submit(SQL)
        assert query.factory.step_chunked(4) is None

    def test_join_queries_rejected(self, engine):
        query = engine.submit(
            "SELECT count(*) FROM s a [RANGE 20 SLIDE 10], s2 b [RANGE 20 SLIDE 10] "
            "WHERE a.x2 = b.x2"
        )
        with pytest.raises(UnsupportedQueryError):
            query.factory.step_chunked(2)

    def test_landmark_rejected(self, engine):
        query = engine.submit("SELECT count(*) FROM s [LANDMARK SLIDE 10]")
        feed(engine, 10, seed=4)
        with pytest.raises(UnsupportedQueryError):
            query.factory.step_chunked(2)


class TestAdaptiveChunker:
    def test_grows_until_degradation_then_freezes(self):
        chunker = AdaptiveChunker(steps_per_level=2)
        # m=1 level: mean 1.0
        chunker.observe(1.0)
        chunker.observe(1.0)
        assert chunker.current_m == 2
        # m=2 level: better (0.5)
        chunker.observe(0.5)
        chunker.observe(0.5)
        assert chunker.current_m == 4
        # m=4 level: worse (2.0) -> reset to best (2) and freeze
        chunker.observe(2.0)
        chunker.observe(2.0)
        assert chunker.current_m == 2
        assert chunker.frozen

    def test_frozen_ignores_observations(self):
        chunker = AdaptiveChunker(steps_per_level=1)
        chunker.observe(1.0)
        chunker.observe(2.0)  # worse -> freeze at 1
        assert chunker.frozen
        m = chunker.current_m
        chunker.observe(0.0001)
        assert chunker.current_m == m

    def test_max_m_stops_growth(self):
        chunker = AdaptiveChunker(steps_per_level=1, max_m=4)
        chunker.observe(4.0)  # m=1 done -> m=2
        chunker.observe(3.0)  # m=2 done -> m=4
        chunker.observe(2.0)  # m=4 done -> next would be 8 > max -> freeze at best
        assert chunker.frozen
        assert chunker.current_m == 4

    def test_history_records_levels(self):
        chunker = AdaptiveChunker(steps_per_level=1)
        chunker.observe(1.0)
        chunker.observe(0.5)
        assert chunker.history == [(1, 1.0), (2, 0.5)]

    def test_paper_schedule_shape(self):
        """Doubling every 5 steps, degradation at 1024 -> resort to 512."""
        chunker = AdaptiveChunker(steps_per_level=5)
        level_means = {m: 1.0 / m for m in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)}
        level_means[1024] = 1.0  # degradation
        for m in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            for __ in range(5):
                chunker.observe(level_means[m])
        assert chunker.frozen
        assert chunker.current_m == 512
