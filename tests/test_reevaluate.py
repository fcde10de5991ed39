"""Tests for the DataCellR re-evaluation baseline (``mode="reeval"``).

Re-evaluation runs as a prep-only incremental plan
(:func:`~repro.core.rewriter.reevaluation_plan`): each stream's prep
bundles are its window's tuples, and finalize is the full plan over their
concatenation.  The tests drive it through the engine and read the
retained window from the factory's snapshot image.
"""

import numpy as np
import pytest

from repro import Basket, DataCellEngine, IncrementalFactory
from repro.core.rewriter import reevaluation_plan
from repro.errors import SchedulerError, UnsupportedQueryError
from repro.sql.optimizer import optimize
from repro.sql.planner import plan_query

US = 1_000_000


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    return e


def retained(query, alias="s") -> dict[str, list]:
    """The tuples a reeval query holds for ``alias``, per column, oldest
    first, read from its snapshot image."""
    bundles = query.factory.snapshot_state()["prep_stores"][alias]["bundles"]
    columns = query.factory.plan.preps[alias].columns
    return {
        column: [value for __, bundle in bundles for value in bundle[column].to_list()]
        for column in columns
    }


class TestWindowBuffer:
    """The retained window: one window's tuples, trimmed per slide."""

    def test_count_based_trim_keeps_last_window(self, engine):
        query = engine.submit("SELECT x1 FROM s [RANGE 5 SLIDE 1]", mode="reeval")
        engine.feed("s", columns={"x1": np.arange(8), "x2": np.zeros(8, dtype=np.int64)})
        engine.run_until_idle()
        assert retained(query) == {"x1": [3, 4, 5, 6, 7]}
        assert query.results()[-1].rows() == [(v,) for v in range(3, 8)]

    def test_landmark_never_trims(self, engine):
        query = engine.submit(
            "SELECT count(*) AS n FROM s [LANDMARK SLIDE 2]", mode="reeval"
        )
        engine.feed("s", columns={"x1": np.arange(100), "x2": np.arange(100)})
        engine.run_until_idle()
        assert retained(query) == {"x1": list(range(100))}
        assert query.results()[-1].rows() == [(100,)]

    def test_time_based_trim_by_boundary(self, engine):
        query = engine.submit(
            "SELECT x1 FROM s [RANGE 40 SECONDS SLIDE 10 SECONDS]", mode="reeval"
        )
        engine.feed(
            "s",
            columns={"x1": np.arange(5), "x2": np.zeros(5, dtype=np.int64)},
            timestamps=np.array([0, 15, 25, 45, 55], dtype=np.int64) * US,
        )
        engine.run_until_idle()
        # windows [0, 40s) then [10s, 50s)
        assert query.result_rows() == [[(0,), (1,), (2,)], [(1,), (2,), (3,)]]
        assert retained(query) == {"x1": [1, 2, 3]}


class TestReevalMode:
    def test_missing_window_clause(self, engine):
        planned = optimize(plan_query("SELECT x1 FROM s", engine.catalog))
        with pytest.raises(UnsupportedQueryError, match="window clause"):
            reevaluation_plan(planned)
        with pytest.raises(UnsupportedQueryError, match="window clause"):
            engine.submit("SELECT x1 FROM s", mode="reeval")

    def test_missing_table_binding(self, engine):
        engine.create_table("dim", [("x2", "int")])
        sql = "SELECT count(*) FROM s [RANGE 4 SLIDE 2], dim WHERE s.x2 = dim.x2"
        plan = reevaluation_plan(optimize(plan_query(sql, engine.catalog)))
        basket = Basket("s", engine.catalog.schema_of("s"))
        with pytest.raises(SchedulerError, match="no table bound for 'dim'"):
            IncrementalFactory(plan, baskets={"s": basket}, tables={})

    def test_only_referenced_columns_buffered(self, engine):
        query = engine.submit(
            "SELECT count(*) FROM s [RANGE 4 SLIDE 2] WHERE x1 > 0", mode="reeval"
        )
        engine.feed("s", columns={"x1": np.arange(6), "x2": np.arange(6)})
        engine.run_until_idle()
        assert retained(query) == {"x1": [2, 3, 4, 5]}

    def test_window_buffer_bounded_over_long_run(self, engine):
        query = engine.submit("SELECT count(*) FROM s [RANGE 10 SLIDE 5]", mode="reeval")
        rng = np.random.default_rng(0)
        for __ in range(50):
            engine.feed("s", columns={"x1": rng.integers(0, 5, 5), "x2": rng.integers(0, 5, 5)})
            engine.run_until_idle()
        assert len(retained(query)["x1"]) == 10  # exactly one window retained
        assert len(query.results()) == 49

    def test_not_ready_returns_none(self, engine):
        query = engine.submit("SELECT count(*) FROM s [RANGE 4 SLIDE 2]", mode="reeval")
        assert query.factory.step() is None

    def test_tumbling_reeval(self, engine):
        query = engine.submit("SELECT sum(x1) FROM s [RANGE 10]", mode="reeval")
        engine.feed("s", columns={"x1": np.arange(30, dtype=np.int64),
                                  "x2": np.zeros(30, dtype=np.int64)})
        engine.run_until_idle()
        rows = [batch.rows()[0][0] for batch in query.results()]
        assert rows == [sum(range(10)), sum(range(10, 20)), sum(range(20, 30))]

    def test_step_chunked_is_refused(self, engine):
        query = engine.submit("SELECT sum(x1) FROM s [RANGE 8 SLIDE 4]", mode="reeval")
        engine.feed("s", columns={"x1": np.arange(12), "x2": np.arange(12)})
        with pytest.raises(UnsupportedQueryError, match="m-chunk"):
            query.factory.step_chunked(2)

    def test_reset_landmark_matches_a_fresh_incremental_twin(self, engine):
        sql = "SELECT x1, sum(x2) AS t FROM s [LANDMARK SLIDE 4] GROUP BY x1 ORDER BY x1"
        rng = np.random.default_rng(3)

        def feed(n):
            engine.feed(
                "s", columns={"x1": rng.integers(0, 3, n), "x2": rng.integers(0, 9, n)}
            )
            engine.run_until_idle()

        query = engine.submit(sql, mode="reeval")
        feed(12)
        assert len(query.results()) == 3
        engine.reset_landmark(query.name)
        twin = engine.submit(sql)  # reads from the same point on
        feed(2)
        feed(17)
        after = query.result_rows()[3:]
        assert len(after) == 4
        assert after == twin.result_rows()


class TestEmittedBatchStability:
    """Emitted batches must stay valid after later windows are consumed.

    A pass-through projection used to return zero-copy views into the
    factory's window buffer; the next step's trim() compacted that buffer
    in place, silently rewriting batches already handed to the emitter
    (found by the differential fuzzer).
    """

    def test_pass_through_columns_survive_later_slides(self, engine):
        query = engine.submit(
            "SELECT x1, x2 FROM s [RANGE 8 SLIDE 4]", mode="reeval"
        )
        rng = np.random.default_rng(7)
        x1 = rng.integers(0, 5, 40)
        x2 = rng.integers(0, 6, 40)
        engine.feed("s", columns={"x1": x1, "x2": x2})
        engine.run_until_idle()
        batches = query.results()
        assert len(batches) == 9
        for k, batch in enumerate(batches):
            lo = k * 4
            expected = list(zip(x1[lo : lo + 8].tolist(), x2[lo : lo + 8].tolist()))
            assert batch.rows() == expected

    def test_mixed_computed_and_plain_columns(self, engine):
        query = engine.submit(
            "SELECT x1, x2 * 2 AS h FROM s [RANGE 8 SLIDE 4]", mode="reeval"
        )
        x1 = np.arange(16, dtype=np.int64)
        x2 = np.arange(16, dtype=np.int64) % 3
        engine.feed("s", columns={"x1": x1, "x2": x2})
        engine.run_until_idle()
        batches = query.results()
        assert len(batches) == 3
        for k, batch in enumerate(batches):
            lo = k * 4
            expected = [
                (int(a), int(b) * 2)
                for a, b in zip(x1[lo : lo + 8], x2[lo : lo + 8])
            ]
            assert batch.rows() == expected
