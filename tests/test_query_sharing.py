"""Whole-query sharing: an alpha-equivalent query joins the live factory.

A query whose plan fingerprint matches a factory no tuple has reached yet
becomes one more sink of that factory (DESIGN.md §6).  Every handle's
windows must be byte-identical to the same submits on a
``fragment_sharing=False`` engine, where each query runs alone.
"""

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.engine import compile_query

GSUM = "SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 10] WHERE x1 > 2 GROUP BY x1"
GSUM_TWIN = (
    "SELECT r.x1, sum(r.x2) FROM s r [RANGE 40 SLIDE 10] WHERE r.x1 > 2 GROUP BY r.x1"
)
LANDMARK = "SELECT count(*), max(x2) FROM s [LANDMARK SLIDE 10]"
LANDMARK_TWIN = "SELECT count(*), max(w.x2) FROM s w [LANDMARK SLIDE 10]"


def make(sharing=True, data_dir=None):
    engine = DataCellEngine(fragment_sharing=sharing, data_dir=data_dir)
    engine.create_stream("s", [("x1", "int"), ("x2", "int")])
    engine.create_stream("s2", [("x1", "int"), ("x2", "int")])
    return engine


def feed(engine, count, seed, stream="s"):
    rng = np.random.default_rng(seed)
    engine.feed(
        stream,
        columns={"x1": rng.integers(0, 6, count), "x2": rng.integers(0, 50, count)},
    )


def windows(handle):
    """Every window as its index, names and the bytes of each column."""
    return [
        (b.window_index, b.names, [b.columns[n].tail.tobytes() for n in b.names])
        for b in handle.results()
    ]


def run(script, sharing):
    """Run ``script(engine)`` and return the engine and its handles."""
    engine = make(sharing)
    handles = script(engine)
    return engine, handles


def assert_same_as_alone(script):
    """``script`` on a sharing engine and on one where every query runs
    alone emit byte-identical windows, handle for handle."""
    shared_engine, shared = run(script, True)
    __, alone = run(script, False)
    assert [windows(h) for h in shared] == [windows(h) for h in alone]
    assert all(windows(h) for h in alone)
    return shared_engine, shared


class TestFingerprint:
    def test_alpha_equivalent_queries_hash_equal(self):
        engine = make()
        fp = lambda sql, mode="incremental": compile_query(  # noqa: E731
            sql, engine.catalog, mode
        ).fingerprint
        assert fp(GSUM) == fp(GSUM_TWIN)
        assert fp(GSUM) != fp(GSUM.replace("x1 > 2", "x1 > 3"))
        assert fp(GSUM) != fp(GSUM.replace("RANGE 40", "RANGE 20"))
        assert fp(GSUM) != fp(GSUM.replace("FROM s ", "FROM s2 "))
        assert fp(GSUM) != fp(GSUM, "reeval")
        assert fp(GSUM, "reeval") == fp(GSUM_TWIN, "reeval")
        # An output name is part of the result a handle sees.
        assert fp(GSUM) != fp(GSUM.replace("sum(x2)", "sum(x2) AS total"))


class TestJoinRule:
    def test_twins_before_the_first_feed_share_one_factory(self):
        def script(engine):
            handles = [engine.submit(GSUM), engine.submit(GSUM_TWIN), engine.submit(GSUM)]
            for seed in range(4):
                feed(engine, 37, seed)
                engine.run_until_idle()
            return handles

        engine, (q1, q2, q3) = assert_same_as_alone(script)
        assert q2.factory is q1.factory and q3.factory is q1.factory
        assert q2.baskets["r"] is q1.baskets["s"]
        assert engine._logs["s"].readers == 1
        firings = engine.scheduler.factory_stats()
        assert firings["q1"] == firings["q2"] == firings["q3"]
        assert engine.profiler.counter("firings") == len(q1.results())
        assert engine.metrics()["engine"]["factories"] == 1
        assert engine.metrics()["engine"]["queries"] == 3

    def test_a_twin_after_a_feed_gets_its_own_factory(self):
        def script(engine):
            first = engine.submit(GSUM)
            feed(engine, 25, 1)  # not yet a window: the factory is not fresh
            second = engine.submit(GSUM_TWIN)
            for seed in range(2, 5):
                feed(engine, 31, seed)
                engine.run_until_idle()
            return [first, second]

        engine, (first, second) = assert_same_as_alone(script)
        assert second.factory is not first.factory

    def test_sharing_off_never_joins(self):
        engine = make(sharing=False)
        assert engine.submit(GSUM).factory is not engine.submit(GSUM).factory

    def test_join_time_and_reeval_twins(self):
        join = (
            "SELECT max(a.x1), count(*) FROM s a [RANGE 20 SLIDE 10], "
            "s2 b [RANGE 20 SLIDE 10] WHERE a.x2 = b.x2"
        )
        join_twin = join.replace(" a ", " c ").replace("a.", "c.")
        timed = "SELECT count(*), sum(x2) FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS]"

        def script(engine):
            handles = [
                engine.submit(join),
                engine.submit(join_twin),
                engine.submit(timed),
                engine.submit(timed),
                engine.submit(GSUM, mode="reeval"),
                engine.submit(GSUM_TWIN, mode="reeval"),
                engine.submit(GSUM),  # same SQL, other mode: its own factory
            ]
            clock = 0
            for seed in range(5):
                for stream in ("s", "s2"):
                    rng = np.random.default_rng(seed)
                    ts = clock + np.sort(rng.integers(0, 1_500_000, 23))
                    engine.feed(
                        stream,
                        columns={"x1": rng.integers(0, 6, 23), "x2": rng.integers(0, 9, 23)},
                        timestamps=ts,
                    )
                clock = int(ts[-1])
                engine.run_until_idle()
            return handles

        engine, handles = assert_same_as_alone(script)
        for first, twin in zip(handles[0:6:2], handles[1:6:2]):
            assert twin.factory is first.factory
        assert handles[6].factory is not handles[4].factory


class TestHandles:
    def test_removing_the_first_twin_leaves_the_second_emitting(self):
        def script(engine):
            first, second = engine.submit(GSUM), engine.submit(GSUM_TWIN)
            feed(engine, 50, 1)
            engine.run_until_idle()
            engine.remove(first.name)
            for seed in range(2, 5):
                feed(engine, 30, seed)
                engine.run_until_idle()
            return [second]

        engine, (second,) = assert_same_as_alone(script)
        assert len(second.results()) == 11
        assert engine._logs["s"].readers == 1
        engine.remove(second.name)
        assert engine._logs["s"].readers == 0
        assert engine.scheduler.factories() == []
        # The name is free again, and the factory is gone with its cursors.
        again = engine.submit(GSUM, name=second.name)
        assert again.factory is not second.factory

    def test_a_third_twin_joins_after_the_first_is_removed(self):
        engine = make()
        first, second = engine.submit(GSUM), engine.submit(GSUM)
        engine.remove(first.name)
        third = engine.submit(GSUM_TWIN)
        assert third.factory is second.factory

    def test_reset_of_one_landmark_twin_leaves_the_other_unchanged(self):
        def script(engine):
            kept, reset = engine.submit(LANDMARK), engine.submit(LANDMARK_TWIN)
            feed(engine, 35, 1)
            engine.run_until_idle()
            engine.reset_landmark(reset.name)
            for seed in range(2, 4):
                feed(engine, 20, seed)
                engine.run_until_idle()
            return [kept, reset]

        engine, (kept, reset) = assert_same_as_alone(script)
        assert reset.factory is not kept.factory
        assert engine._logs["s"].readers == 2
        assert [b.window_index for b in reset.results()] == list(range(1, 8))

    def test_a_failed_split_leaves_the_twins_sharing(self):
        engine = make()
        sql = (
            "SELECT count(*) FROM s a [LANDMARK SLIDE 10], "
            "s2 b [RANGE 20 SLIDE 10] WHERE a.x2 = b.x2"
        )
        first, second = engine.submit(sql), engine.submit(sql)
        with pytest.raises(Exception, match="sliding"):
            engine.reset_landmark(second.name)
        assert second.factory is first.factory
        assert engine._logs["s"].readers == 1


@pytest.mark.recovery
class TestDurability:
    def test_restore_gives_every_handle_its_own_factory(self, tmp_path):
        data = str(tmp_path / "data")
        engine = make(data_dir=data)
        first, second = engine.submit(GSUM), engine.submit(GSUM_TWIN)
        feed(engine, 60, 1)
        engine.run_until_idle()
        engine.checkpoint()
        feed(engine, 30, 2)  # journaled past the snapshot, not fired
        engine.abandon()
        restored = DataCellEngine.restore(data)
        try:
            restored.run_until_idle()
            feed(restored, 30, 3)
            restored.run_until_idle()
            q1, q2 = restored.query(first.name), restored.query(second.name)
            assert q1.factory is not q2.factory
            # A fresh twin never joins a factory rebuilt from the snapshot.
            assert restored.submit(GSUM).factory not in (q1.factory, q2.factory)
            alone = make(sharing=False)
            a1, a2 = alone.submit(GSUM), alone.submit(GSUM_TWIN)
            for seed, count in ((1, 60), (2, 30), (3, 30)):
                feed(alone, count, seed)
                alone.run_until_idle()
            assert windows(q1) == windows(a1) and windows(q2) == windows(a2)
            assert [b.window_index for b in q2.results()] == list(range(1, 10))
        finally:
            restored.close()

    def test_journal_replay_shares_again(self, tmp_path):
        data = str(tmp_path / "data")
        engine = make(data_dir=data)
        first, second = engine.submit(GSUM), engine.submit(GSUM_TWIN)
        feed(engine, 60, 1)
        engine.run_until_idle()
        late = engine.submit(GSUM)
        feed(engine, 30, 2)
        engine.run_until_idle()
        expected = [windows(h) for h in (first, second, late)]
        engine.abandon()
        restored = DataCellEngine.restore(data)
        try:
            restored.run_until_idle()
            q1, q2, q3 = (restored.query(h.name) for h in (first, second, late))
            assert q2.factory is q1.factory and q3.factory is not q1.factory
            assert [windows(h) for h in (q1, q2, q3)] == expected
        finally:
            restored.close()
