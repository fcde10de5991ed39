"""End-to-end integration scenarios across the whole stack."""

import numpy as np
import pytest

from repro import DataCellEngine
from repro.workloads import join_streams, selection_stream, write_csv, read_csv_chunks

from conftest import assert_rows_equal


class TestPaperWorkloads:
    """The paper's Q1/Q2/Q3 at laptop scale, incremental vs re-evaluation."""

    def test_q1_pipeline(self):
        engine = DataCellEngine()
        engine.create_stream("stream", [("x1", "int"), ("x2", "int")])
        workload = selection_stream(4_000, selectivity=0.2, seed=100)
        sql = (
            f"SELECT x1, sum(x2) FROM stream [RANGE 1024 SLIDE 128] "
            f"WHERE x1 > {workload.threshold} GROUP BY x1 ORDER BY x1"
        )
        qi = engine.submit(sql, mode="incremental")
        qr = engine.submit(sql, mode="reeval")
        engine.feed("stream", columns=workload.columns())
        engine.run_until_idle()
        assert len(qi.results()) == (4_000 - 1024) // 128 + 1
        assert qi.result_rows() == qr.result_rows()

    def test_q2_pipeline(self):
        engine = DataCellEngine()
        engine.create_stream("stream1", [("x1", "int"), ("x2", "int")])
        engine.create_stream("stream2", [("x1", "int"), ("x2", "int")])
        workload = join_streams(2_000, join_selectivity=1e-3, seed=101)
        sql = (
            "SELECT max(s1.x1), avg(s2.x1) FROM stream1 s1 [RANGE 512 SLIDE 64], "
            "stream2 s2 [RANGE 512 SLIDE 64] WHERE s1.x2 = s2.x2"
        )
        qi = engine.submit(sql, mode="incremental")
        qr = engine.submit(sql, mode="reeval")
        engine.feed("stream1", columns=workload.left_columns())
        engine.feed("stream2", columns=workload.right_columns())
        engine.run_until_idle()
        assert len(qi.results()) > 10
        for a, b in zip(qi.results(), qr.results()):
            assert_rows_equal(a.rows(), b.rows(), float_tol=1e-7)

    def test_q3_landmark_pipeline(self):
        engine = DataCellEngine()
        engine.create_stream("stream", [("x1", "int"), ("x2", "int")])
        workload = selection_stream(3_000, selectivity=0.2, seed=102)
        sql = (
            f"SELECT max(x1), sum(x2) FROM stream [LANDMARK SLIDE 300] "
            f"WHERE x1 > {workload.threshold}"
        )
        qi = engine.submit(sql, mode="incremental")
        qr = engine.submit(sql, mode="reeval")
        engine.feed("stream", columns=workload.columns())
        engine.run_until_idle()
        assert len(qi.results()) == 10
        assert qi.result_rows() == qr.result_rows()


class TestMixedWorkload:
    def test_many_concurrent_queries(self):
        """Several queries with different shapes share one engine."""
        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        queries = [
            engine.submit("SELECT count(*) FROM s [RANGE 100 SLIDE 50]"),
            engine.submit("SELECT x1, max(x2) FROM s [RANGE 200 SLIDE 100] GROUP BY x1"),
            engine.submit("SELECT avg(x2) FROM s [LANDMARK SLIDE 100]"),
            engine.submit("SELECT x1 FROM s [RANGE 50 SLIDE 25] WHERE x1 > 8"),
            engine.submit("SELECT count(*) FROM s [RANGE 100 SLIDE 50]", mode="reeval"),
        ]
        rng = np.random.default_rng(103)
        for __ in range(10):
            engine.feed(
                "s",
                columns={
                    "x1": rng.integers(0, 10, 100),
                    "x2": rng.integers(0, 100, 100),
                },
            )
            engine.run_until_idle()
        counts = [len(q.results()) for q in queries]
        assert counts == [19, 9, 10, 39, 19]
        # the two count queries (incremental + reeval) agree window by window
        assert queries[0].result_rows() == queries[4].result_rows()

    def test_stream_table_warehouse_scenario(self):
        """Hybrid continuous query enriched by a stored dimension table."""
        engine = DataCellEngine()
        engine.create_stream("events", [("item", "int"), ("qty", "int")])
        dim = engine.create_table("items", [("item", "int"), ("price", "int")])
        dim.append_rows([(i, (i + 1) * 10) for i in range(5)])
        query = engine.submit(
            "SELECT e.item, sum(e.qty) FROM events e [RANGE 40 SLIDE 20], items i "
            "WHERE e.item = i.item AND i.price > 20 GROUP BY e.item ORDER BY e.item"
        )
        rng = np.random.default_rng(104)
        items = rng.integers(0, 8, 120).astype(np.int64)  # items 5-7 unpriced
        qty = rng.integers(1, 5, 120).astype(np.int64)
        engine.feed("events", columns={"item": items, "qty": qty})
        engine.run_until_idle()
        assert len(query.results()) == 5
        for k, batch in enumerate(query.results()):
            lo, hi = k * 20, k * 20 + 40
            expected: dict[int, int] = {}
            for it, q in zip(items[lo:hi], qty[lo:hi]):
                if it in (2, 3, 4):  # price > 20
                    expected[int(it)] = expected.get(int(it), 0) + int(q)
            assert batch.rows() == sorted(expected.items())


class TestThreadedEndToEnd:
    def test_receptor_scheduler_emitter_loop(self):
        """Receptor thread -> basket -> scheduler thread -> emitter."""
        import time

        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        query = engine.submit("SELECT count(*) FROM s [RANGE 64 SLIDE 32]")
        receptor = engine.receptor("s")
        engine.start()
        try:
            receptor.start(iter([(i % 10, i) for i in range(640)]))
            receptor.join(timeout=10.0)
            deadline = time.time() + 10.0
            while time.time() < deadline and len(query.results()) < 19:
                time.sleep(0.01)
        finally:
            engine.stop()
        assert len(query.results()) == 19
        assert all(batch.rows() == [(64,)] for batch in query.results())
