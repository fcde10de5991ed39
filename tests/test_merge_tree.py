"""Hierarchical merge tree (DESIGN.md §17): engine-level behaviour.

The store-level tiling properties live in tests/test_partials.py; here
the tree runs inside real factories and is compared, window for window,
with the same query on a store forced flat (``levels = 0`` — the paper's
Algorithm 2, every live partial packed on every slide).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.partials import MERGE_FANOUT, merge_levels

from conftest import cover_bound

STEP = 2
SLIDES = 45  # > 2·K², so every edge shape of a two-level cover occurs

#: Figure-3 "concat + compensation" classes; {w} is the window clause.
QUERIES = {
    "grouped-sum": "SELECT x1, sum(x2) FROM s {w} WHERE x1 > 1 GROUP BY x1",
    "count-avg": "SELECT count(x2), avg(x3) FROM s {w}",
    "min-max": "SELECT min(x2), max(x3) FROM s {w} WHERE x1 < 6",
    "distinct": "SELECT DISTINCT x1, count(x2) FROM s {w} GROUP BY x1",
    "order-limit": (
        "SELECT x1, sum(x2) AS total FROM s {w} GROUP BY x1 "
        "ORDER BY total DESC, x1 LIMIT 3"
    ),
}
DEPTHS = [31, 32, 33, 64, 100, 512]  # non-powers of K included


def make_data(count, seed=7):
    rng = np.random.default_rng(seed)
    return {
        "x1": rng.integers(0, 8, count).astype(np.int64),
        "x2": rng.integers(0, 1000, count).astype(np.int64),
        # quarter steps: float sums stay exact under any association,
        # so tree and flat merges must agree to the last bit
        "x3": rng.integers(0, 400, count) / 4.0,
    }


def build(sql, flat, backend="interpreted", **engine_kwargs):
    engine = DataCellEngine(backend=backend, **engine_kwargs)
    engine.create_stream("s", [("x1", "int"), ("x2", "int"), ("x3", "float")])
    handle = engine.submit(sql, name="q")
    if flat:
        handle.factory._store.levels = 0
    return engine, handle


def feed_slides(engine, data, fill, slides, timestamps=None):
    """The first full window in one feed, then one step per feed."""
    bounds = [0, fill] + [fill + (k + 1) * STEP for k in range(slides)]
    for lo, hi in zip(bounds, bounds[1:]):
        engine.feed(
            "s",
            columns={name: values[lo:hi] for name, values in data.items()},
            timestamps=timestamps[lo:hi] if timestamps is not None else None,
        )
        engine.run_until_idle()


def window_bytes(handle):
    """Every emitted window as raw column bytes (stricter than rows())."""
    return [
        [batch.columns[name].tail.tobytes() for name in batch.names]
        for batch in handle.results()
    ]


class TestTreeEqualsFlat:
    @pytest.mark.parametrize("n", DEPTHS)
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_count_based(self, shape, n):
        sql = QUERIES[shape].format(w=f"[RANGE {n * STEP} SLIDE {STEP}]")
        data = make_data(n * STEP + SLIDES * STEP)
        tree_engine, tree = build(sql, flat=False)
        flat_engine, flat = build(sql, flat=True)
        try:
            feed_slides(tree_engine, data, n * STEP, SLIDES)
            feed_slides(flat_engine, data, n * STEP, SLIDES)
            assert len(tree.results()) == SLIDES + 1
            assert tree.result_rows() == flat.result_rows()
            assert window_bytes(tree) == window_bytes(flat)
            store = tree.factory._store
            if n < 4 * MERGE_FANOUT:
                assert store.nodes_sealed == 0 and store.cover_len == n
            else:
                assert store.nodes_sealed > 0
                assert store.cover_len <= cover_bound(n) < n
            assert flat.factory._store.nodes_sealed == 0
            assert flat.factory._store.cover_len == n
        finally:
            tree_engine.close()
            flat_engine.close()

    def test_time_based_with_empty_basic_windows(self):
        n = 64
        sql = QUERIES["grouped-sum"].format(
            w=f"[RANGE {n * 10} MILLISECONDS SLIDE 10 MILLISECONDS]"
        )
        count = 600
        rng = np.random.default_rng(11)
        # Gaps of up to 4 basic windows: many slices hold no tuple at all.
        ts = np.cumsum(rng.integers(0, 40_000, count)).astype(np.int64)
        data = make_data(count, seed=12)
        tree_engine, tree = build(sql, flat=False)
        flat_engine, flat = build(sql, flat=True)
        try:
            for engine in (tree_engine, flat_engine):
                for lo in range(0, count, 25):
                    engine.feed(
                        "s",
                        columns={k: v[lo : lo + 25] for k, v in data.items()},
                        timestamps=ts[lo : lo + 25],
                    )
                    engine.run_until_idle()
            assert len(tree.results()) > 3 * n
            assert window_bytes(tree) == window_bytes(flat)
            assert tree.factory._store.nodes_sealed > 0
        finally:
            tree_engine.close()
            flat_engine.close()

    def test_step_chunked(self):
        n, step = 64, 6
        sql = QUERIES["count-avg"].format(w=f"[RANGE {n * step} SLIDE {step}]")
        data = make_data(n * step + 40 * step)
        tree_engine, tree = build(sql, flat=False)
        flat_engine, flat = build(sql, flat=True)
        try:
            rows = []
            for engine, handle in ((tree_engine, tree), (flat_engine, flat)):
                engine.feed("s", columns=data)
                out = []
                while handle.factory.ready():
                    out.append(handle.factory.step_chunked(3).rows())
                rows.append(out)
            assert len(rows[0]) == 41
            assert rows[0] == rows[1]
            assert tree.factory._store.nodes_sealed > 0
        finally:
            tree_engine.close()
            flat_engine.close()

    @pytest.mark.parametrize("shape", ["grouped-sum", "count-avg", "order-limit"])
    def test_compiled_backend(self, shape):
        n = 100
        sql = QUERIES[shape].format(w=f"[RANGE {n * STEP} SLIDE {STEP}]")
        data = make_data(n * STEP + SLIDES * STEP)
        tree_engine, tree = build(sql, flat=False, backend="compiled")
        flat_engine, flat = build(sql, flat=True)
        try:
            feed_slides(tree_engine, data, n * STEP, SLIDES)
            feed_slides(flat_engine, data, n * STEP, SLIDES)
            assert window_bytes(tree) == window_bytes(flat)
            assert tree.factory._store.nodes_sealed > 0
        finally:
            tree_engine.close()
            flat_engine.close()


class TestWhereNodesAreSealed:
    def test_plain_selection_seals_nothing(self):
        """A concatenating combine would copy the window into every
        node without shrinking it: such flows stay flat at any depth."""
        n = 128
        for sql in (
            f"SELECT x1, x2 FROM s [RANGE {n * STEP} SLIDE {STEP}] WHERE x1 > 2",
            f"SELECT DISTINCT x1 FROM s [RANGE {n * STEP} SLIDE {STEP}]",
        ):
            engine, handle = build(sql, flat=False)
            try:
                feed_slides(engine, make_data(n * STEP + 40), n * STEP, 20)
                store = handle.factory._store
                assert store.levels == 0
                assert store.nodes_sealed == 0 and store.cover_len == n
            finally:
                engine.close()

    def test_landmark_and_join_stores_stay_flat(self):
        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        engine.create_stream("r", [("x1", "int"), ("x2", "int")])
        try:
            landmark = engine.submit("SELECT sum(x2) FROM s [LANDMARK SLIDE 2]")
            assert landmark.factory._store.levels == 0
            join = engine.submit(
                "SELECT max(a.x2) FROM s a [RANGE 128 SLIDE 2], "
                "r b [RANGE 128 SLIDE 2] WHERE a.x1 = b.x1"
            )
            assert all(
                store.levels == 0 for store in join.factory._prep_stores.values()
            )
            assert join.factory.merge_stats() is None
        finally:
            engine.close()

    def test_benchmark_fleet_seals_no_node(self):
        """Every geometry of perf's 48-query ``fleet_mixed`` has n <= 16,
        below the 4K threshold: the tree must not touch that workload."""
        fleet = pytest.importorskip("perf.workloads").FLEET_MIXED
        assert len(fleet.queries) == 48
        engine = DataCellEngine()
        try:
            for stream in fleet.streams:
                engine.create_stream(
                    stream.name, [(col, "int") for col, __ in stream.columns]
                )
            for query in fleet.queries:
                handle = engine.submit(query.sql, name=query.name)
                assert handle.factory._store.levels == 0, query.sql
        finally:
            engine.close()


class TestRestoreMidTree:
    def test_restore_re_emits_byte_identical_windows(self, tmp_path):
        """Checkpoint while nodes are live, keep sliding, die, restore:
        the re-fired and later windows carry the very bytes the
        uninterrupted run emits — float sums included, because rebuilt
        nodes sit on the same aligned seq ranges (same association)."""
        n = 100
        sql = (
            f"SELECT x1, sum(x3), avg(x3) FROM s [RANGE {n * STEP} SLIDE {STEP}] "
            "GROUP BY x1"
        )
        data = make_data(n * STEP + 60 * STEP)
        data["x3"] = np.random.default_rng(3).random(len(data["x1"])) * 1e6
        fill = n * STEP

        oracle_engine, oracle = build(sql, flat=False)
        try:
            feed_slides(oracle_engine, data, fill, 60)
            expected = window_bytes(oracle)
        finally:
            oracle_engine.close()

        engine, handle = build(sql, flat=False, data_dir=str(tmp_path))
        feed_slides(engine, data, fill, 20)
        assert handle.factory._store.nodes_live > 0
        engine.checkpoint()
        tail = {k: v[fill + 20 * STEP :] for k, v in data.items()}
        feed_slides(engine, tail, 0, 15)  # journaled past the snapshot
        engine.abandon()

        restored = DataCellEngine.restore(str(tmp_path))
        try:
            restored.run_until_idle()
            handle = restored.query("q")
            assert handle.factory._store.nodes_sealed > 0  # rebuilt lazily
            tail = {k: v[fill + 35 * STEP :] for k, v in data.items()}
            feed_slides(restored, tail, 0, 25)
            assert window_bytes(handle) == expected
        finally:
            restored.close()


class TestMergeMetrics:
    def test_gauges_reach_the_snapshot_and_prometheus(self):
        n = 64
        sql = QUERIES["grouped-sum"].format(w=f"[RANGE {n * STEP} SLIDE {STEP}]")
        engine, handle = build(sql, flat=False)
        try:
            feed_slides(engine, make_data(n * STEP + 40), n * STEP, 20)
            stats = engine.metrics()["merge"]["q"]
            assert stats["merge_cover_len"] == handle.factory._store.cover_len < n
            assert stats["merge_nodes_sealed"] >= stats["merge_nodes_live"] > 0
            assert stats["merge_nodes_live"] <= n // (MERGE_FANOUT - 1)
            text = engine.metrics(format="prometheus")
            assert f'repro_merge_cover_len{{query="q"}} {stats["merge_cover_len"]}' in text
            assert 'repro_merge_nodes_sealed_total{query="q"}' in text
            assert 'repro_merge_nodes_live{query="q"}' in text
        finally:
            engine.close()

    def test_resource_bound_counts_the_nodes(self):
        n = 512
        engine, handle = build(
            QUERIES["count-avg"].format(w=f"[RANGE {n * STEP} SLIDE {STEP}]"),
            flat=False,
        )
        try:
            alias = handle.resources.aliases[0]
            levels = merge_levels(n)
            nodes = sum(n // MERGE_FANOUT**l for l in range(1, levels + 1))
            assert alias.tree_nodes.coeff == nodes <= n / (MERGE_FANOUT - 1)
            # one row per flow in every bundle, singles and nodes alike
            flows = len(handle.factory.plan.flows)
            assert alias.state.coeff == flows * (n + nodes)
            assert handle.resources.bounded
            feed_slides(engine, make_data(n * STEP + 200), n * STEP, 100)
            assert handle.factory._store.nodes_live <= nodes
        finally:
            engine.close()
