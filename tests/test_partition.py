"""Key-partitioned multi-process execution (DESIGN.md §14).

Three layers of coverage:

* pure-function unit tests for the routing/planning layer
  (:mod:`repro.core.partition`) — no processes involved;
* a collector unit test exercising out-of-order partition completion
  on :class:`repro.core.shard.PartitionedQuery` directly;
* differential property tests that run the same query and feed through
  a plain ``P=1`` engine and a partitioned engine with real shard
  worker processes, asserting window-for-window equal results.

The multi-process tests carry the ``partition`` marker so CI can run
them in a dedicated job (``pytest -m partition``) that also asserts
``/dev/shm`` holds no leaked segments afterwards.
"""

import glob
import math
import os

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.partition import (
    VIRTUAL_TICK_US,
    PartitionSpec,
    partition_hash,
    plan_partition_query,
    route_columns,
    validate_partition_key,
)
from repro.core.shard import PartitionedQuery
from repro.errors import ReproError, UnsupportedQueryError
from repro.kernel.atoms import Atom
from repro.kernel.storage import Schema

pytestmark = pytest.mark.partition

SCHEMA = Schema.of(("k", Atom.INT), ("v", Atom.INT), ("x", Atom.FLT))
SPEC = PartitionSpec(stream="s", key="k", partitions=3)


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_int_hash_deterministic(self):
        values = np.array([0, 1, -7, 2**40, -(2**40)], dtype=np.int64)
        first = partition_hash(values, Atom.INT, 4)
        second = partition_hash(values, Atom.INT, 4)
        np.testing.assert_array_equal(first, second)
        assert first.dtype == np.int64
        assert ((first >= 0) & (first < 4)).all()

    def test_str_hash_deterministic(self):
        values = np.array(["a", "b", "", "naïve", "a"], dtype=object)
        ids = partition_hash(values, Atom.STR, 3)
        assert ids[0] == ids[4]  # equal keys, equal partition
        assert ((ids >= 0) & (ids < 3)).all()

    def test_route_columns_disjoint_and_complete(self):
        rng = np.random.default_rng(0)
        columns = {"k": rng.integers(0, 50, size=200), "v": np.arange(200)}
        routes = route_columns(columns, "k", Atom.INT, 4)
        assert len(routes) == 4
        combined = np.concatenate(routes)
        assert len(combined) == 200
        assert len(np.unique(combined)) == 200  # disjoint
        # Equal keys land on the same partition.
        for p, idx in enumerate(routes):
            other = set(np.concatenate([routes[q] for q in range(4) if q != p]))
            for key in np.unique(columns["k"][idx]):
                assert not any(
                    columns["k"][i] == key for i in other
                ), f"key {key} split across partitions"

    def test_validate_partition_key(self):
        assert validate_partition_key(SCHEMA, "k", "s") == Atom.INT
        with pytest.raises(ReproError):
            validate_partition_key(SCHEMA, "x", "s")  # float key
        with pytest.raises(ReproError):
            validate_partition_key(SCHEMA, "ghost", "s")


# ----------------------------------------------------------------------
# planning: the merge taxonomy
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_group_by_key_is_merge_free(self):
        plan = plan_partition_query(
            "SELECT k, sum(v) AS total FROM s [RANGE 4 SLIDE 4] GROUP BY k",
            SCHEMA,
            SPEC,
        )
        assert plan.route == "concat"
        assert plan.merge is None
        assert "__shard" not in plan.partition_sql("s")
        assert "__shard_q" in plan.partition_sql("__shard_q")

    def test_global_aggregate_re_aggregates(self):
        plan = plan_partition_query(
            "SELECT avg(x) AS m FROM s [RANGE 4 SLIDE 4]", SCHEMA, SPEC
        )
        assert plan.route == "re-aggregate"
        assert plan.merge is not None
        assert plan.merge.pn_column is not None
        # avg decomposes into sum+count partials re-combined at merge.
        psql = plan.partition_sql("__shard_q")
        assert "sum(x)" in psql and "count(x)" in psql
        assert "__pn" in psql
        msql = plan.merge_sql()
        assert msql is not None and "__pn > 0" in msql

    def test_order_by_routes_merge_sort(self):
        plan = plan_partition_query(
            "SELECT k, v FROM s [RANGE 4 SLIDE 4] ORDER BY v DESC LIMIT 5",
            SCHEMA,
            SPEC,
        )
        assert plan.route == "merge-sort"
        assert plan.merge is not None

    def test_unsupported_shapes(self):
        with pytest.raises(UnsupportedQueryError):
            plan_partition_query(
                "SELECT DISTINCT v FROM s [RANGE 4 SLIDE 4] LIMIT 3",
                SCHEMA,
                SPEC,
            )

    def test_landmark_routes(self):
        # Landmark partitions since the spill/partition rework: cumulative
        # per-partition slices merge window-for-window like sliding ones.
        plan = plan_partition_query(
            "SELECT k, v FROM s [LANDMARK SLIDE 4]", SCHEMA, SPEC
        )
        assert plan.route == "concat"
        assert plan.flavor == "virtual"
        window = plan.partition_query.tables[0].window
        assert window.kind == "landmark" and window.size is None
        assert window.time_based and window.step == 4 * VIRTUAL_TICK_US
        plan = plan_partition_query(
            "SELECT sum(v) AS t FROM s [LANDMARK SLIDE 4]", SCHEMA, SPEC
        )
        assert plan.route == "re-aggregate"
        plan = plan_partition_query(
            "SELECT k, sum(v) AS t FROM s [LANDMARK SLIDE 4] GROUP BY k",
            SCHEMA,
            SPEC,
        )
        # Grouped by the key: partitions own disjoint groups, merge-free.
        assert plan.route == "concat" and plan.merge is None


# ----------------------------------------------------------------------
# the collector: out-of-order partition completion
# ----------------------------------------------------------------------
class TestCollector:
    def _query(self):
        plan = plan_partition_query(
            "SELECT k, v FROM s [RANGE 2 SLIDE 2]", SCHEMA, SPEC
        )
        return PartitionedQuery(
            name="q",
            sql="",
            mode="incremental",
            plan=plan,
            output_names=["k", "v"],
            output_atoms=[Atom.INT, Atom.INT],
            partitions=3,
            # Plain selections ship the hidden __seq arrival offset so the
            # coordinator can restore arrival order before dropping it.
            partial_names=["k", "v", "__seq"],
            partial_atoms=[Atom.INT, Atom.INT, Atom.INT],
        )

    def test_out_of_order_offers_merge_in_window_order(self):
        q = self._query()
        col = lambda *vals: {  # noqa: E731 - terser than a def here
            "k": np.asarray(vals, dtype=np.int64),
            "v": np.asarray(vals, dtype=np.int64),
            "__seq": np.asarray(vals, dtype=np.int64),
        }
        # Window 2 completes on partitions 0/1 before window 1 does;
        # nothing may merge until window 1 has all three partitions.
        q.offer(0, 2, 0.0, col(20))
        q.offer(1, 2, 0.0, col(21))
        q.offer(0, 1, 0.0, col(10))
        q.offer(1, 1, 0.0, col(11))
        assert q.drain(None) == 0
        assert q.lag() == 2  # partition 2 has reported nothing yet
        q.offer(2, 1, 0.0, col(12))
        assert q.drain(None) == 1
        q.offer(2, 2, 0.0, col(22))
        assert q.drain(None) == 1
        windows = q.result_rows()
        assert [sorted(w) for w in windows] == [
            [(10, 10), (11, 11), (12, 12)],
            [(20, 20), (21, 21), (22, 22)],
        ]
        assert q.lag() == 0

    def test_response_time_is_worst_partition_plus_merge(self):
        q = self._query()
        empty = {
            "k": np.asarray([], dtype=np.int64),
            "v": np.asarray([], dtype=np.int64),
            "__seq": np.asarray([], dtype=np.int64),
        }
        q.offer(0, 1, 0.25, dict(empty))
        q.offer(1, 1, 0.75, dict(empty))
        q.offer(2, 1, 0.10, dict(empty))
        q.drain(None)
        batch = q.last()
        assert batch.response_seconds >= 0.75
        assert batch.breakdown["partition_max"] == 0.75


# ----------------------------------------------------------------------
# differential: partitioned vs P=1
# ----------------------------------------------------------------------
def _rows_equal(left, right):
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                fx, fy = float(x), float(y)
                if math.isnan(fx) and math.isnan(fy):
                    continue
                if not math.isclose(fx, fy, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


def assert_windows_match(reference, sharded, ordered):
    assert len(reference) == len(sharded), (
        f"window count {len(reference)} vs {len(sharded)}"
    )
    for i, (ref, got) in enumerate(zip(reference, sharded)):
        if not ordered:
            ref, got = sorted(ref), sorted(got)
        assert _rows_equal(ref, got), f"window {i}: {ref} vs {got}"


def run_differential(
    sql,
    rows,
    partitions=2,
    mode="incremental",
    backend="interpreted",
    timestamps=None,
    chunks=None,
    ordered=False,
    key="k",
    schema=(("k", "int"), ("v", "int"), ("x", "float"), ("tag", "str")),
    submit_after=0,
):
    """Feed the same rows through P=1 and P=N; compare result windows."""

    def run(partitions):
        engine = DataCellEngine(partitions=partitions, backend=backend)
        try:
            engine.create_stream(
                "s", list(schema),
                partition_by=key if partitions > 1 else None,
            )
            pending = list(rows)
            fed = 0
            query = None
            if not submit_after:
                query = engine.submit(sql, mode=mode)
            for size in chunks or [len(pending)]:
                batch, pending = pending[:size], pending[size:]
                ts = None
                if timestamps is not None:
                    ts = timestamps[fed:fed + len(batch)]
                if batch or ts:
                    engine.feed("s", rows=batch, timestamps=ts)
                fed += len(batch)
                if query is None and fed >= submit_after:
                    query = engine.submit(sql, mode=mode)
                engine.run_until_idle()
            if query is None:
                query = engine.submit(sql, mode=mode)
            engine.run_until_idle()
            return query.result_rows()
        finally:
            engine.close()

    assert_windows_match(run(1), run(partitions), ordered)


def make_rows(n, seed=0, keys=6):
    rng = np.random.default_rng(seed)
    return [
        (
            int(rng.integers(0, keys)),
            int(rng.integers(0, 100)),
            float(rng.uniform(-10, 10)),
            str(rng.choice(["red", "green", "blue"])),
        )
        for __ in range(n)
    ]


class TestDifferentialCountWindows:
    @pytest.mark.parametrize("mode", ["incremental", "reeval"])
    def test_group_by_key_merge_free(self, mode):
        run_differential(
            "SELECT k, sum(v) AS total, count(*) AS n "
            "FROM s [RANGE 8 SLIDE 8] GROUP BY k",
            make_rows(48),
            mode=mode,
        )

    @pytest.mark.parametrize("mode", ["incremental", "reeval"])
    def test_global_aggregates(self, mode):
        run_differential(
            "SELECT sum(x) AS s, count(*) AS n, avg(x) AS m, "
            "min(v) AS lo, max(v) AS hi FROM s [RANGE 6 SLIDE 6]",
            make_rows(36, seed=1),
            mode=mode,
            chunks=[10, 10, 10, 6],
        )

    def test_sliding_windows(self):
        run_differential(
            "SELECT k, avg(x) AS m FROM s [RANGE 8 SLIDE 4] GROUP BY k",
            make_rows(40, seed=2),
            chunks=[7, 13, 20],
        )

    def test_order_by_with_ties_and_limit(self):
        # Duplicate v values force the merge-sort tie-break (__seq).
        rows = [(i % 3, i % 5, float(i % 4), "t") for i in range(30)]
        run_differential(
            "SELECT k, v FROM s [RANGE 10 SLIDE 10] "
            "WHERE v > 0 ORDER BY v DESC LIMIT 4",
            rows,
            ordered=True,
        )

    def test_grouped_order_by(self):
        run_differential(
            "SELECT k, avg(x) AS m FROM s [RANGE 9 SLIDE 9] "
            "GROUP BY k ORDER BY m DESC",
            make_rows(27, seed=3),
            ordered=True,
        )

    def test_distinct_str(self):
        run_differential(
            "SELECT DISTINCT tag FROM s [RANGE 10 SLIDE 10]",
            make_rows(40, seed=4),
        )

    def test_having(self):
        run_differential(
            "SELECT k, count(*) AS n FROM s [RANGE 12 SLIDE 12] "
            "GROUP BY k HAVING count(*) > 2",
            make_rows(36, seed=5, keys=4),
        )

    def test_three_partitions(self):
        run_differential(
            "SELECT sum(v) AS total FROM s [RANGE 5 SLIDE 5]",
            make_rows(30, seed=6),
            partitions=3,
        )

    def test_str_partition_key(self):
        run_differential(
            "SELECT tag, count(*) AS n FROM s [RANGE 8 SLIDE 8] GROUP BY tag",
            make_rows(32, seed=7),
            key="tag",
        )

    def test_compiled_backend_workers(self):
        run_differential(
            "SELECT k, sum(v) AS total FROM s [RANGE 8 SLIDE 8] GROUP BY k",
            make_rows(32, seed=8),
            backend="compiled",
        )

    def test_late_submit_uses_virtual_anchor(self):
        # The query arrives after 10 rows are already fed; both legs must
        # anchor their count windows at the same virtual offset.
        run_differential(
            "SELECT count(*) AS n FROM s [RANGE 5 SLIDE 5]",
            make_rows(30, seed=9),
            chunks=[10, 10, 10],
            submit_after=10,
        )


class TestDifferentialTimeWindows:
    def test_time_window_grouped(self):
        # Regression (fuzz seed=42 iteration=7): the window-closing row
        # routes to one partition only; the batch watermark must still
        # close the window on every other partition.
        rows = [(2, 5, 3.25, "a"), (2, 6, 0.75, "a"), (0, 6, 8.75, "a"), (5, 3, 4.5, "a")]
        run_differential(
            "SELECT min(x) AS lo FROM s [RANGE 10 MILLISECONDS] GROUP BY k",
            rows,
            timestamps=[1011653, 1012673, 1019374, 1021796],
        )

    def test_time_window_punctuation_closes_empty_partitions(self):
        rows = [(i, i, float(i), "a") for i in range(8)]
        ts = [i * 3_000 for i in range(8)]

        def run(partitions):
            engine = DataCellEngine(partitions=partitions)
            try:
                engine.create_stream(
                    "s", [("k", "int"), ("v", "int"), ("x", "float"), ("tag", "str")],
                    partition_by="k" if partitions > 1 else None,
                )
                q = engine.submit(
                    "SELECT sum(v) AS total FROM s [RANGE 6 MILLISECONDS]"
                )
                engine.feed("s", rows=rows, timestamps=ts)
                engine.run_until_idle()
                # Silence: punctuate past the final window boundary.
                engine.advance_time("s", 60_000)
                engine.run_until_idle()
                return q.result_rows()
            finally:
                engine.close()

        reference, sharded = run(1), run(2)
        assert_windows_match(reference, sharded, ordered=False)
        assert len(reference) >= 3

    def test_chunked_time_feed(self):
        rows = make_rows(24, seed=10)
        ts = sorted(int(t) for t in np.random.default_rng(11).integers(0, 50_000, 24))
        run_differential(
            "SELECT k, count(*) AS n FROM s [RANGE 10 MILLISECONDS] GROUP BY k",
            rows,
            timestamps=ts,
            chunks=[5, 9, 10],
        )


class TestLandmarkPartitioned:
    """Landmark windows on key-partitioned streams (DESIGN.md §16).

    Landmark never expires input, so per-partition cumulative slices
    merge per *aligned window* rather than incrementally: each route is
    exercised P=4 vs P=1, window-for-window.
    """

    @pytest.mark.parametrize("mode", ["incremental", "reeval"])
    def test_global_aggregates_re_aggregate_route(self, mode):
        run_differential(
            "SELECT sum(v) AS t, count(*) AS n, avg(x) AS m, max(v) AS hi "
            "FROM s [LANDMARK SLIDE 8]",
            make_rows(48, seed=6),
            partitions=4,
            mode=mode,
            chunks=[11, 13, 24],
        )

    def test_grouped_by_key_merge_free(self):
        run_differential(
            "SELECT k, sum(v) AS t, count(*) AS n "
            "FROM s [LANDMARK SLIDE 8] GROUP BY k",
            make_rows(48, seed=7),
            partitions=4,
            chunks=[9, 17, 22],
        )

    def test_select_only_concat_route(self):
        run_differential(
            "SELECT k, v FROM s [LANDMARK SLIDE 6] WHERE v > 40",
            make_rows(36, seed=8),
            partitions=4,
        )

    def test_time_landmark(self):
        rows = make_rows(30, seed=9)
        ts = sorted(
            int(t) for t in np.random.default_rng(10).integers(0, 40_000, 30)
        )
        run_differential(
            "SELECT count(*) AS n, sum(v) AS t "
            "FROM s [LANDMARK SLIDE 10 MILLISECONDS]",
            rows,
            partitions=4,
            timestamps=ts,
            chunks=[7, 11, 12],
        )


# ----------------------------------------------------------------------
# lifecycle: shared memory, stats, unsupported surfaces
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_no_shm_segments_leak_after_close(self, monkeypatch):
        import repro.core.shard as shard

        monkeypatch.setattr(shard, "SHM_MIN_ROWS", 1)  # force the shm path
        pattern = f"/dev/shm/repro-{os.getpid()}-*"
        engine = DataCellEngine(partitions=2)
        try:
            engine.create_stream(
                "s", [("k", "int"), ("v", "int")], partition_by="k"
            )
            q = engine.submit("SELECT k, sum(v) AS t FROM s [RANGE 16 SLIDE 16] GROUP BY k")
            for __ in range(4):
                engine.feed("s", rows=[(i % 5, i) for i in range(32)])
                engine.run_until_idle()
            assert len(q.result_rows()) == 8
        finally:
            engine.close()
        assert glob.glob(pattern) == [], "shared-memory segments leaked"

    def test_workers_forget_shipped_batches(self, tmp_path):
        """Regression: shard workers kept every batch they ever emitted,
        so each snapshot carried (and each pump copied) the full history.
        After 2 000 slides the worker emitters must be empty and a
        checkpoint no bigger than after 500."""
        engine = DataCellEngine(partitions=2, data_dir=str(tmp_path))
        try:
            engine.create_stream(
                "s", [("k", "int"), ("v", "int")], partition_by="k"
            )
            q = engine.submit(
                "SELECT k, sum(v) AS t FROM s [RANGE 8 SLIDE 4] GROUP BY k",
                name="q",
            )
            rng = np.random.default_rng(5)
            sizes = {}
            windows = 0
            for round_no in range(1, 41):  # 50 slides per round
                engine.feed(
                    "s",
                    columns={
                        "k": rng.integers(0, 6, 200),
                        "v": rng.integers(0, 100, 200),
                    },
                )
                engine.run_until_idle()
                windows += len(q.batches)
                q.batches.clear()  # a subscriber that takes what it reads
                if round_no in (10, 40):
                    sizes[round_no] = engine.checkpoint()["bytes"]
            assert windows == 1999
            states = [r[1] for r in engine._shards.request_all(("snapshot",))]
            for worker in states:
                emitter = worker["engine"]["query_states"]["q"]["emitter"]
                assert emitter["batches"] == []
                assert emitter["total_batches"] == 1999
                assert dict(worker["queries"])["q"]["collected"] == 1999
            assert sizes[40] <= 1.1 * sizes[10], sizes
        finally:
            engine.close()

    def test_partition_stats_shape(self):
        engine = DataCellEngine(partitions=2)
        try:
            engine.create_stream(
                "s", [("k", "int"), ("v", "int")], partition_by="k"
            )
            engine.submit(
                "SELECT sum(v) AS t FROM s [RANGE 4 SLIDE 4]", name="agg"
            )
            engine.feed("s", rows=[(i, i) for i in range(8)])
            engine.run_until_idle()
            stats = engine.partition_stats()
            assert stats["streams"]["s"]["key"] == "k"
            assert sum(stats["streams"]["s"]["routed"]) == 8
            assert 0.0 <= stats["streams"]["s"]["skew"] <= 1.0
            assert stats["queries"]["agg"]["route"] == "re-aggregate"
            assert stats["queries"]["agg"]["windows"] == 2
            assert stats["queries"]["agg"]["lag"] == 0
            assert len(stats["workers"]) == 2
            metrics = engine.metrics()
            assert metrics["engine"]["partitions"] == 2
            assert metrics["partition"]["streams"]["s"]["key"] == "k"
            from repro.obs.metrics import render_prometheus

            text = render_prometheus(metrics, obs=engine.obs)
            assert "repro_partition_routed_total" in text
            assert "repro_partition_merged_windows_total" in text
        finally:
            engine.close()

    def test_unsupported_surfaces(self):
        engine = DataCellEngine(partitions=2)
        try:
            engine.create_stream(
                "s", [("k", "int"), ("v", "int")], partition_by="k"
            )
            engine.create_stream("t", [("k", "int"), ("w", "int")])
            with pytest.raises(UnsupportedQueryError):
                engine.submit(
                    "SELECT s.v, t.w FROM s [RANGE 4 SLIDE 4], t [RANGE 4 SLIDE 4] "
                    "WHERE s.k = t.k"
                )
            # Landmark submits are accepted since the partitioned-landmark
            # rework (see TestLandmarkPartitioned).
            engine.submit("SELECT k, v FROM s [LANDMARK SLIDE 4]")
            q = engine.submit("SELECT sum(v) AS t FROM s [RANGE 4 SLIDE 4]")
            with pytest.raises(UnsupportedQueryError):
                engine.receptor("s")
            with pytest.raises(UnsupportedQueryError):
                engine.start()
        finally:
            engine.close()

    def test_float_partition_key_rejected(self):
        engine = DataCellEngine(partitions=2)
        try:
            with pytest.raises(ReproError):
                engine.create_stream(
                    "s", [("x", "float"), ("v", "int")], partition_by="x"
                )
        finally:
            engine.close()

    def test_partitions_one_stays_in_process(self):
        engine = DataCellEngine()  # P=1: declaration accepted, no workers
        try:
            engine.create_stream(
                "s", [("k", "int"), ("v", "int")], partition_by="k"
            )
            q = engine.submit("SELECT sum(v) AS t FROM s [RANGE 4 SLIDE 4]")
            engine.feed("s", rows=[(i, i) for i in range(4)])
            engine.run_until_idle()
            assert q.result_rows() == [[(6,)]]
            assert engine.partition_stats() == {}
        finally:
            engine.close()

    def test_query_handle_and_remove(self):
        engine = DataCellEngine(partitions=2)
        try:
            engine.create_stream(
                "s", [("k", "int"), ("v", "int")], partition_by="k"
            )
            q = engine.submit(
                "SELECT k, sum(v) AS t FROM s [RANGE 4 SLIDE 4] GROUP BY k",
                name="mine",
            )
            assert engine.query("mine") is q
            engine.feed("s", rows=[(i % 2, i) for i in range(8)])
            engine.run_until_idle()
            assert len(q.result_rows()) == 2
            engine.remove("mine")
            engine.feed("s", rows=[(i % 2, i) for i in range(8)])
            engine.run_until_idle()
            assert len(q.result_rows()) == 2  # no further windows
        finally:
            engine.close()


# ----------------------------------------------------------------------
# row order: partitioned output must match P=1 exactly, not just as sets
# ----------------------------------------------------------------------
class TestRowOrderParity:
    """The coordinator's ordering pass restores the P=1 row order.

    The P=1 engine emits grouped rows in ascending group-key order,
    DISTINCT rows ascending by every output column, and plain selections
    in arrival order.  Naive concatenation emits partition order instead;
    every case here compares windows with ``ordered=True`` so a
    partition-ordered result fails.
    """

    ROWS = [(k, v, 0.0, "t") for v, k in enumerate([3, 1, 2, 1, 3, 2, 0, 1])]

    @pytest.mark.parametrize("partitions", [2, 3])
    def test_grouped_concat_orders_by_key(self, partitions):
        run_differential(
            "SELECT k, sum(v) AS t FROM s [RANGE 4 SLIDE 4] GROUP BY k",
            self.ROWS,
            partitions=partitions,
            ordered=True,
        )

    def test_grouped_hidden_key_orders_by_key(self):
        # The group key is absent from the output: the partition query
        # ships it as a hidden helper column, the coordinator sorts by
        # it, then drops it.
        run_differential(
            "SELECT sum(v) AS t FROM s [RANGE 4 SLIDE 4] GROUP BY k",
            self.ROWS,
            partitions=3,
            ordered=True,
        )

    def test_distinct_grouped_hidden_key_dedups_across_partitions(self):
        # Identical aggregate rows from *different* key groups land on
        # different partitions; per-partition DISTINCT cannot see the
        # duplicate, so this shape must take the merge-sort route.
        rows = [(k, 5, 0.0, "t") for k in (1, 2, 1, 2)]
        run_differential(
            "SELECT DISTINCT sum(v) AS t FROM s [RANGE 4 SLIDE 4] GROUP BY k",
            rows,
            partitions=2,
            ordered=True,
        )

    def test_distinct_orders_by_output_columns(self):
        run_differential(
            "SELECT DISTINCT k FROM s [RANGE 4 SLIDE 4]",
            self.ROWS,
            partitions=2,
            ordered=True,
        )

    def test_plain_select_preserves_arrival_order(self):
        run_differential(
            "SELECT k, v FROM s [RANGE 4 SLIDE 4] WHERE v >= 0",
            self.ROWS,
            partitions=3,
            ordered=True,
        )
