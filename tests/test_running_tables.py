"""Running tables (DESIGN.md §17): engine-level behaviour.

An invertible plan — group keys, exact sums and counts — slides a
running table; it is compared, window for window, with the same plan
forced onto the paper's flat merge (Algorithm 2, every live partial
packed on every slide), which is what every other single-stream plan
runs.  The table's own properties live in tests/test_partials.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataCellEngine

STEP = 2
SLIDES = 45

#: Figure-3 "concat + compensation" classes over INT sums and counts,
#: and a shape whose groups appear in and vanish from the window all the
#: time; {w} is the window clause.
INVERTIBLE = {
    "grouped-sum": "SELECT x1, sum(x2) FROM s {w} WHERE x1 > 1 GROUP BY x1",
    "count-avg": "SELECT count(x2), avg(x2) FROM s {w}",
    "distinct": "SELECT DISTINCT x1, count(x2) FROM s {w} GROUP BY x1",
    "order-limit": (
        "SELECT x1, sum(x2) AS total FROM s {w} GROUP BY x1 "
        "ORDER BY total DESC, x1 LIMIT 3"
    ),
    "sparse-groups": (
        "SELECT x2, x1 % 2 AS odd, count(*), sum(x1 - 4) FROM s {w} "
        "WHERE x1 > 5 GROUP BY x2, x1 % 2"
    ),
}
DEPTHS = [31, 32, 33, 64, 100, 512]  # non-powers of K included


def make_data(count, seed=7):
    rng = np.random.default_rng(seed)
    return {
        "x1": rng.integers(0, 8, count).astype(np.int64),
        "x2": rng.integers(0, 1000, count).astype(np.int64),
        # quarter steps: float sums stay exact under any association
        "x3": rng.integers(0, 400, count) / 4.0,
    }


def build(sql, flat, **engine_kwargs):
    """An engine running ``sql`` as ``q``; ``flat`` forces the paper's
    flat merge: no running table."""
    engine = DataCellEngine(**engine_kwargs)
    engine.create_stream("s", [("x1", "int"), ("x2", "int"), ("x3", "float")])
    handle = engine.submit(sql, name="q")
    if flat:
        handle.factory._invertible = False
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


class TestInvertibleEqualsFlat:
    """Running tables against the paper's flat merge of the same plan."""

    @pytest.mark.parametrize("n", [1, 4] + DEPTHS)
    @pytest.mark.parametrize("shape", sorted(INVERTIBLE))
    def test_count_based(self, shape, n):
        sql = INVERTIBLE[shape].format(w=f"[RANGE {n * STEP} SLIDE {STEP}]")
        data = make_data(n * STEP + SLIDES * STEP)
        running_engine, running = build(sql, flat=False)
        flat_engine, flat = build(sql, flat=True)
        try:
            assert running.factory.plan.invertible
            feed_slides(running_engine, data, n * STEP, SLIDES)
            feed_slides(flat_engine, data, n * STEP, SLIDES)
            assert len(running.results()) == SLIDES + 1
            assert window_bytes(running) == window_bytes(flat)
            # one slide folds the new partial and the expired one
            assert running.factory.merge_stats() == {"merge_cover_len": 2}
        finally:
            running_engine.close()
            flat_engine.close()

    def test_time_based_with_empty_basic_windows(self):
        n = 64
        sql = INVERTIBLE["grouped-sum"].format(
            w=f"[RANGE {n * 10} MILLISECONDS SLIDE 10 MILLISECONDS]"
        )
        count = 600
        rng = np.random.default_rng(11)
        # Gaps of up to 4 basic windows: many slices hold no tuple at all,
        # and the window empties out now and then.
        ts = np.cumsum(rng.integers(0, 40_000, count)).astype(np.int64)
        ts[300:] += 2 * n * 10_000
        data = make_data(count, seed=12)
        running_engine, running = build(sql, flat=False)
        flat_engine, flat = build(sql, flat=True)
        try:
            for engine in (running_engine, flat_engine):
                for lo in range(0, count, 25):
                    engine.feed(
                        "s",
                        columns={k: v[lo : lo + 25] for k, v in data.items()},
                        timestamps=ts[lo : lo + 25],
                    )
                    engine.run_until_idle()
            assert len(running.results()) > 3 * n
            assert any(not len(batch) for batch in running.results())
            assert window_bytes(running) == window_bytes(flat)
            assert running.factory._running is not None
        finally:
            running_engine.close()
            flat_engine.close()

    def test_step_chunked(self):
        n, step = 64, 6
        sql = INVERTIBLE["count-avg"].format(w=f"[RANGE {n * step} SLIDE {step}]")
        data = make_data(n * step + 40 * step)
        running_engine, running = build(sql, flat=False)
        flat_engine, flat = build(sql, flat=True)
        try:
            windows = []
            for engine, handle in ((running_engine, running), (flat_engine, flat)):
                engine.feed("s", columns=data)
                out = []
                while handle.factory.ready():
                    batch = handle.factory.step_chunked(3)
                    out.append([batch.columns[name].tail.tobytes() for name in batch.names])
                windows.append(out)
            assert len(windows[0]) == 41
            assert windows[0] == windows[1]
            assert running.factory._running is not None
        finally:
            running_engine.close()
            flat_engine.close()

    @pytest.mark.parametrize("shape", ["grouped-sum", "sparse-groups"])
    def test_restore_mid_stream_is_byte_identical(self, tmp_path, shape):
        """The running table is not snapshotted: the first slide after a
        restore folds it again from the live partials, and every window
        from there on carries the uninterrupted run's bytes."""
        n = 100
        sql = INVERTIBLE[shape].format(w=f"[RANGE {n * STEP} SLIDE {STEP}]")
        data = make_data(n * STEP + 60 * STEP)
        fill = n * STEP
        oracle_engine, oracle = build(sql, flat=True)
        try:
            feed_slides(oracle_engine, data, fill, 60)
            expected = window_bytes(oracle)
        finally:
            oracle_engine.close()

        engine, handle = build(sql, flat=False, data_dir=str(tmp_path))
        feed_slides(engine, data, fill, 20)
        assert handle.factory._running is not None
        engine.checkpoint()
        tail = {k: v[fill + 20 * STEP :] for k, v in data.items()}
        feed_slides(engine, tail, 0, 15)  # journaled past the snapshot
        engine.abandon()

        restored = DataCellEngine.restore(str(tmp_path))
        try:
            restored.run_until_idle()
            handle = restored.query("q")
            assert handle.factory._running is not None  # folded again
            tail = {k: v[fill + 35 * STEP :] for k, v in data.items()}
            feed_slides(restored, tail, 0, 25)
            assert window_bytes(handle) == expected
        finally:
            restored.close()


class TestRestoreMidStream:
    def test_restore_re_emits_byte_identical_windows(self, tmp_path):
        """A deep window that is not invertible (FLT sums, a max) merges
        flat.  Checkpoint mid-stream, keep sliding, die, restore: the
        re-fired and later windows carry the very bytes the uninterrupted
        run emits, float sums included, because the restored store folds
        the same partials in the same order."""
        n = 100
        sql = (
            f"SELECT x1, sum(x3), avg(x3), max(x2) FROM s [RANGE {n * STEP} SLIDE {STEP}] "
            "GROUP BY x1"
        )
        data = make_data(n * STEP + 60 * STEP)
        data["x3"] = np.random.default_rng(3).random(len(data["x1"])) * 1e6
        fill = n * STEP

        oracle_engine, oracle = build(sql, flat=False)
        try:
            assert not oracle.factory.plan.invertible
            feed_slides(oracle_engine, data, fill, 60)
            expected = window_bytes(oracle)
        finally:
            oracle_engine.close()

        engine, handle = build(sql, flat=False, data_dir=str(tmp_path))
        feed_slides(engine, data, fill, 20)
        engine.checkpoint()
        tail = {k: v[fill + 20 * STEP :] for k, v in data.items()}
        feed_slides(engine, tail, 0, 15)  # journaled past the snapshot
        engine.abandon()

        restored = DataCellEngine.restore(str(tmp_path))
        try:
            restored.run_until_idle()
            handle = restored.query("q")
            tail = {k: v[fill + 35 * STEP :] for k, v in data.items()}
            feed_slides(restored, tail, 0, 25)
            assert window_bytes(handle) == expected
            assert restored.metrics()["merge"]["q"] == {"merge_cover_len": n}
        finally:
            restored.close()


class TestMergeMetrics:
    def test_invertible_gauges_report_the_running_table(self):
        n = 64
        sql = INVERTIBLE["grouped-sum"].format(w=f"[RANGE {n * STEP} SLIDE {STEP}]")
        engine, handle = build(sql, flat=False)
        try:
            feed_slides(engine, make_data(n * STEP + 40), n * STEP, 0)
            assert engine.metrics()["merge"]["q"]["merge_cover_len"] == n  # one fold
            feed_slides(engine, make_data(40, seed=8), 0, 20)
            assert engine.metrics()["merge"]["q"] == {"merge_cover_len": 2}
            text = engine.metrics(format="prometheus")
            assert 'repro_merge_cover_len{query="q"} 2' in text
            assert "repro_merge_nodes" not in text
        finally:
            engine.close()

    @pytest.mark.parametrize("shape", ["count-avg", "grouped-sum", "sparse-groups"])
    def test_resource_bound_counts_the_running_table(self, shape):
        """An invertible plan's bound is the n partials plus the running
        table (the combined window and one weight per
        row), and the running engine stays within it."""
        n = 512
        engine, handle = build(
            INVERTIBLE[shape].format(w=f"[RANGE {n * STEP} SLIDE {STEP}]"), flat=False
        )
        try:
            alias = handle.resources.aliases[0]
            flows = len(handle.factory.plan.flows)
            if shape == "count-avg":
                # one row per flow in every partial, in the table, and
                # one weight per flow
                assert alias.state.coeff == flows * n + 2 * flows
            assert handle.resources.bounded
            feed_slides(engine, make_data(n * STEP + 200), n * STEP, 100)
            store = handle.factory._stores["s"]
            table = handle.factory._running
            retained = sum(
                len(bundle[flow.name])
                for __, bundle in store.live()
                for flow in handle.factory.plan.flows
            )
            retained += sum(len(bat) for bat in table.bundle.values())
            retained += len(table.weights)
            assert retained <= alias.state.coeff
        finally:
            engine.close()
