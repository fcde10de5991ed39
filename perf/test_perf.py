"""Tests of the benchmark's own machinery (``python -m pytest perf -q``).

Not part of the tier-1 suite (pyproject's ``testpaths`` is ``tests``):
these check the measuring code, not the engine.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from multiprocessing import resource_tracker
from types import SimpleNamespace

import numpy as np
import pytest

from perf import compare, driver, run, verify  # run puts src/ on sys.path
from perf.trace import Tracer, layer_self_seconds, self_times, subtree
from perf.workloads import TS_STEP_US, WORKLOADS, Data, Query, Stream, Window, Workload

from repro.testing.fuzz.generator import Feed
from repro.testing.fuzz.reference import ReferenceOracle

SMALL = (("x1", 6), ("x2", 50))
GEOMETRIES = [
    Window("count", 64, 16),
    Window("count", 32, 32),
    Window("landmark", 0, 16),
    Window("time", 2_000_000, 1_000_000),
]


def _tiny(queries, streams, timestamps=False) -> Workload:
    return Workload(
        name="tiny",
        why="test",
        streams=streams,
        queries=tuple(queries),
        chunk=16,
        saturate_ticks=1,
        paced_tps=1000,
        buffer=1 << 15,
        timestamps=timestamps,
    )


def _single_stream_queries(window: Window) -> list[Query]:
    clause = window.clause()
    return [
        Query(
            "gsum",
            f"SELECT x1, sum(x2) FROM s {clause} WHERE x1 > 1 GROUP BY x1",
            "gsum", ("s",), window, threshold=1,
        ),
        Query(
            "cntavg",
            f"SELECT count(x2), avg(x2) FROM s {clause} WHERE x1 > 2",
            "cntavg", ("s",), window, threshold=2,
        ),
        Query("minmax", f"SELECT min(x2), max(x2) FROM s {clause}", "minmax", ("s",), window),
    ]


def _oracle_windows(query: Query, workload: Workload, data: Data, n: int):
    streams = {
        s.name: [(column, "int") for column, __ in s.columns] for s in workload.streams
    }
    oracle = ReferenceOracle(SimpleNamespace(sql=query.sql, streams=streams, tables={}))
    feed = Feed(
        columns={
            s.name: {c: data.gather(s.name, c, 0, n).tolist() for c, __ in s.columns}
            for s in workload.streams
        },
        timestamps={
            s.name: [p * TS_STEP_US for p in range(n)] if workload.timestamps else None
            for s in workload.streams
        },
    )
    return oracle.windows(feed)


@pytest.mark.parametrize("window", GEOMETRIES, ids=lambda w: f"{w.kind}-{w.size}-{w.step}")
def test_references_agree_with_the_fuzz_oracle(window):
    n = 14_500 if window.kind == "time" else 200
    queries = _single_stream_queries(window)
    workload = _tiny(queries, (Stream("s", SMALL),), timestamps=window.kind == "time")
    data = Data(workload, seed=5)
    for query in queries:
        windows = _oracle_windows(query, workload, data, n)
        assert len(windows) == window.fired(n) > 0
        for k, rows in enumerate(windows):
            expected = verify.reference(query, data, k)
            assert sorted(zip(*(c.tolist() for c in expected))) == pytest.approx(sorted(rows))


def test_join_reference_agrees_with_the_fuzz_oracle():
    window = Window("count", 64, 16)
    query = Query(
        "q2",
        f"SELECT max(a.x1), avg(b.x1) FROM l a {window.clause()}, r b {window.clause()} "
        "WHERE a.x2 = b.x2",
        "join", ("l", "r"), window, key="x2", val="x1",
    )
    columns = (("x1", 100), ("x2", 8))
    workload = _tiny([query], (Stream("l", columns), Stream("r", columns)))
    data = Data(workload, seed=9)
    windows = _oracle_windows(query, workload, data, 160)
    assert len(windows) == window.fired(160) == 7
    for k, rows in enumerate(windows):
        expected = verify.reference(query, data, k)
        assert [tuple(c[0] for c in expected)] == pytest.approx(rows)


@pytest.mark.parametrize("window", GEOMETRIES, ids=lambda w: w.kind)
def test_fired_counts_the_windows_whose_tuples_arrived(window):
    for n in (0, 1, 15, 16, 63, 64, 65, 200, 7_999, 8_000, 8_001, 8_002, 12_001):
        closed = 0
        while window.needed(closed) <= n:
            closed += 1
        assert window.fired(n) == closed


def test_sample_indices_first_two_every_250th_and_last():
    assert verify.sample_indices(1) == {1}
    assert verify.sample_indices(777) == {1, 2, 250, 500, 750, 777}


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        ("root", "driver", 0.0, 10.0, -1, None),
        ("feed", "core.engine", 1.0, 4.0, 0, None),
        ("append", "core.basket", 2.0, 3.0, 1, None),
        ("pump", "core.engine", 5.0, 9.0, 0, None),
        # Two children that overlap (5.5-7 and 6-8) cover 5.5-8 once.
        ("a", "core.factory", 5.5, 7.0, 3, None),
        ("b", "core.factory", 6.0, 8.0, 3, None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 2.0])
    by_layer = layer_self_seconds(spans)
    assert by_layer["core.engine"] == pytest.approx(3.5)
    # Without overlap the layers add up to the root exactly.
    assert sum(layer_self_seconds(spans[:5]).values()) == pytest.approx(10.0)
    assert [s[0] for s in subtree(spans, 3)] == ["pump", "a", "b"]
    assert subtree(spans, 3)[1][4] == 0


def test_tracer_wraps_and_restores_the_public_callables():
    from repro import DataCellEngine
    from repro.core.emitter import CollectingEmitter

    originals = (DataCellEngine.feed, DataCellEngine.__dict__["restore"], CollectingEmitter.__call__)
    tracer = Tracer()
    tracer.install()
    try:
        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        handle = engine.submit("SELECT x1, sum(x2) FROM s [RANGE 4 SLIDE 2] GROUP BY x1")
        tracer.label_programs(handle.factory.plan)
        with tracer.span("root", "driver") as root:
            engine.feed("s", columns={"x1": [1, 1, 2, 2], "x2": [1, 2, 3, 4]})
            engine.run_until_idle()
        engine.close()
    finally:
        tracer.uninstall()
    assert (DataCellEngine.feed, DataCellEngine.__dict__["restore"], CollectingEmitter.__call__) == originals
    assert len(handle.results()) == 1
    spans = subtree(tracer.spans, root)
    names = {s[0] for s in spans}
    assert {"DataCellEngine.feed", "Basket.append_columns", "Scheduler.run_once",
            "IncrementalFactory.step", "run:fragment", "run:combine", "run:finalize",
            "CollectingEmitter.__call__"} <= names
    assert sum(layer_self_seconds(spans).values()) == pytest.approx(spans[0][3] - spans[0][2])


def test_p95_needs_ten_samples_beyond_it():
    assert not driver.supports(199, 95)
    assert driver.supports(200, 95)
    assert driver.supports(20, 50) and not driver.supports(19, 50)
    samples = np.arange(1, 201) / 1e3
    assert driver.percentile_ms(samples, 50) == pytest.approx(100.5)
    assert driver.percentile_ms(samples, 95) == pytest.approx(190.05)


def test_compare_verdicts():
    assert compare.verdict([100.0], [106.0], "lower", 0.07)[0] == "agree"
    assert compare.verdict([100.0], [108.0], "lower", 0.07)[0] == "worse"
    assert compare.verdict([100.0], [92.0], "higher", 0.07)[0] == "worse"
    assert compare.verdict([100.0], [120.0], "higher", 0.07)[0] == "agree"
    noisy = [80.0, 95.0, 100.0, 105.0, 125.0]
    assert compare.verdict(noisy, [100.0, 101.0], "lower", 0.07)[0] == "unresolved"


def _last_record(workload: str, trace: int) -> dict:
    with open(os.path.join(run.OUT_DIR, f"run-{workload}-t{trace}.json")) as handle:
        return json.load(handle)


def test_smoke_pass_is_correct_and_leaves_nothing_behind():
    assert run.main(["--workload", "sharded_durable", "--smoke", "--trace", "1"]) == 0
    record = _last_record("sharded_durable", 1)
    assert record["correct"] and record["failed"] == 0
    assert record["metrics"]["core.durability.journal_calls"]["value"] > 0
    assert record["metrics"]["driver.unattributed_frac"]["value"] < 0.05
    assert not driver.leaked_segments()
    assert not [n for n in os.listdir(run.OUT_DIR) if n.startswith("data-")]
    # No process either: shard workers ended, shared-memory tracker reaped.
    assert not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._fd is None


def test_a_dropped_window_fails_the_run(monkeypatch):
    from repro.core.emitter import CollectingEmitter

    deliver = CollectingEmitter.__call__

    def dropping(self, factory_name, batch):
        if batch.window_index != 3:
            deliver(self, factory_name, batch)

    monkeypatch.setattr(CollectingEmitter, "__call__", dropping)
    assert run.main(["--workload", "q1_fine", "--smoke"]) == 1
    record = _last_record("q1_fine", 0)
    assert not record["correct"]
    assert record["failed_frac"] > 0
    assert any("window 3: missing" in message for message in record["failures"])


def test_every_declared_workload_exists():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(WORKLOADS)
