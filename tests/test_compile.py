"""One compile pipeline (:func:`repro.core.engine.compile_query`).

Submit, ``EXPLAIN CONTINUOUS`` and ``repro lint`` compile a continuous
query through the same function, so they must agree: on the shipped
queries, on what is rejected, and on the plan a factory runs.  The
partitioned handle is built by one helper on submit and on restore, so
a restored handle has the schemas it had at submit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import DataCellEngine
from repro.analysis.lint import _collect_targets, lint_sql
from repro.errors import ReproError

REPO = Path(__file__).resolve().parent.parent


def _submit_raises(engine: DataCellEngine, sql: str) -> bool:
    try:
        engine.submit(sql)
    except ReproError:
        return True
    return False


def test_verified_submit_raises_exactly_when_lint_reports_an_error():
    units = _collect_targets([str(REPO / "examples"), str(REPO / "benchmarks")])
    assert len(units) >= 10
    for engine, subject, sql in units:
        report, __ = lint_sql(engine, sql, subject=subject, resources=True)
        engine.verify_plans = True
        assert _submit_raises(engine, sql) == (not report.ok), (subject, sql)


@pytest.mark.parametrize(
    "sql",
    [
        # does not plan
        "SELECT nope FROM s [RANGE 8 SLIDE 4]",
        # a capacity below one basic window: the query could never fire
        "SELECT sum(x) AS t FROM s [RANGE 64 SLIDE 16]",
    ],
    ids=["unplannable", "capacity-below-basic-window"],
)
def test_verified_submit_and_lint_reject_the_same_queries(sql):
    engine = DataCellEngine(verify_plans=True)
    engine.create_stream("s", [("x", "int")], capacity=8)
    report, __ = lint_sql(engine, sql, resources=True)
    assert not report.ok
    assert _submit_raises(engine, sql)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT x1, sum(x2) AS t FROM s [RANGE 64 SLIDE 8] WHERE x1 > 2 GROUP BY x1",
        "SELECT max(x2) FROM s [LANDMARK SLIDE 8]",
        "SELECT count(*) FROM s a [RANGE 16 SLIDE 4], r b [RANGE 16 SLIDE 4] "
        "WHERE a.x1 = b.y1",
        "SELECT avg(s.x2) FROM s [RANGE 16 SLIDE 4], t WHERE s.x1 = t.k",
    ],
    ids=["grouped", "landmark", "join", "stream-table"],
)
def test_explain_continuous_is_the_plan_submit_runs(sql):
    engine = DataCellEngine()
    engine.create_stream("s", [("x1", "int"), ("x2", "int")])
    engine.create_stream("r", [("y1", "int")])
    engine.create_table("t", [("k", "int")])
    text = engine.explain_continuous(sql)
    handle = engine.submit(sql)
    assert text == handle.factory.plan.describe()


@pytest.mark.partition
@pytest.mark.parametrize(
    "sql",
    [
        # concat route: ships the hidden __seq ordering helper
        "SELECT k, v FROM s [RANGE 4 SLIDE 4]",
        # re-aggregate route: the merge program's visible outputs
        "SELECT avg(v) AS a, count(*) AS n FROM s [RANGE 8 SLIDE 4]",
    ],
    ids=["concat", "merge"],
)
def test_restored_partitioned_query_has_its_submit_schemas(tmp_path, sql):
    def shape(handle):
        return (
            handle.output_names,
            handle.output_atoms,
            handle.partial_names,
            handle.partial_atoms,
        )

    data_dir = str(tmp_path / "dd")
    engine = DataCellEngine(partitions=2, data_dir=data_dir)
    try:
        engine.create_stream("s", [("k", "int"), ("v", "int")], partition_by="k")
        submitted = shape(engine.submit(sql, name="q"))
        engine.feed("s", columns={"k": np.arange(12) % 5, "v": np.arange(12)})
        engine.run_until_idle()
        engine.checkpoint()
    finally:
        engine.abandon()
    restored = DataCellEngine.restore(data_dir)
    try:
        assert shape(restored.query("q")) == submitted
    finally:
        restored.close()
