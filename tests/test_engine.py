"""Tests for the DataCellEngine facade."""

import numpy as np
import pytest

from repro import DataCellEngine
from repro.errors import CatalogError, ReproError, UnsupportedQueryError


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    table = e.create_table("dim", [("k", "int"), ("name", "str")])
    table.append_rows([(1, "one"), (2, "two"), (3, "three")])
    return e


class TestSchemaManagement:
    def test_type_name_aliases(self):
        e = DataCellEngine()
        e.create_stream(
            "z",
            [
                ("a", "int"),
                ("b", "float"),
                ("c", "str"),
                ("d", "bool"),
                ("e", "timestamp"),
            ],
        )
        schema = e.catalog.stream("z").schema
        assert len(schema) == 5

    def test_unknown_type_rejected(self):
        e = DataCellEngine()
        with pytest.raises(CatalogError):
            e.create_stream("z", [("a", "wibble")])

    def test_insert_into_table(self, engine):
        assert engine.insert("dim", [(4, "four")]) == 1
        assert engine.catalog.table("dim").count == 4


class TestSubmitAndFeed:
    def test_submit_returns_handle(self, engine):
        query = engine.submit("SELECT count(*) FROM s [RANGE 10 SLIDE 5]")
        assert query.name == "q1"
        assert query.mode == "incremental"
        assert "s" in query.baskets

    def test_named_queries(self, engine):
        query = engine.submit("SELECT count(*) FROM s [RANGE 10 SLIDE 5]", name="mine")
        assert engine.query("mine") is query

    def test_unknown_mode(self, engine):
        with pytest.raises(ReproError):
            engine.submit("SELECT count(*) FROM s [RANGE 10 SLIDE 5]", mode="magic")

    def test_feed_requires_exactly_one_source(self, engine):
        engine.submit("SELECT count(*) FROM s [RANGE 10 SLIDE 5]")
        with pytest.raises(ReproError):
            engine.feed("s")
        with pytest.raises(ReproError):
            engine.feed("s", rows=[(1, 2)], columns={"x1": [1], "x2": [2]})

    def test_feed_unknown_stream(self, engine):
        with pytest.raises(CatalogError):
            engine.feed("ghost", rows=[(1, 2)])

    def test_feed_rows_and_columns_agree(self, engine):
        q_rows = engine.submit("SELECT sum(x1) FROM s [RANGE 4 SLIDE 2]")
        q_cols = engine.submit("SELECT sum(x1) FROM s [RANGE 4 SLIDE 2]")
        engine.feed("s", rows=[(1, 0), (2, 0), (3, 0), (4, 0)])
        engine.run_until_idle()
        assert q_rows.result_rows() == q_cols.result_rows() == [[(10,)]]

    def test_remove_releases_baskets(self, engine):
        query = engine.submit("SELECT count(*) FROM s [RANGE 10 SLIDE 5]")
        engine.remove(query.name)
        engine.feed("s", rows=[(1, 2)] * 20)
        engine.run_until_idle()
        assert query.results() == []
        assert query.baskets["s"].count == 0  # not fed anymore

    def test_response_times_exposed(self, engine):
        query = engine.submit("SELECT count(*) FROM s [RANGE 10 SLIDE 5]")
        engine.feed("s", rows=[(i, i) for i in range(20)])
        engine.run_until_idle()
        times = query.response_times()
        assert len(times) == 3
        assert all(t > 0 for t in times)


class TestOneTimeQueries:
    def test_query_once_over_table(self, engine):
        out = engine.query_once("SELECT k, name FROM dim WHERE k > 1 ORDER BY k DESC")
        assert out == {"k": [3, 2], "name": ["three", "two"]}

    def test_query_once_aggregate(self, engine):
        out = engine.query_once("SELECT count(*), max(k) FROM dim")
        assert out == {"col0": [3], "col1": [3]}

    def test_query_once_rejects_streams(self, engine):
        with pytest.raises(UnsupportedQueryError):
            engine.query_once("SELECT count(*) FROM s [RANGE 10 SLIDE 5]")


class TestIntrospection:
    def test_explain(self, engine):
        text = engine.explain("SELECT x1 FROM s [RANGE 10 SLIDE 5] WHERE x1 > 2")
        assert "Scan[stream]" in text
        assert "Filter" in text

    def test_explain_continuous(self, engine):
        text = engine.explain_continuous(
            "SELECT x1, sum(x2) FROM s [RANGE 10 SLIDE 5] GROUP BY x1"
        )
        assert "fragment" in text
        assert "combine" in text
        assert "aggr.subsum" in text


@pytest.mark.parametrize("shape", ["plain", "partitions=2", "data_dir"])
def test_feed_admits_typed_values_on_every_engine(shape, tmp_path):
    """Regression: an ephemeral unpartitioned feed admitted the raw
    values, so ints fed to a ``str`` column emitted ``(1, 4)`` on a plain
    engine and ``('1', 4)`` on a partitioned or durable one.  Every feed
    now admits the typed batch."""
    kwargs = {
        "plain": {},
        "partitions=2": {"partitions": 2},
        "data_dir": {"data_dir": str(tmp_path / "dd")},
    }[shape]
    engine = DataCellEngine(**kwargs)
    try:
        engine.create_stream("s", [("k", "str"), ("v", "int")], partition_by="k")
        query = engine.submit("SELECT k, v FROM s [RANGE 2 SLIDE 2]")
        engine.feed("s", rows=[(1, 4), (2, 5)])
        engine.run_until_idle()
        assert query.result_rows() == [[("1", 4), ("2", 5)]]
    finally:
        engine.close()
