"""Tests for workload generators and the CSV ingestion path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.kernel.atoms import Atom
from repro.kernel.storage import Schema
from repro.workloads import (
    grouped_stream,
    join_streams,
    key_domain_for_join_selectivity,
    read_csv_chunks,
    read_csv_rows,
    selection_stream,
    selection_threshold,
    write_csv,
)


class TestSelectionWorkload:
    def test_threshold_hits_requested_selectivity(self):
        workload = selection_stream(200_000, 0.2, seed=1)
        hit = float(np.mean(workload.x1 > workload.threshold))
        assert hit == pytest.approx(0.2, abs=0.01)

    @pytest.mark.parametrize("sel", [0.1, 0.5, 0.9])
    def test_various_selectivities(self, sel):
        workload = selection_stream(100_000, sel, seed=2)
        hit = float(np.mean(workload.x1 > workload.threshold))
        assert hit == pytest.approx(sel, abs=0.02)

    def test_full_selectivity(self):
        assert selection_threshold(1.0) == -1  # x1 > -1 matches everything

    def test_bad_selectivity(self):
        with pytest.raises(WorkloadError):
            selection_threshold(0.0)
        with pytest.raises(WorkloadError):
            selection_stream(10, 1.5)

    def test_columns_and_rows_agree(self):
        workload = selection_stream(10, 0.5, seed=3)
        rows = list(workload.rows())
        assert len(rows) == 10
        assert rows[0] == (int(workload.x1[0]), int(workload.x2[0]))

    def test_negative_count(self):
        with pytest.raises(WorkloadError):
            selection_stream(-1, 0.5)


class TestJoinWorkload:
    def test_key_domain(self):
        assert key_domain_for_join_selectivity(1e-4) == 10_000
        with pytest.raises(WorkloadError):
            key_domain_for_join_selectivity(0)

    def test_join_selectivity_realized(self):
        workload = join_streams(2_000, 1e-2, seed=4)
        matches = 0
        right = {}
        for key in workload.right_x2.tolist():
            right[key] = right.get(key, 0) + 1
        for key in workload.left_x2.tolist():
            matches += right.get(key, 0)
        observed = matches / (2_000 * 2_000)
        assert observed == pytest.approx(1e-2, rel=0.2)


class TestGroupedStream:
    def test_group_count(self):
        cols = grouped_stream(10_000, groups=7, seed=5)
        assert len(np.unique(cols["x1"])) == 7

    def test_bad_groups(self):
        with pytest.raises(WorkloadError):
            grouped_stream(10, groups=0)


class TestCsvIo:
    SCHEMA = Schema.of(("x1", Atom.INT), ("x2", Atom.FLT), ("tag", Atom.STR))

    def test_roundtrip_chunks(self, tmp_path):
        path = tmp_path / "data.csv"
        columns = {
            "x1": np.array([1, 2, 3], dtype=np.int64),
            "x2": np.array([0.5, 1.5, 2.5]),
            "tag": np.array(["a", "b", "c"], dtype=object),
        }
        assert write_csv(path, columns, order=["x1", "x2", "tag"]) == 3
        chunks = list(read_csv_chunks(path, self.SCHEMA, chunk_size=2))
        assert len(chunks) == 2
        assert chunks[0]["x1"].tolist() == [1, 2]
        assert chunks[1]["x2"].tolist() == [2.5]
        assert chunks[0]["tag"].tolist() == ["a", "b"]

    def test_roundtrip_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, {"x1": [7], "x2": [0.25], "tag": ["z"]}, order=["x1", "x2", "tag"])
        rows = list(read_csv_rows(path, self.SCHEMA))
        assert rows == [(7, 0.25, "z")]

    def test_bad_arity_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n")
        with pytest.raises(WorkloadError):
            list(read_csv_rows(path, self.SCHEMA))

    def test_ragged_write_rejected(self, tmp_path):
        with pytest.raises(WorkloadError):
            write_csv(tmp_path / "x.csv", {"a": [1], "b": [1, 2]})

    def test_chunk_size_validated(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, {"x1": [1], "x2": [1.0], "tag": ["a"]}, order=["x1", "x2", "tag"])
        with pytest.raises(WorkloadError):
            list(read_csv_chunks(path, self.SCHEMA, chunk_size=0))

    @pytest.mark.parametrize("text", ["1,2\n3\n", "1,2\n\n3,4\n", "1,2,3\n"])
    def test_bad_arity_in_a_bulk_chunk_names_the_line(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        schema = Schema.of(("a", Atom.INT), ("b", Atom.FLT))
        with pytest.raises(WorkloadError, match="bad CSV arity"):
            list(read_csv_chunks(path, schema, chunk_size=8))

    def test_bad_value_in_a_bulk_chunk_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n1.5,3\n")
        with pytest.raises(ValueError):
            list(read_csv_chunks(path, Schema.of(("a", Atom.INT), ("b", Atom.INT)), 8))

    def test_csv_feeds_datacell(self, tmp_path):
        """End-to-end: CSV -> chunks -> baskets -> windows."""
        from repro import DataCellEngine

        path = tmp_path / "stream.csv"
        rng = np.random.default_rng(6)
        write_csv(
            path,
            {"x1": rng.integers(0, 10, 50), "x2": rng.integers(0, 10, 50)},
            order=["x1", "x2"],
        )
        engine = DataCellEngine()
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        query = engine.submit("SELECT count(*) FROM s [RANGE 20 SLIDE 10]")
        schema = engine.catalog.stream("s").schema
        for chunk in read_csv_chunks(path, schema, chunk_size=16):
            engine.feed("s", columns=chunk)
        engine.run_until_idle()
        assert len(query.results()) == 4
        assert all(batch.rows() == [(20,)] for batch in query.results())


def per_line_chunks(path, schema, chunk_size):
    """The per-line parse (:func:`read_csv_rows`), cut into chunks."""
    rows = list(read_csv_rows(path, schema))
    dtypes = [np.float64 if atom == Atom.FLT else np.int64 for __, atom in schema.columns]
    for low in range(0, len(rows), chunk_size):
        columns = zip(*rows[low : low + chunk_size])
        yield {
            name: np.array(column, dtype=dtype)
            for (name, __), column, dtype in zip(schema.columns, columns, dtypes)
        }


class TestBulkCsvChunks:
    @settings(max_examples=40, deadline=None)
    @given(
        atoms=st.lists(st.sampled_from([Atom.INT, Atom.FLT]), min_size=1, max_size=3),
        rows=st.integers(0, 40),
        chunk_size=st.integers(1, 9),
        data=st.data(),
    )
    def test_bulk_chunks_equal_the_per_line_parse(
        self, tmp_path_factory, atoms, rows, chunk_size, data
    ):
        """A numeric schema's chunks, parsed by one numpy call each, equal
        the per-line parse: values, dtypes and chunk bounds."""
        schema = Schema.of(*((f"c{i}", atom) for i, atom in enumerate(atoms)))
        values = {
            Atom.INT: st.integers(-(2**63), 2**63 - 1),
            Atom.FLT: st.floats(allow_nan=True, allow_infinity=True, width=64),
        }
        columns = {
            f"c{i}": np.array(
                data.draw(st.lists(values[atom], min_size=rows, max_size=rows)),
                dtype=np.int64 if atom == Atom.INT else np.float64,
            )
            for i, atom in enumerate(atoms)
        }
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        write_csv(path, columns, order=list(columns))
        got = list(read_csv_chunks(path, schema, chunk_size))
        expected = list(per_line_chunks(path, schema, chunk_size))
        assert len(got) == len(expected)
        for chunk, want in zip(got, expected):
            assert list(chunk) == list(want)
            for name in want:
                assert chunk[name].dtype == want[name].dtype
                np.testing.assert_array_equal(chunk[name], want[name])
