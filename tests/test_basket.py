"""Unit tests for baskets (stream buffers)."""

import threading

import numpy as np
import pytest

from repro.errors import BasketError
from repro.core.basket import Basket
from repro.core.windows import TS_COLUMN
from repro.kernel.atoms import Atom
from repro.kernel.storage import Schema


@pytest.fixture
def basket():
    return Basket("b", Schema.of(("x1", Atom.INT), ("x2", Atom.FLT)))


class TestAppend:
    def test_append_rows(self, basket):
        assert basket.append_rows([(1, 1.5), (2, 2.5)]) == 2
        assert basket.count == 2
        assert basket.column("x1").to_list() == [1, 2]

    def test_append_rows_bad_arity(self, basket):
        with pytest.raises(BasketError):
            basket.append_rows([(1,)])

    def test_append_columns(self, basket):
        basket.append_columns({"x1": [1, 2, 3], "x2": [0.1, 0.2, 0.3]})
        assert basket.count == 3

    def test_append_columns_validation(self, basket):
        with pytest.raises(BasketError):
            basket.append_columns({"x1": [1]})
        with pytest.raises(BasketError):
            basket.append_columns({"x1": [1], "x2": [1.0, 2.0]})

    def test_appended_total_monotonic(self, basket):
        basket.append_rows([(1, 1.0)])
        basket.delete_head(1)
        basket.append_rows([(2, 2.0)])
        assert basket.appended_total == 2
        assert basket.count == 1


class TestTimestamps:
    def test_logical_clock_default(self, basket):
        basket.append_rows([(1, 1.0), (2, 2.0)])
        basket.append_columns({"x1": [3], "x2": [3.0]})
        assert basket.timestamps().to_list() == [0, 1, 2]

    def test_explicit_timestamps(self, basket):
        basket.append_columns(
            {"x1": [1, 2], "x2": [0.0, 0.0]}, timestamps=[100, 200]
        )
        assert basket.timestamps().to_list() == [100, 200]
        assert basket.max_timestamp() == 200

    def test_timestamp_length_mismatch(self, basket):
        with pytest.raises(BasketError):
            basket.append_columns({"x1": [1], "x2": [0.0]}, timestamps=[1, 2])

    def test_count_before(self, basket):
        basket.append_columns(
            {"x1": [1, 2, 3], "x2": [0.0] * 3}, timestamps=[10, 20, 30]
        )
        assert basket.count_before(25) == 2
        assert basket.count_before(5) == 0
        assert basket.count_before(31) == 3

    def test_rows_and_columns_share_one_time_frontier(self, basket):
        basket.append_rows([(1, 0.0), (2, 0.0)], timestamps=[10, 20])
        with pytest.raises(BasketError, match="before 20"):
            basket.append_columns({"x1": [3], "x2": [0.0]}, timestamps=[15])
        with pytest.raises(BasketError, match="must not decrease"):
            basket.append_rows([(3, 0.0), (4, 0.0)], timestamps=[30, 25])
        basket.append_columns({"x1": [3], "x2": [0.0]}, timestamps=[30])
        with pytest.raises(BasketError, match="before 30"):
            basket.append_rows([(4, 0.0)], timestamps=[25])
        assert basket.timestamps().to_list() == [10, 20, 30]

    def test_no_timestamp_basket(self):
        bare = Basket("raw", Schema.of(("x", Atom.INT)), with_timestamps=False)
        bare.append_rows([(1,)])
        with pytest.raises(BasketError):
            bare.timestamps()

    def test_max_timestamp_empty(self, basket):
        assert basket.max_timestamp() is None


class TestSlicesAndExpiry:
    def test_head_slice(self, basket):
        basket.append_columns({"x1": [1, 2, 3], "x2": [1.0, 2.0, 3.0]})
        cols = basket.head_slice(2, ["x1"])
        assert cols["x1"].to_list() == [1, 2]

    def test_head_slice_too_many(self, basket):
        basket.append_rows([(1, 1.0)])
        with pytest.raises(BasketError):
            basket.head_slice(5, ["x1"])

    def test_unknown_column(self, basket):
        with pytest.raises(BasketError):
            basket.column("ghost")

    def test_delete_head_advances_hseq(self, basket):
        basket.append_columns({"x1": [1, 2, 3], "x2": [0.0] * 3})
        basket.delete_head(2)
        assert basket.count == 1
        assert basket.hseq == 2
        assert basket.column("x1").to_list() == [3]
        assert basket.column(TS_COLUMN).to_list() == [2]

    def test_concurrent_appends(self, basket):
        def writer(start):
            for i in range(100):
                basket.append_rows([(start + i, float(i))])

        threads = [threading.Thread(target=writer, args=(k * 1000,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert basket.count == 400
        assert basket.appended_total == 400
