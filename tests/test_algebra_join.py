"""Unit and property tests for join operators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import TypeMismatchError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.algebra.join import antijoin, join, semijoin

from conftest import int_bat, str_bat


def pairs(left, right):
    lo, ro = join(left, right)
    return sorted(zip(lo.to_list(), ro.to_list()))


class TestEquiJoin:
    def test_many_to_many(self):
        left = int_bat([1, 2, 2, 3])
        right = int_bat([2, 2, 4, 1])
        assert pairs(left, right) == [(0, 3), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_absolute_oids(self):
        left = int_bat([1, 2], hseq=10)
        right = int_bat([2, 1], hseq=20)
        assert pairs(left, right) == [(10, 21), (11, 20)]

    def test_no_matches(self):
        assert pairs(int_bat([1, 2]), int_bat([3, 4])) == []

    def test_empty_inputs(self):
        assert pairs(BAT.empty(Atom.INT), int_bat([1])) == []
        assert pairs(int_bat([1]), BAT.empty(Atom.INT)) == []

    def test_string_join(self):
        left = str_bat(["a", "b"])
        right = str_bat(["b", "b", "c"])
        assert pairs(left, right) == [(1, 0), (1, 1)]

    def test_mixed_numeric_ok(self):
        lo, ro = join(int_bat([1, 2]), BAT.from_values([2.0], Atom.FLT))
        assert list(zip(lo.to_list(), ro.to_list())) == [(1, 0)]

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatchError):
            join(int_bat([1]), str_bat(["a"]))

    @given(
        st.lists(st.integers(0, 8), max_size=40),
        st.lists(st.integers(0, 8), max_size=40),
    )
    def test_matches_nested_loop(self, left_values, right_values):
        got = pairs(int_bat(left_values), int_bat(right_values))
        expected = sorted(
            (i, j)
            for i, lv in enumerate(left_values)
            for j, rv in enumerate(right_values)
            if lv == rv
        )
        assert got == expected

    @given(
        st.lists(st.integers(-3, 8) | st.integers(-(2**62), 2**62), max_size=40),
        st.lists(st.integers(-3, 8) | st.integers(-(2**62), 2**62), max_size=40),
    )
    def test_output_in_nested_loop_order(self, left_values, right_values):
        """Left position major, right position minor: the batched join
        splits one run by tag and needs each pair's rows in this order."""
        lo, ro = join(int_bat(left_values), int_bat(right_values))
        expected = [
            (i, j)
            for i, lv in enumerate(left_values)
            for j, rv in enumerate(right_values)
            if lv == rv
        ]
        assert list(zip(lo.to_list(), ro.to_list())) == expected

    @given(
        st.lists(st.sampled_from(["a", "b", "c"]), max_size=20),
        st.lists(st.sampled_from(["a", "b", "d"]), max_size=20),
    )
    def test_string_output_in_nested_loop_order(self, left_values, right_values):
        lo, ro = join(str_bat(left_values), str_bat(right_values))
        expected = [
            (i, j)
            for i, lv in enumerate(left_values)
            for j, rv in enumerate(right_values)
            if lv == rv
        ]
        assert list(zip(lo.to_list(), ro.to_list())) == expected


class TestSemiAntiJoin:
    def test_semijoin(self):
        assert semijoin(int_bat([1, 2, 3]), int_bat([2, 9])).to_list() == [1]

    def test_semijoin_hseq(self):
        assert semijoin(int_bat([1, 2], hseq=5), int_bat([2])).to_list() == [6]

    def test_antijoin(self):
        assert antijoin(int_bat([1, 2, 3]), int_bat([2])).to_list() == [0, 2]

    def test_antijoin_empty_right_keeps_all(self):
        assert antijoin(int_bat([1, 2], hseq=3), BAT.empty(Atom.INT)).to_list() == [3, 4]

    def test_empty_left(self):
        assert semijoin(BAT.empty(Atom.INT), int_bat([1])).to_list() == []
        assert antijoin(BAT.empty(Atom.INT), int_bat([1])).to_list() == []
