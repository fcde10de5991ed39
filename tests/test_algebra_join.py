"""Unit and property tests for join operators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.errors import TypeMismatchError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.algebra.join import (
    _codes,
    _counting_match,
    _match_pairs,
    _sorted_match,
    antijoin,
    join,
    semijoin,
)

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


#: Key bases per dtype: negative keys, keys at ±2**62 and uint64 keys
#: beyond the int64 range.
DENSE_BASES = {
    np.int64: [-(2**62), -40, 0, 2**62 - 100],
    np.uint64: [0, 2**63 + 5, 2**64 - 100],
}


@st.composite
def dense_sides(draw):
    """Two same-dtype key columns over narrow value ranges, the right one
    shifted against the left (by more than the width: disjoint)."""
    dtype = draw(st.sampled_from(sorted(DENSE_BASES, key=str)))
    base = draw(st.sampled_from(DENSE_BASES[dtype]))
    width = draw(st.integers(1, 12))
    shift = draw(st.integers(0, 2 * width))
    offsets = st.lists(st.integers(0, width - 1), min_size=1, max_size=60)
    sides = [
        np.array([base + offset for offset in draw(offsets)], dtype=dtype),
        np.array([base + shift + offset for offset in draw(offsets)], dtype=dtype),
    ]
    if draw(st.booleans()):
        sides.reverse()
    return sides


def counted(left, right):
    """:func:`_counting_match` over the union of the two key ranges."""
    lo = min(int(left.min()), int(right.min()))
    span = max(int(left.max()), int(right.max())) - lo + 1
    return _counting_match(_codes(left, lo), _codes(right, lo), span)


class TestCountingMatch:
    @given(dense_sides())
    @example([np.full(30, 7), np.full(40, 7)])  # one key: quadratic output
    @example([np.array([3]), np.arange(20) % 5])  # a 1-row side
    @example([np.arange(10), np.arange(10) + 10])  # empty intersection
    @example([np.array([-5, -3, -3]), np.array([-3, -4, -3, -5])])
    def test_equals_the_sorted_match_in_order(self, sides):
        left, right = sides
        expected = _sorted_match(left, right)
        for got in (counted(left, right), _match_pairs(left, right)):
            assert got[0].tolist() == expected[0].tolist()
            assert got[1].tolist() == expected[1].tolist()

    def test_span_beyond_16_bits(self):
        left = np.arange(70_000, dtype=np.int64) % 68_000
        right = np.arange(70_000, dtype=np.int64)[::-1]
        expected = _sorted_match(left, right)
        for got in (counted(left, right), _match_pairs(left, right)):
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("gap", [2**20, 2**62])
    def test_far_apart_sides_allocate_no_table_over_the_gap(self, gap):
        left = np.arange(100, dtype=np.int64)
        right = left[::-1] + gap
        tracemalloc.start()
        try:
            lo, ro = join(BAT(left, Atom.INT), BAT(right, Atom.INT))
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lo) == len(ro) == 0
        assert peak < 1 << 20

    def test_dense_keys_are_never_binary_searched(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense keys went through np.searchsorted")

        monkeypatch.setattr(np, "searchsorted", refuse)
        lo, ro = join(int_bat([3, 1, 2, 3]), int_bat([3, 3, 2, 0]))
        assert list(zip(lo.to_list(), ro.to_list())) == [
            (0, 0), (0, 1), (2, 2), (3, 0), (3, 1)
        ]

    def test_only_right_rows_whose_key_the_left_has_are_sorted(self, monkeypatch):
        sorted_lengths = []
        argsort = np.argsort

        def spy(values, *args, **kwargs):
            sorted_lengths.append(len(values))
            return argsort(values, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        right = np.arange(1000, dtype=np.int64) % 500
        # The left keys span the right's whole range, so only narrowing
        # by key — not the shared range — leaves 6 of 1 000 right rows.
        lo, ro = join(int_bat([499, 5, 0]), BAT(right, Atom.INT))
        assert list(zip(lo.to_list(), ro.to_list())) == [
            (0, 499), (0, 999), (1, 5), (1, 505), (2, 0), (2, 500)
        ]
        assert sorted_lengths == [6]


#: Key bases per dtype for the delta join: far apart, so two sides
#: drawn at different bases do not overlap.
DELTA_BASES = {
    np.int64: [-(2**62), -40, 0, 2**40],
    np.uint64: [0, 2**63 + 5],
    np.float64: [-1e6, 0.0, 0.5],
}


@st.composite
def delta_sides(draw):
    """Two same-dtype key columns, dense, overlapping, far apart or
    empty (floats with NaN), and each side's first new row."""
    dtype = draw(st.sampled_from(sorted(DELTA_BASES, key=str)))
    width = draw(st.integers(1, 12))
    sides = []
    for __ in range(2):
        base = draw(st.sampled_from(DELTA_BASES[dtype]))
        offsets = draw(st.lists(st.integers(0, width - 1), max_size=40))
        side = np.array([base + offset for offset in offsets], dtype=dtype)
        if dtype is np.float64 and len(side) and draw(st.booleans()):
            side[draw(st.integers(0, len(side) - 1))] = np.nan
        sides.append(side)
    left, right = sides
    firsts = [draw(st.integers(0, len(side))) for side in sides]
    return left, right, firsts[0], firsts[1]


def as_pairs(pairs):
    return list(zip(pairs[0].tolist(), pairs[1].tolist()))


class TestDeltaJoin:
    @given(delta_sides())
    @example((np.arange(6) % 3, np.arange(4) % 3, 4, 2))
    @example((np.full(5, 9), np.full(3, 9), 0, 3))  # no older left rows
    @example((np.full(5, 9), np.full(3, 9), 5, 3))  # nothing new
    def test_old_left_new_right_then_new_left_all_right(self, sides):
        """The delta pairs are the older left rows joined with the new
        right rows, then the new left rows joined with every right row,
        each in ``_match_pairs`` order — and exactly the nested-loop pairs
        with a new row on either side."""
        left, right, left_new, right_new = sides
        old = _match_pairs(left[:left_new], right[right_new:])
        new = _match_pairs(left[left_new:], right)
        expected = [(i, j + right_new) for i, j in as_pairs(old)]
        expected += [(i + left_new, j) for i, j in as_pairs(new)]
        got = _match_pairs(left, right, left_new, right_new)
        assert as_pairs(got) == expected
        assert expected == [
            (i, j)
            for i, lv in enumerate(left.tolist())
            for j, rv in enumerate(right.tolist())
            if lv == rv and (i >= left_new or j >= right_new)
        ]
        plain = _match_pairs(left, right)
        assert as_pairs(_match_pairs(left, right, 0, right_new)) == as_pairs(plain)
        atom = Atom.FLT if left.dtype.kind == "f" else Atom.INT
        lo, ro = join(BAT(left, atom), BAT(right, atom), left_new, right_new)
        assert list(zip(lo.to_list(), ro.to_list())) == expected

    def test_the_large_side_is_scanned_once(self, monkeypatch):
        """Dense keys: the new rows are counted and each side's older
        rows gathered over once — no sort of a large side."""
        left = np.arange(3000, dtype=np.int64) % 1000
        right = np.arange(3000, dtype=np.int64)[::-1] % 1000
        expected = [
            (i, j) for i, j in as_pairs(_sorted_match(left, right)) if i >= 2900 or j >= 2900
        ]
        sorted_lengths = []
        argsort = np.argsort

        def spy(values, *args, **kwargs):
            sorted_lengths.append(len(values))
            return argsort(values, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        assert as_pairs(_match_pairs(left, right, 2900, 2900)) == expected
        # One sort, of the 300 right rows whose key one of the 100 new left
        # rows has and the 100 new right rows.
        assert sorted_lengths == [400]


class TestNanKeys:
    """NaN is the engine's in-band NULL: a NaN key equals nothing, not
    even another NaN, as ``semijoin`` (``np.isin``) and ``calc.==`` say."""

    def test_nan_matches_nothing(self):
        left = BAT(np.array([np.nan, 1.0, np.nan, 2.0]), Atom.FLT)
        right = BAT(np.array([np.nan, 2.0, 1.0, np.nan]), Atom.FLT)
        lo, ro = join(left, right)
        assert list(zip(lo.to_list(), ro.to_list())) == [(1, 2), (3, 1)]
        assert semijoin(left, right).to_list() == [1, 3]

    def test_nan_against_integers(self):
        lo, ro = join(BAT(np.array([np.nan, 3.0]), Atom.FLT), int_bat([3, 4]))
        assert list(zip(lo.to_list(), ro.to_list())) == [(1, 0)]
        lo, ro = join(int_bat([3, 4]), BAT(np.array([3.0, np.nan]), Atom.FLT))
        assert list(zip(lo.to_list(), ro.to_list())) == [(0, 0)]


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
