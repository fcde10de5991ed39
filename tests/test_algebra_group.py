"""Unit and property tests for grouping operators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import AlignmentError, KernelError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.algebra.group import distinct, group, group_values

from conftest import int_bat, str_bat


class TestSingleKeyGroup:
    def test_dense_ids_in_value_order(self):
        g = group([int_bat([3, 1, 3, 2, 1])])
        assert g.gids.to_list() == [2, 0, 2, 1, 0]
        assert g.ngroups == 3
        # extents: first occurrence per (sorted) group value
        assert g.extents.to_list() == [1, 3, 0]

    def test_group_values(self):
        keys = int_bat([3, 1, 3, 2, 1])
        g = group([keys])
        assert group_values(g, keys).to_list() == [1, 2, 3]

    def test_empty(self):
        g = group([BAT.empty(Atom.INT)])
        assert g.ngroups == 0
        assert g.gids.to_list() == []

    def test_strings(self):
        g = group([str_bat(["b", "a", "b"])])
        assert g.ngroups == 2
        assert g.gids.to_list() == [1, 0, 1]

    def test_hseq_extents_absolute(self):
        g = group([int_bat([5, 5, 6], hseq=10)])
        assert g.extents.to_list() == [10, 12]

    def test_no_keys_raises(self):
        with pytest.raises(KernelError):
            group([])


class TestMultiKeyGroup:
    def test_two_keys(self):
        k1 = int_bat([1, 1, 2, 2, 1])
        k2 = int_bat([0, 1, 0, 0, 0])
        g = group([k1, k2])
        assert g.ngroups == 3
        # rows 0 and 4 share a group; rows 2,3 share a group.
        gids = g.gids.to_list()
        assert gids[0] == gids[4]
        assert gids[2] == gids[3]
        assert len({gids[0], gids[1], gids[2]}) == 3

    def test_misaligned_keys_raise(self):
        with pytest.raises(AlignmentError):
            group([int_bat([1, 2]), int_bat([1, 2, 3])])

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=60
        )
    )
    def test_matches_python_grouping(self, rows):
        k1 = int_bat([a for a, __ in rows])
        k2 = int_bat([b for __, b in rows])
        g = group([k1, k2])
        expected_groups = sorted(set(rows))
        assert g.ngroups == len(expected_groups)
        gids = g.gids.to_list()
        mapping: dict = {}
        for row, gid in zip(rows, gids):
            assert mapping.setdefault(row, gid) == gid


    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3) | st.integers(-(2**62), 2**62),
                st.integers(0, 5),
                st.integers(-2, 2),
            ),
            max_size=60,
        )
    )
    def test_ids_in_key_order_with_first_extents(self, rows):
        """Group ids ascend in lexicographic key order and each extent is
        the group's first row — whether the keys fit one int64 code or
        (huge spans) are factorized one by one."""
        self._check_first_extents(rows)

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(-1, 1)), min_size=6, max_size=60
        )
    )
    def test_dense_codes_counted_not_sorted(self, rows):
        """Key spans whose product is at most the row count: same ids and
        extents from the counting path."""
        self._check_first_extents(rows)

    @staticmethod
    def _check_first_extents(rows):
        width = len(rows[0]) if rows else 2
        keys = [int_bat([row[i] for row in rows]) for i in range(width)]
        g = group(keys)
        order = sorted(set(rows))
        assert g.gids.to_list() == [order.index(row) for row in rows]
        assert g.extents.to_list() == [rows.index(row) for row in order]
        assert g.ngroups == len(order)


class TestDistinct:
    def test_sorted_unique(self):
        assert distinct(int_bat([3, 1, 3, 2])).to_list() == [1, 2, 3]

    def test_empty(self):
        assert distinct(BAT.empty(Atom.INT)).to_list() == []
