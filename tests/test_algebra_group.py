"""Unit and property tests for grouping operators."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import AlignmentError, KernelError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.algebra.group import distinct, group, group_values

from conftest import int_bat, str_bat

#: Per-atom value strategies: a small pool (so rows repeat) or anything.
_VALUES = {
    Atom.INT: st.integers(-3, 3)
    | st.sampled_from([-(2**62), 2**62, -(2**63), 2**63 - 1])
    | st.integers(-(2**63), 2**63 - 1),
    Atom.BIT: st.booleans(),
    Atom.FLT: st.sampled_from([-1.5, -0.0, 0.0, 2.0, math.nan, math.inf]) | st.floats(),
    Atom.STR: st.sampled_from(["", "a", "b", "ab"]) | st.text(max_size=3),
}


@st.composite
def _mixed_rows(draw):
    """(atoms, rows): one to three key columns of INT/BIT/FLT/STR."""
    atoms = draw(st.lists(st.sampled_from(list(_VALUES)), min_size=1, max_size=3))
    row = st.tuples(*(_VALUES[atom] for atom in atoms))
    return atoms, draw(st.lists(row, max_size=40))


def _norm(value):
    """Oracle sort key: NaNs are one value, sorting after every float."""
    if isinstance(value, float) and math.isnan(value):
        return (1, 0.0)
    return (0, value)


def _columns(rows, atoms):
    return [
        BAT.from_values([row[i] for row in rows], atom) for i, atom in enumerate(atoms)
    ]


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

    @given(_mixed_rows())
    def test_mixed_atoms_match_sorted_set(self, drawn):
        """One to three keys of INT (incl. ±2**62 and the int64 extremes),
        BIT, FLT (incl. NaN) and STR: ids ascend in lexicographic key
        order, extents are first rows, and ``distinct`` of each column is
        its sorted value set."""
        atoms, rows = drawn
        self._check_first_extents(rows, atoms)
        for key, atom in zip(_columns(rows, atoms), atoms):
            expected = sorted({_norm(v) for v in key.tail.tolist()})
            got = distinct(key)
            assert got.atom == atom and got.tail.dtype == key.tail.dtype
            assert [_norm(v) for v in got.tail.tolist()] == expected

    @staticmethod
    def _check_first_extents(rows, atoms=None):
        atoms = atoms or [Atom.INT] * (len(rows[0]) if rows else 2)
        g = group(_columns(rows, atoms))
        normed = [tuple(_norm(v) for v in row) for row in rows]
        order = sorted(set(normed))
        rank = {row: i for i, row in enumerate(order)}
        assert g.gids.to_list() == [rank[row] for row in normed]
        assert g.extents.to_list() == [normed.index(row) for row in order]
        assert g.ngroups == len(order)


class TestDistinct:
    def test_sorted_unique(self):
        assert distinct(int_bat([3, 1, 3, 2])).to_list() == [1, 2, 3]

    def test_empty(self):
        assert distinct(BAT.empty(Atom.INT)).to_list() == []

    def test_bits_stay_bits(self):
        out = distinct(BAT.from_values([True, True, False], Atom.BIT))
        assert out.tail.dtype == np.bool_ and out.to_list() == [False, True]


def _span_rows(n, span, low, rng):
    """``n`` values in ``[low, low + span)`` that reach both ends."""
    values = low + rng.integers(0, span, n)
    values[:2] = low, low + span - 1
    return values


class TestCountingPath:
    """The counting rule: a code whose span is at most the row count is
    counted, a sparser one sorted — with the same ids and extents."""

    @pytest.mark.parametrize("low", [-(2**62), -7, 0, 2**62 - 64])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_single_key_around_threshold(self, low, delta):
        n = 48
        values = _span_rows(n, n + delta, low, np.random.default_rng(n + delta))
        TestMultiKeyGroup._check_first_extents([(int(v),) for v in values])
        assert distinct(int_bat(values)).to_list() == sorted(set(values.tolist()))

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_two_keys_around_threshold(self, delta):
        # spans 8 x 6 = 48 rows; one key's span moves the product by 8.
        n = 48 + 8 * delta
        rng = np.random.default_rng(delta + 5)
        first = _span_rows(n, 8, -4, rng)
        second = _span_rows(n, 6 + delta, 2**61, rng)
        TestMultiKeyGroup._check_first_extents(
            [(int(a), int(b)) for a, b in zip(first, second)]
        )

    def test_empty_multi_key(self):
        g = group([BAT.empty(Atom.INT), BAT.empty(Atom.FLT), BAT.empty(Atom.BIT)])
        assert g.ngroups == 0 and g.gids.to_list() == [] and g.extents.to_list() == []

    def test_wide_keys_compress_without_overflow(self):
        """Three keys each spanning 2**63 - 1 (factorized one by one): every
        partial code is compressed before the next key multiplies in."""
        big = [-(2**62), 2**62 - 1, 0]
        rows = [(a, b, c) for a in big for b in big for c in big][::-1] * 2
        TestMultiKeyGroup._check_first_extents(rows)

    def test_key_just_below_the_code_limit_is_compressed_too(self):
        """A key spanning 2**62 - 1 still codes by offset, but even a
        compressed partial code times that span leaves int64, so the key
        is compressed as well."""
        rows = [(a, b) for a in (3, 0, 2, 1) for b in (2**62 - 2, 0)] * 2
        TestMultiKeyGroup._check_first_extents(rows)

    def test_dense_path_never_sorts(self, monkeypatch):
        """Dense integer ``group`` and ``distinct`` must not sort: with
        ``np.unique`` (and numpy's sorts) raising they still succeed, and a
        span one past the row count reaches the sort."""
        keys = int_bat([5, 3, 5, 4, 3, 6, 6, 4])
        stamps = BAT.from_values([2, 2, 3, 2, 3, 3, 2, 3], Atom.TIMESTAMP)
        bits = BAT.from_values([True, False, False, True, True, False, True, True], Atom.BIT)
        full_span = int_bat([7, 0, 1, 2, 3, 4, 5, 6])  # span == rows
        key_sets = [[keys], [bits], [full_span], [keys, stamps], [stamps, bits]]
        expected = [group(key_set) for key_set in key_sets]

        def refuse(*args, **kwargs):
            raise AssertionError("sorted on the counting path")

        for name in ("unique", "sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, refuse)
        for key_set, before in zip(key_sets, expected):
            after = group(key_set)
            assert after.gids.to_list() == before.gids.to_list()
            assert after.extents.to_list() == before.extents.to_list()
        assert distinct(keys).to_list() == [3, 4, 5, 6]
        assert distinct(bits).to_list() == [False, True]
        with pytest.raises(AssertionError, match="counting path"):
            group([int_bat([0, 8, 0, 1, 2, 3, 4, 5])])
        with pytest.raises(AssertionError, match="counting path"):
            group([keys, bits, stamps])


class TestFirstRowPrefix:
    """The counting path finds first rows in a doubling prefix: extents
    equal ``np.unique(..., return_index=True)``'s first rows, on short
    columns (one pass) and long ones, for a group whose only row is the
    last one, and on fully present spans as on gapped ones."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4000),
        st.integers(1, 120),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2),
    )
    def test_extents_are_first_rows(self, seed, n, ngroups, last_only, gapped, skew):
        rng = np.random.default_rng(seed)
        if skew:
            # Rare groups show up late: the prefix has to grow.
            codes = np.minimum(rng.geometric(1 / (4 * skew), n) - 1, ngroups - 1)
        else:
            codes = rng.integers(0, ngroups, n)
        if last_only and ngroups > 1:
            codes = codes % (ngroups - 1)
            codes[-1] = ngroups - 1
        if gapped:
            codes = codes * 2
        hseq = int(rng.integers(0, 1000))
        g = group([BAT(codes.astype(np.int64), Atom.INT, hseq)])
        __, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        assert g.ngroups == len(first)
        assert g.extents.to_list() == (first + hseq).tolist()
        assert g.gids.to_list() == inverse.tolist()

    @pytest.mark.parametrize("n", [7, 8, 9, 31, 32, 33, 65, 640, 641])
    def test_lone_last_row_at_every_prefix_edge(self, n):
        """Four groups: the prefix starts at 16 rows and doubles; the
        fourth group's only row is the last one, wherever that falls."""
        codes = np.arange(n) % 3
        codes[-1] = 3
        g = group([int_bat(codes.tolist())])
        assert g.extents.to_list() == np.unique(codes, return_index=True)[1].tolist()
