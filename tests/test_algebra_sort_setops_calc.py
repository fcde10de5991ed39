"""Unit tests for ordering, set, and calculator operators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import KernelError, TypeMismatchError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.algebra.calc import (
    arith,
    compare,
    constant_column,
    divide,
    logic_and,
    logic_not,
    logic_or,
    negate,
)
from repro.kernel.algebra.setops import append, concat, slice_bat
from repro.kernel.algebra.sort import firstn, sort, sort_refine

from conftest import flt_bat, int_bat, str_bat


class TestSort:
    def test_ascending(self):
        values, order = sort(int_bat([3, 1, 2]))
        assert values.to_list() == [1, 2, 3]
        assert order.to_list() == [1, 2, 0]

    def test_descending(self):
        values, order = sort(int_bat([3, 1, 2]), descending=True)
        assert values.to_list() == [3, 2, 1]
        assert order.to_list() == [0, 2, 1]

    def test_stable(self):
        __, order = sort(int_bat([2, 1, 2, 1]))
        assert order.to_list() == [1, 3, 0, 2]

    def test_order_absolute_oids(self):
        __, order = sort(int_bat([5, 3], hseq=7))
        assert order.to_list() == [8, 7]

    def test_refine_multi_key(self):
        # ORDER BY k1, k2: sort by k2 first, refine by k1 (stable).
        k1 = int_bat([1, 0, 1, 0])
        k2 = int_bat([5, 9, 3, 7])
        __, order = sort(k2)
        order = sort_refine(order, k1)
        assert order.to_list() == [3, 1, 2, 0]

    def test_firstn(self):
        assert firstn(int_bat([5, 1, 3]), 2).to_list() == [1, 2]
        assert firstn(int_bat([5, 1, 3]), 2, descending=True).to_list() == [0, 2]


class TestSetOps:
    def test_concat(self):
        out = concat([int_bat([1, 2]), int_bat([3]), int_bat([])])
        assert out.to_list() == [1, 2, 3]

    def test_concat_copies_single_part(self):
        base = int_bat([1, 2])
        out = concat([base])
        assert out.to_list() == [1, 2]
        assert out.tail is not base.tail

    def test_concat_empty_list_raises(self):
        with pytest.raises(KernelError):
            concat([])

    def test_concat_type_mismatch(self):
        with pytest.raises(TypeMismatchError):
            concat([int_bat([1]), flt_bat([1.0])])

    def test_concat_all_empty(self):
        out = concat([BAT.empty(Atom.INT), BAT.empty(Atom.INT)])
        assert out.to_list() == []

    def test_append(self):
        out = append(int_bat([1], hseq=4), int_bat([2, 3]))
        assert out.to_list() == [1, 2, 3]
        assert out.hseq == 4

    def test_slice_bat(self):
        assert slice_bat(int_bat([1, 2, 3, 4]), 1, 3).to_list() == [2, 3]


class TestCalc:
    def test_arith_bat_bat(self):
        out = arith("+", int_bat([1, 2]), int_bat([10, 20]))
        assert out.to_list() == [11, 22]

    def test_arith_bat_scalar(self):
        assert arith("*", int_bat([1, 2]), 3).to_list() == [3, 6]
        assert arith("-", 10, int_bat([1, 2])).to_list() == [9, 8]

    def test_arith_promotes(self):
        out = arith("+", int_bat([1]), flt_bat([0.5]))
        assert out.atom == Atom.FLT

    def test_modulo(self):
        assert arith("%", int_bat([5, 7]), 3).to_list() == [2, 1]

    def test_divide_always_float(self):
        out = divide(int_bat([7, 8]), 2)
        assert out.atom == Atom.FLT
        assert out.to_list() == [3.5, 4.0]

    def test_divide_by_zero_nan(self):
        out = divide(int_bat([1]), int_bat([0]))
        assert np.isnan(out.to_list()[0])

    def test_compare(self):
        out = compare("<", int_bat([1, 5]), 3)
        assert out.atom == Atom.BIT
        assert out.to_list() == [True, False]

    def test_compare_string_with_number_rejected(self):
        with pytest.raises(TypeMismatchError):
            compare("==", str_bat(["a"]), 1)

    def test_logic(self):
        a = BAT.from_values([True, True, False], Atom.BIT)
        b = BAT.from_values([True, False, False], Atom.BIT)
        assert logic_and(a, b).to_list() == [True, False, False]
        assert logic_or(a, b).to_list() == [True, True, False]
        assert logic_not(a).to_list() == [False, False, True]

    def test_logic_requires_bit(self):
        with pytest.raises(TypeMismatchError):
            logic_and(int_bat([1]), int_bat([1]))

    def test_negate(self):
        assert negate(int_bat([1, -2])).to_list() == [-1, 2]
        with pytest.raises(TypeMismatchError):
            negate(str_bat(["a"]))

    def test_misaligned_operands(self):
        from repro.errors import AlignmentError

        with pytest.raises(AlignmentError):
            arith("+", int_bat([1, 2]), int_bat([1], hseq=1))

    def test_constant_column(self):
        out = constant_column(7, Atom.INT, 3)
        assert out.to_list() == [7, 7, 7]
        out = constant_column("x", Atom.STR, 2)
        assert out.to_list() == ["x", "x"]

    def test_needs_a_bat(self):
        with pytest.raises(KernelError):
            arith("+", 1, 2)

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=50),
        st.integers(-100, 100),
    )
    def test_add_scalar_matches_python(self, values, scalar):
        out = arith("+", int_bat(values), scalar)
        assert out.to_list() == [v + scalar for v in values]
