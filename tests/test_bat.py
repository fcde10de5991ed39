"""Unit tests for BATs and the append builder."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import AlignmentError, KernelError, TypeMismatchError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT, BATBuilder, require_aligned, require_same_atom


class TestConstruction:
    def test_from_values(self):
        b = BAT.from_values([1, 2, 3], Atom.INT)
        assert b.count == 3
        assert b.to_list() == [1, 2, 3]

    def test_from_array_infers_atom(self):
        b = BAT.from_array(np.array([1.0, 2.0]))
        assert b.atom == Atom.FLT

    def test_from_array_coerces_dtype(self):
        b = BAT.from_array(np.array([1, 2], dtype=np.int32), Atom.INT)
        assert b.tail.dtype == np.int64

    def test_empty(self):
        b = BAT.empty(Atom.STR)
        assert b.is_empty()
        assert len(b) == 0

    def test_dense_oids(self):
        b = BAT.dense_oids(5, 3)
        assert b.to_list() == [5, 6, 7]
        assert b.atom == Atom.OID

    def test_two_dimensional_tail_rejected(self):
        with pytest.raises(KernelError):
            BAT(np.zeros((2, 2)), Atom.FLT)


class TestHeadAlignment:
    def test_hrange(self):
        b = BAT.from_values([10, 20], Atom.INT, hseq=7)
        assert b.hrange == (7, 9)

    def test_positions_of(self):
        b = BAT.from_values([10, 20, 30], Atom.INT, hseq=5)
        assert b.positions_of(np.array([5, 7])).tolist() == [0, 2]

    def test_positions_of_out_of_range(self):
        b = BAT.from_values([10], Atom.INT, hseq=5)
        with pytest.raises(AlignmentError):
            b.positions_of(np.array([4]))
        with pytest.raises(AlignmentError):
            b.positions_of(np.array([6]))

    def test_slice_keeps_alignment(self):
        b = BAT.from_values([1, 2, 3, 4], Atom.INT, hseq=10)
        s = b.slice(1, 3)
        assert s.to_list() == [2, 3]
        assert s.hseq == 11

    def test_slice_clamps(self):
        b = BAT.from_values([1, 2], Atom.INT)
        assert b.slice(-5, 99).to_list() == [1, 2]
        assert b.slice(3, 1).to_list() == []

    def test_rebase(self):
        b = BAT.from_values([1], Atom.INT, hseq=0)
        assert b.rebase(42).hseq == 42

    def test_require_aligned(self):
        a = BAT.from_values([1, 2], Atom.INT, hseq=3)
        b = BAT.from_values([5, 6], Atom.INT, hseq=3)
        require_aligned(a, b)  # no raise
        with pytest.raises(AlignmentError):
            require_aligned(a, b.rebase(4))

    def test_require_same_atom(self):
        a = BAT.from_values([1], Atom.INT)
        with pytest.raises(TypeMismatchError):
            require_same_atom(a, BAT.from_values([1.0], Atom.FLT))


class TestBuilder:
    def test_append_and_snapshot(self):
        builder = BATBuilder(Atom.INT)
        for i in range(100):
            builder.append(i)
        snap = builder.snapshot()
        assert snap.to_list() == list(range(100))

    def test_extend_bulk(self):
        builder = BATBuilder(Atom.FLT)
        builder.extend(np.arange(5, dtype=np.float64))
        builder.extend([9.5])
        assert builder.snapshot().to_list() == [0.0, 1.0, 2.0, 3.0, 4.0, 9.5]

    @given(st.lists(st.lists(st.integers(-5, 5), max_size=20), max_size=20))
    def test_interleaved_extends(self, chunks):
        builder = BATBuilder(Atom.INT)
        expected: list[int] = []
        for chunk in chunks:
            builder.extend(chunk)
            expected.extend(chunk)
        assert builder.snapshot().to_list() == expected
