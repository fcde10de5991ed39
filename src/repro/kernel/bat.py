"""Binary Association Tables (BATs) — the kernel's only collection type.

A BAT models MonetDB's column representation: a *virtual* head of densely
increasing object identifiers (oids) starting at ``hseq``, and a *tail*
holding the actual values in a numpy array.  Every relational table is a set
of head-aligned BATs, one per attribute; every operator result is again a
BAT, which is what lets DataCell cache and reuse intermediates at arbitrary
points of a query plan.

Design notes
------------
* Tails are immutable by convention: operators never mutate an input tail,
  they allocate a new one.  ``np.ndarray.setflags`` is not used so that
  zero-copy slicing (``BAT.slice``) stays cheap; "we are all responsible
  users".
* Candidate lists (selection results) are plain OID BATs whose *tail* holds
  absolute oids into some other BAT.  ``materialize_oids`` + subtraction of
  ``hseq`` turns them into positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import AlignmentError, KernelError, TypeMismatchError
from repro.kernel.atoms import Atom, numpy_dtype


@dataclass(frozen=True)
class BAT:
    """An immutable column: virtual oid head + numpy tail.

    Attributes
    ----------
    tail:
        The values, as a 1-D numpy array.
    atom:
        Logical scalar type of the tail.
    hseq:
        First head oid.  Row ``i`` of the tail is associated with oid
        ``hseq + i``.
    """

    tail: np.ndarray
    atom: Atom
    hseq: int = 0

    def __post_init__(self) -> None:
        if self.tail.ndim != 1:
            raise KernelError("BAT tail must be one-dimensional")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_values(values: Iterable, atom: Atom, hseq: int = 0) -> "BAT":
        """Build a BAT from a Python iterable, coercing to the atom dtype."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                         dtype=numpy_dtype(atom))
        return BAT(arr, atom, hseq)

    @staticmethod
    def from_array(arr: np.ndarray, atom: Atom | None = None, hseq: int = 0) -> "BAT":
        """Wrap an existing numpy array (no copy) as a BAT."""
        if atom is None:
            from repro.kernel.atoms import atom_of_dtype

            atom = atom_of_dtype(arr.dtype)
        expected = numpy_dtype(atom)
        if arr.dtype != expected:
            arr = arr.astype(expected)
        return BAT(arr, atom, hseq)

    @staticmethod
    def empty(atom: Atom, hseq: int = 0) -> "BAT":
        """An empty BAT of the given atom."""
        return BAT(np.empty(0, dtype=numpy_dtype(atom)), atom, hseq)

    @staticmethod
    def dense_oids(first: int, count: int, hseq: int = 0) -> "BAT":
        """A candidate list covering oids ``first .. first+count-1``."""
        return BAT(np.arange(first, first + count, dtype=np.int64), Atom.OID, hseq)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.tail.shape[0])

    @property
    def count(self) -> int:
        """Number of rows (MonetDB: BATcount)."""
        return len(self)

    @property
    def hrange(self) -> tuple[int, int]:
        """Half-open head oid range ``[hseq, hseq + count)``."""
        return (self.hseq, self.hseq + len(self))

    def is_empty(self) -> bool:
        return len(self) == 0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def value(self, position: int):
        """Tail value at a 0-based position."""
        return self.tail[position]

    def positions_of(self, oids: np.ndarray) -> np.ndarray:
        """Translate absolute head oids into 0-based tail positions."""
        positions = np.asarray(oids, dtype=np.int64) - self.hseq
        if len(positions) and (positions.min() < 0 or positions.max() >= len(self)):
            raise AlignmentError(
                f"oids out of range for BAT with hrange {self.hrange}"
            )
        return positions

    def slice(self, start: int, stop: int) -> "BAT":
        """Zero-copy view of positions ``[start, stop)``.

        The slice keeps head alignment: its ``hseq`` is shifted so the
        surviving rows keep their original oids.
        """
        start = max(0, start)
        stop = min(len(self), stop)
        if stop < start:
            stop = start
        return BAT(self.tail[start:stop], self.atom, self.hseq + start)

    def rebase(self, hseq: int) -> "BAT":
        """Same tail, new head sequence base."""
        return BAT(self.tail, self.atom, hseq)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def to_list(self) -> list:
        """Tail values as a Python list (tests and emitters)."""
        return self.tail.tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(repr(v) for v in self.tail[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return (
            f"BAT({self.atom.value}, hseq={self.hseq}, count={len(self)}, "
            f"[{preview}{suffix}])"
        )


def require_same_atom(left: BAT, right: BAT) -> Atom:
    """Assert two BATs share an atom and return it."""
    if left.atom != right.atom:
        raise TypeMismatchError(f"atom mismatch: {left.atom} vs {right.atom}")
    return left.atom


def require_aligned(left: BAT, right: BAT) -> None:
    """Assert two BATs are head-aligned (same hseq and count)."""
    if left.hseq != right.hseq or len(left) != len(right):
        raise AlignmentError(
            f"BATs not aligned: {left.hrange} vs {right.hrange}"
        )


@dataclass
class BATBuilder:
    """Amortized append buffer used by base tables.

    Appending to an immutable BAT would be O(n) per append; the builder
    keeps a growable numpy buffer and snapshots to an immutable BAT view on
    demand.
    """

    atom: Atom
    _buffer: np.ndarray = field(init=False, repr=False)
    _length: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._buffer = np.empty(16, dtype=numpy_dtype(self.atom))

    def __len__(self) -> int:
        return self._length

    def _grow_to(self, needed: int) -> None:
        capacity = len(self._buffer)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        new = np.empty(capacity, dtype=numpy_dtype(self.atom))
        new[: self._length] = self._buffer[: self._length]
        self._buffer = new

    def append(self, value) -> None:
        """Append one scalar."""
        self._grow_to(self._length + 1)
        self._buffer[self._length] = value
        self._length += 1

    def extend(self, values: Sequence | np.ndarray) -> None:
        """Append many values at once (the bulk path)."""
        arr = np.asarray(values, dtype=numpy_dtype(self.atom))
        self._grow_to(self._length + len(arr))
        self._buffer[self._length : self._length + len(arr)] = arr
        self._length += len(arr)

    def snapshot(self) -> BAT:
        """An immutable BAT view over the current contents (zero copy)."""
        return BAT(self._buffer[: self._length], self.atom)

