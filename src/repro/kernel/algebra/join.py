"""Join operators.

The kernel implements a vectorized equi-join: the right side is sorted once,
then every left value locates its run of matches by binary search and the
(left, right) oid pairs are expanded with ``np.repeat`` arithmetic — the
numpy equivalent of a hash join's build/probe with full many-to-many output.
Dense integer keys are first narrowed to the values both sides share.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TypeMismatchError
from repro.kernel.atoms import Atom, is_numeric
from repro.kernel.bat import BAT


def _match_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (left_pos, right_pos) pairs with equal values.

    Pairs come ordered by left position, then right position: the batched
    join splits one run's output by seq tag and relies on each tag pair's
    rows coming out as a join of that pair alone would emit them.
    """
    if len(left) == 0 or len(right) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if _dense_ints(left, right):
        # Only values present on both sides can match.  Narrowing first by
        # a table lookup keeps the sort below proportional to the
        # candidates, not the inputs; the kept rows stay in position
        # order, so the output order holds.
        left_rows = np.flatnonzero(np.isin(left, right, kind="table"))
        right_rows = np.flatnonzero(np.isin(right, left, kind="table"))
        left_pos, right_pos = _sorted_match(left[left_rows], right[right_rows])
        return left_rows[left_pos], right_rows[right_pos]
    return _sorted_match(left, right)


def _dense_ints(left: np.ndarray, right: np.ndarray) -> bool:
    """Integer keys whose value ranges each span fewer values than both
    sides have rows: a membership table is then no larger than the input."""
    if left.dtype.kind not in "iu" or right.dtype.kind not in "iu":
        return False
    rows = len(left) + len(right)
    return all(int(side.max()) - int(side.min()) < rows for side in (left, right))


def _sorted_match(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_match_pairs` by a stable sort of the right side and binary
    search of every left value."""
    empty = np.empty(0, dtype=np.int64)
    if len(left) == 0 or len(right) == 0:
        return empty, empty
    order = np.argsort(right, kind="stable")
    sorted_right = right[order]
    lo = np.searchsorted(sorted_right, left, side="left")
    hi = np.searchsorted(sorted_right, left, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    left_pos = np.repeat(np.arange(len(left), dtype=np.int64), counts)
    # For left row i, its matches live at sorted positions lo[i] .. hi[i)-1.
    starts = np.repeat(counts.cumsum() - counts, counts)
    within = np.arange(total, dtype=np.int64) - starts
    right_sorted_pos = np.repeat(lo, counts) + within
    right_pos = order[right_sorted_pos]
    return left_pos, right_pos


def join(left: BAT, right: BAT) -> tuple[BAT, BAT]:
    """Inner equi-join on tail values.

    Returns two head-aligned OID BATs ``(loids, roids)``: row ``k`` of the
    result pairs left oid ``loids[k]`` with right oid ``roids[k]``.
    """
    if left.atom != right.atom and not (is_numeric(left.atom) and is_numeric(right.atom)):
        raise TypeMismatchError(f"join atoms differ: {left.atom} vs {right.atom}")
    left_pos, right_pos = _match_pairs(left.tail, right.tail)
    loids = BAT(left_pos + left.hseq, Atom.OID)
    roids = BAT(right_pos + right.hseq, Atom.OID)
    return loids, roids


def semijoin(left: BAT, right: BAT) -> BAT:
    """Left oids having at least one match on the right (EXISTS)."""
    if len(left) == 0 or len(right) == 0:
        return BAT.empty(Atom.OID)
    mask = np.isin(left.tail, right.tail)
    return BAT(np.flatnonzero(mask).astype(np.int64) + left.hseq, Atom.OID)


def antijoin(left: BAT, right: BAT) -> BAT:
    """Left oids having no match on the right (NOT EXISTS)."""
    if len(left) == 0:
        return BAT.empty(Atom.OID)
    if len(right) == 0:
        return BAT(np.arange(left.hseq, left.hseq + len(left), dtype=np.int64), Atom.OID)
    mask = ~np.isin(left.tail, right.tail)
    return BAT(np.flatnonzero(mask).astype(np.int64) + left.hseq, Atom.OID)
