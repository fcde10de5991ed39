"""Join operators.

The kernel implements a vectorized equi-join: the right side is put in key
order once, every left value locates its run of matches in it, and the
(left, right) oid pairs are expanded with ``np.repeat`` arithmetic — the
numpy equivalent of a hash join's build/probe with full many-to-many output.
Dense integer keys are matched by counting over the key range both sides
share; other keys by a stable sort and binary search.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import TypeMismatchError
from repro.kernel.atoms import Atom, is_numeric
from repro.kernel.bat import BAT


def _match_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (left_pos, right_pos) pairs with equal values.

    Pairs come ordered by left position, then right position: the batched
    join keeps each seq-tag pair's rows of one run in run order and relies
    on them coming out as a join of that pair alone would emit them.
    """
    if len(left) == 0 or len(right) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if _dense_ints(left, right):
        return _counting_match(left, right)
    return _sorted_match(left, right)


def _dense_ints(left: np.ndarray, right: np.ndarray) -> bool:
    """Integer keys whose value ranges each span fewer values than both
    sides have rows: a count table over their shared range is then no
    larger than the input."""
    if left.dtype.kind not in "iu" or right.dtype.kind not in "iu":
        return False
    rows = len(left) + len(right)
    return all(int(side.max()) - int(side.min()) < rows for side in (left, right))


def _counting_match(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_match_pairs` for dense integer keys, by counting.

    Only keys in the *intersection* of the two value ranges can match, so
    the count tables span that intersection — never the union, which two
    far-apart dense sides would make arbitrarily large.  Each side is
    narrowed to the keys the other side has; the narrowed right rows are
    put in key order by a stable radix sort of their codes (position order
    within a key), so every left row's matches are one contiguous run
    whose start is a prefix sum of the counts.
    """
    empty = np.empty(0, dtype=np.int64)
    (left_lo, left_hi), (right_lo, right_hi) = (
        (int(side.min()), int(side.max())) for side in (left, right)
    )
    lo, hi = max(left_lo, right_lo), min(left_hi, right_hi)
    if lo > hi:
        return empty, empty
    span = hi - lo + 1
    left_rows, left_codes = _codes_in(left, lo, hi, left_lo < lo or left_hi > hi)
    right_rows, right_codes = _codes_in(right, lo, hi, right_lo < lo or right_hi > hi)
    left_has = np.bincount(left_codes, minlength=span) > 0
    right_counts = np.bincount(right_codes, minlength=span)
    left_keep = np.flatnonzero((right_counts > 0)[left_codes])
    if not len(left_keep):
        return empty, empty
    right_keep = np.flatnonzero(left_has[right_codes])
    left_codes = left_codes[left_keep]
    right_codes = right_codes[right_keep]
    # numpy radix-sorts integers of at most 16 bits.
    sort_codes = right_codes.astype(np.uint16) if span <= 1 << 16 else right_codes
    order = right_keep[np.argsort(sort_codes, kind="stable")]
    matched = np.where(left_has, right_counts, 0)
    firsts = matched.cumsum() - matched
    return _expand(
        left_keep if left_rows is None else left_rows[left_keep],
        firsts[left_codes],
        right_counts[left_codes],
        order if right_rows is None else right_rows[order],
    )


def _codes_in(
    side: np.ndarray, lo: int, hi: int, overhangs: bool
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """``side``'s values in ``[lo, hi]`` as codes ``value - lo``, and
    their positions in ``side`` (``None`` when the side does not
    ``overhang`` the range: every row is in it)."""
    rows = None
    if overhangs:
        rows = np.flatnonzero((side >= lo) & (side <= hi))
        side = side[rows]
    return rows, (side - lo).astype(np.intp, copy=False)


def _sorted_match(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_match_pairs` by a stable sort of the right side and binary
    search of every left value."""
    if len(left) == 0 or len(right) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(right, kind="stable")
    sorted_right = right[order]
    lo = np.searchsorted(sorted_right, left, side="left")
    hi = np.searchsorted(sorted_right, left, side="right")
    return _expand(np.arange(len(left), dtype=np.int64), lo, hi - lo, order)


def _expand(
    left_rows: np.ndarray, firsts: np.ndarray, counts: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-left-row match runs into (left_pos, right_pos) pairs.

    Left row ``left_rows[i]`` matches the right positions
    ``order[firsts[i] : firsts[i] + counts[i]]``.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_pos = np.repeat(left_rows, counts)
    starts = np.repeat(counts.cumsum() - counts, counts)
    within = np.arange(total, dtype=np.int64) - starts
    right_pos = order[np.repeat(firsts, counts) + within]
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
