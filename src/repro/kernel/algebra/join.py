"""Join operators.

The kernel implements a vectorized equi-join: every left row locates its
run of matches on the right, and the (left, right) oid pairs are expanded
with ``np.repeat`` arithmetic — the numpy equivalent of a hash join's
build/probe with full many-to-many output.  Dense integer keys are
matched by counting the new rows and scanning each side's older rows
once; other keys by a stable sort and binary search.

An incremental join passes each side's first *new* row: the join then
emits only the pairs with a new row on either side — the bilinear delta
``ΔL ⋈ R + L_old ⋈ ΔR`` of a join whose older pairs are already kept.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TypeMismatchError
from repro.kernel.atoms import Atom, is_numeric
from repro.kernel.bat import BAT

Pairs = tuple[np.ndarray, np.ndarray]


def _no_pairs() -> Pairs:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def _match_pairs(
    left: np.ndarray, right: np.ndarray, left_new: int = 0, right_new: int = 0
) -> Pairs:
    """All (left_pos, right_pos) pairs with equal values and
    ``left_pos >= left_new or right_pos >= right_new``.

    Pairs come ordered by left position, then right position: the batched
    join keeps each seq-tag pair's rows of one run in run order and relies
    on them coming out as a join of that pair alone would emit them.  A
    NaN key matches nothing, as SQL's ``=`` says.
    """
    if len(left) == 0 or len(right) == 0:
        return _no_pairs()
    if left.dtype == right.dtype and left.dtype.kind in "iu":
        (left_lo, left_hi), (right_lo, right_hi) = (
            (int(side.min()), int(side.max())) for side in (left, right)
        )
        if left_hi < right_lo or right_hi < left_lo:
            return _no_pairs()
        lo, hi = min(left_lo, right_lo), max(left_hi, right_hi)
        rows = len(left) + len(right)
        # Dense: a count table over both ranges is no larger than the input
        # (from 0 when it can, which spares the keys a subtraction).
        if hi - lo < rows:
            lo = 0 if 0 <= lo and hi < rows else lo
            return _counting_match(
                _codes(left, lo), _codes(right, lo), hi - lo + 1, left_new, right_new
            )
    return _sorted_delta(left, right, left_new, right_new)


def _sorted_delta(left: np.ndarray, right: np.ndarray, left_new: int, right_new: int) -> Pairs:
    """:func:`_match_pairs` by :func:`_sorted_match`: the older left rows
    with the new right rows, then the new left rows with every right row."""
    new_left, new_right = _sorted_match(left[left_new:], right)
    if not left_new or right_new >= len(right):
        return new_left + left_new, new_right
    old_left, old_right = _sorted_match(left[:left_new], right[right_new:])
    return (
        np.concatenate((old_left, new_left + left_new)),
        np.concatenate((old_right + right_new, new_right)),
    )


def _codes(side: np.ndarray, lo: int) -> np.ndarray:
    """``side``'s integer keys as count-table indices ``value - lo``."""
    return (side - lo if lo else side).astype(np.intp, copy=False)


def _counting_match(
    left: np.ndarray, right: np.ndarray, span: int, left_new: int = 0, right_new: int = 0
) -> Pairs:
    """:func:`_match_pairs` of dense codes in ``[0, span)``, by counting.

    The right rows a left row can match — those whose code a new left row
    has, and the new right rows when there are older left rows — are put
    in code order by a stable radix sort (position order within a code).
    Every new left row's matches are then its code's whole run of them,
    and every older left row's the run's suffix of new right rows.  The
    new rows of each side are counted; each side's other rows are scanned
    once, by one gather and one ``flatnonzero``.
    """
    wanted = _present(left[left_new:], span)[right]
    if left_new:
        wanted[right_new:] = True
    rows = np.flatnonzero(wanted)
    if not len(rows):
        return _no_pairs()
    codes = right[rows]
    # numpy radix-sorts integers of at most 16 bits.
    order = rows[np.argsort(codes.astype(np.uint16) if span <= 1 << 16 else codes, kind="stable")]
    keys = right[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    # Per code: where its run starts, how long it is, and how many of its
    # rows (the last ones) are new.
    firsts, counts = np.empty(span, np.intp), np.zeros(span, np.intp)
    firsts[keys[starts]] = starts
    counts[keys[starts]] = np.diff(starts, append=len(keys))
    fresh = np.bincount(right[right_new:], minlength=span) if left_new else counts
    older = np.flatnonzero((fresh > 0)[left[:left_new]])
    left_rows = np.concatenate(
        (older, np.flatnonzero((counts > 0)[left[left_new:]]) + left_new)
    )
    codes = left[left_rows]
    taken = counts[codes]
    ends = firsts[codes] + taken
    taken[: len(older)] = fresh[codes[: len(older)]]
    return _expand(left_rows, ends - taken, taken, order)


def _present(codes: np.ndarray, span: int) -> np.ndarray:
    """A mask over ``[0, span)`` of the codes ``codes`` holds."""
    mask = np.zeros(span, dtype=bool)
    mask[codes] = True
    return mask


def _sorted_match(left: np.ndarray, right: np.ndarray) -> Pairs:
    """:func:`_match_pairs` by a stable sort of the right side and binary
    search of every left value."""
    if len(left) == 0 or len(right) == 0:
        return _no_pairs()
    order = np.argsort(right, kind="stable")
    sorted_right = right[order]
    if sorted_right.dtype.kind == "f":
        # NaN sorts last; cut off, a NaN left key finds no run either.
        sorted_right = sorted_right[: len(sorted_right) - int(np.isnan(sorted_right).sum())]
    lo = np.searchsorted(sorted_right, left, side="left")
    hi = np.searchsorted(sorted_right, left, side="right")
    return _expand(np.arange(len(left), dtype=np.int64), lo, hi - lo, order)


def _expand(
    left_rows: np.ndarray, firsts: np.ndarray, counts: np.ndarray, order: np.ndarray
) -> Pairs:
    """Expand per-left-row match runs into (left_pos, right_pos) pairs.

    Left row ``left_rows[i]`` matches the right positions
    ``order[firsts[i] : firsts[i] + counts[i]]``.
    """
    total = int(counts.sum())
    if total == 0:
        return _no_pairs()
    # Output row k of left row i is right rank firsts[i] + k - (i's first
    # output row).
    shift = np.repeat(firsts - (counts.cumsum() - counts), counts)
    return np.repeat(left_rows, counts), order[shift + np.arange(total)]


def join(left: BAT, right: BAT, left_new: int = 0, right_new: int = 0) -> tuple[BAT, BAT]:
    """Inner equi-join on tail values.

    Returns two head-aligned OID BATs ``(loids, roids)``: row ``k`` of the
    result pairs left oid ``loids[k]`` with right oid ``roids[k]``.  Only
    pairs with left position at least ``left_new`` or right position at
    least ``right_new`` are returned (the defaults: every pair).
    """
    if left.atom != right.atom and not (is_numeric(left.atom) and is_numeric(right.atom)):
        raise TypeMismatchError(f"join atoms differ: {left.atom} vs {right.atom}")
    left_pos, right_pos = _match_pairs(left.tail, right.tail, left_new, right_new)
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
