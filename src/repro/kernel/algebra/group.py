"""Grouping operators.

``group`` maps each row of one or more head-aligned key columns to a dense
group id, and reports one representative oid per group ("extents" in
MonetDB terms).  Group ids are dense ``0..ngroups-1`` and deterministic:
groups are numbered in ascending key order, which makes partial-result
merging and test assertions stable.

Every key set is reduced to one int64 code per row, ascending in the key
tuples' lexicographic order (mixed radix over per-key codes), and the code
is factorized once.  Integer and BIT keys code as ``value - min``; other
keys (FLT, STR) and integer keys too wide to code are factorized on their
own first.  When the code's span is at most the row count the codes are
counted (``bincount``, linear, the MonetDB group-by); sparser codes are
sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import KernelError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT, require_aligned

#: Spans of combined codes stay below this, so ``code * width + key`` never
#: leaves int64.
_CODE_LIMIT = 2**62

#: The first-row scan of ``ngroups`` groups starts with this many rows per
#: group (:func:`_first_rows`).
_PREFIX_ROWS = 4


@dataclass(frozen=True)
class Grouping:
    """Result of a group-by over head-aligned key columns.

    Attributes
    ----------
    gids:
        INT BAT aligned with the inputs; row i holds the group id of row i.
    extents:
        OID BAT with one representative head oid per group, in group order.
    ngroups:
        Number of distinct groups.
    """

    gids: BAT
    extents: BAT
    ngroups: int


def _factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (codes, first_positions) with codes dense in value order."""
    uniques, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    del uniques
    return inverse.astype(np.int64), first.astype(np.int64)


def _factorize_dense(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_factorize` of codes in ``[0, span)`` by counting, not sorting."""
    counts = np.bincount(code, minlength=span)
    if counts.all():
        codes, ngroups = code, span
    else:
        present = np.flatnonzero(counts)
        rank = np.empty(span, dtype=np.int64)
        rank[present] = np.arange(len(present), dtype=np.int64)
        codes, ngroups = rank[code], len(present)
    return codes, _first_rows(codes, ngroups)


def _first_rows(codes: np.ndarray, ngroups: int) -> np.ndarray:
    """Each group's first row, for dense codes in which every group has a
    row.  Those rows lie in the shortest prefix that holds every group,
    so the scan starts with ``_PREFIX_ROWS * ngroups`` rows and doubles
    until every group has one; a column shorter than twice that is
    scanned in one pass."""
    n = len(codes)
    first = np.full(ngroups, n, dtype=np.int64)
    low, high = 0, _PREFIX_ROWS * ngroups
    if 2 * high >= n:
        high = n
    while True:
        # ``minimum.at``, not a repeated-index assignment: the write order
        # of the latter is undocumented.
        np.minimum.at(first, codes[low:high], np.arange(low, high, dtype=np.int64))
        if high == n or first.max() < n:
            return first
        low, high = high, min(2 * high, n)


def _factorize_code(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Factorize codes in ``[0, span)``: counted if the span is at most the
    row count, sorted otherwise."""
    return _factorize_dense(code, span) if span <= len(code) else _factorize(code)


def _int_span(tail: np.ndarray) -> tuple[int, int] | None:
    """``(min, span)`` of a non-empty integer or BIT tail whose values fit
    one code, else None."""
    if tail.dtype.kind not in "ib":
        return None
    low = int(tail.min())
    span = int(tail.max()) - low + 1
    return (low, span) if span < _CODE_LIMIT else None


def _offset(tail: np.ndarray, low: int) -> np.ndarray:
    """``tail - low`` as int64, with no extra copy for int64 tails."""
    return (tail if tail.dtype == np.int64 else tail.astype(np.int64)) - low


def _key_code(tail: np.ndarray) -> tuple[np.ndarray, int]:
    """One key's int64 codes, ascending in value order, and their span."""
    int_span = _int_span(tail)
    if int_span is not None:
        low, span = int_span
        return _offset(tail, low), span
    codes, first = _factorize(tail)
    return codes, len(first)


def _compress(code: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Re-code to dense ``0..ngroups-1`` (same order), span ``ngroups``."""
    codes, first = _factorize_code(code, span)
    return codes, len(first)


def _combined_code(tails: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """One int64 code per row, ascending in the key tuples' lexicographic
    order, and its span (mixed radix over the per-key codes)."""
    code, span = _key_code(tails[0])
    for tail in tails[1:]:
        key, width = _key_code(tail)
        if span * width >= _CODE_LIMIT:
            code, span = _compress(code, span)
            if span * width >= _CODE_LIMIT:
                key, width = _compress(key, width)
        code = code * width + key
        span *= width
    return code, span


def group(keys: Sequence[BAT]) -> Grouping:
    """Group rows by the combined value of one or more key columns."""
    if not keys:
        raise KernelError("group needs at least one key column")
    base = keys[0]
    for key in keys[1:]:
        require_aligned(base, key)
    if len(base):
        codes, first = _factorize_code(*_combined_code([key.tail for key in keys]))
    else:
        codes = first = np.empty(0, dtype=np.int64)
    gids = BAT(codes, Atom.INT, base.hseq)
    extents = BAT(first + base.hseq, Atom.OID)
    return Grouping(gids, extents, len(first))


def group_values(grouping: Grouping, key: BAT) -> BAT:
    """Materialize the per-group key values, in group order."""
    positions = key.positions_of(grouping.extents.tail)
    return BAT(key.tail[positions], key.atom)


def distinct(b: BAT) -> BAT:
    """Distinct tail values, ascending (SQL DISTINCT on a single column)."""
    tail = b.tail
    int_span = _int_span(tail) if len(tail) else None
    if int_span is not None and int_span[1] <= len(tail):
        low, span = int_span
        present = np.flatnonzero(np.bincount(_offset(tail, low), minlength=span))
        return BAT((present + low).astype(tail.dtype, copy=False), b.atom)
    return BAT(np.unique(tail), b.atom)

