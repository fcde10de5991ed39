"""Grouping operators.

``group`` maps each row of one or more head-aligned key columns to a dense
group id, and reports one representative oid per group ("extents" in
MonetDB terms).  Group ids are dense ``0..ngroups-1`` and deterministic:
groups are numbered in ascending key order, which makes partial-result
merging and test assertions stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AlignmentError, KernelError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT, require_aligned


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


def _int_code(keys: Sequence[BAT]):
    """One int64 code per row, ascending in the key tuples' lexicographic
    order, and the codes' span, for two or more integer keys whose value
    spans multiply within int64 — one factorization instead of one per key
    plus one for the combined codes."""
    tails = [key.tail for key in keys]
    if len(tails) < 2 or not len(tails[0]) or any(t.dtype.kind not in "iu" for t in tails):
        return None
    lows = [int(t.min()) for t in tails]
    spans = [int(t.max()) - low + 1 for t, low in zip(tails, lows)]
    if math.prod(spans) >= 2**62:
        return None
    code = np.zeros(len(tails[0]), dtype=np.int64)
    for tail, low, span in zip(tails, lows, spans):
        code = code * span + (tail.astype(np.int64) - low)
    return code, math.prod(spans)


def _factorize_dense(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_factorize` of codes in ``[0, span)`` by counting, not sorting."""
    present = np.flatnonzero(np.bincount(code, minlength=span))
    rank = np.empty(span, dtype=np.int64)
    rank[present] = np.arange(len(present), dtype=np.int64)
    codes = rank[code]
    first = np.full(len(present), len(code), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(code), dtype=np.int64))
    return codes, first


def group(keys: Sequence[BAT]) -> Grouping:
    """Group rows by the combined value of one or more key columns."""
    if not keys:
        raise KernelError("group needs at least one key column")
    base = keys[0]
    for key in keys[1:]:
        require_aligned(base, key)
    combined = _int_code(keys)
    if combined is not None:
        code, span = combined
        codes, first = _factorize_dense(code, span) if span <= len(code) else _factorize(code)
        keys = keys[:1]
    else:
        codes, first = _factorize(base.tail)
    for key in keys[1:]:
        key_codes, __ = _factorize(key.tail)
        # Re-factorize the (prev, key) pair into fresh dense codes.
        width = int(key_codes.max()) + 1 if len(key_codes) else 1
        combined = codes * width + key_codes
        codes, first = _factorize(combined)
    ngroups = int(codes.max()) + 1 if len(codes) else 0
    gids = BAT(codes, Atom.INT, base.hseq)
    extents = BAT(first + base.hseq, Atom.OID)
    return Grouping(gids, extents, ngroups)


def group_values(grouping: Grouping, key: BAT) -> BAT:
    """Materialize the per-group key values, in group order."""
    positions = key.positions_of(grouping.extents.tail)
    return BAT(key.tail[positions], key.atom)


def distinct(b: BAT) -> BAT:
    """Distinct tail values, ascending (SQL DISTINCT on a single column)."""
    return BAT(np.unique(b.tail), b.atom)


def check_aligned_with_gids(grouping: Grouping, values: BAT) -> None:
    """Assert a value column is aligned with the grouping's input rows."""
    if grouping.gids.hseq != values.hseq or len(grouping.gids) != len(values):
        raise AlignmentError("value column not aligned with grouping input")
