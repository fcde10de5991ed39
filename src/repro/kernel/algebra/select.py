"""Selection operators.

MonetDB-style selections consume a value BAT (plus an optional candidate
list) and produce a *candidate list*: an OID BAT holding the absolute head
oids of the qualifying rows, in head order.  Downstream operators use the
candidate list with :func:`repro.kernel.algebra.project.projection` to fetch
values from other head-aligned columns (late tuple reconstruction).
"""

from __future__ import annotations

import operator

import numpy as np

from repro.errors import KernelError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT

_THETA_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _positions_to_oids(b: BAT, positions: np.ndarray) -> BAT:
    """``flatnonzero``'s (new, int64) positions shifted to ``b``'s oids in
    place."""
    positions += b.hseq
    return BAT(positions, Atom.OID)


def select(
    b: BAT,
    low,
    high,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
    candidates: BAT | None = None,
) -> BAT:
    """Range selection ``low <op> b[i] <op> high`` returning qualifying oids.

    ``low`` / ``high`` may be ``None`` for an open bound.  When
    ``candidates`` is given, only rows whose oid appears in it are
    considered, and the result is a subset of it.
    """
    values = b.tail
    mask = np.ones(len(values), dtype=bool)
    if low is not None:
        mask &= values >= low if low_inclusive else values > low
    if high is not None:
        mask &= values <= high if high_inclusive else values < high
    if candidates is None:
        positions = np.flatnonzero(mask)
        return _positions_to_oids(b, positions)
    cand_positions = b.positions_of(candidates.tail)
    keep = mask[cand_positions]
    return BAT(candidates.tail[keep], Atom.OID)


def thetaselect(b: BAT, value, op: str, candidates: BAT | None = None) -> BAT:
    """Theta selection ``b[i] <op> value`` returning qualifying oids."""
    try:
        fn = _THETA_OPS[op]
    except KeyError:
        raise KernelError(f"unknown theta operator {op!r}") from None
    if b.atom == Atom.STR:
        # Object arrays: comparisons still vectorize via numpy ufuncs on
        # object dtype, but against a scalar they may return a scalar bool
        # for empty inputs; normalize.
        mask = np.asarray(fn(b.tail, value), dtype=bool).reshape(-1)
        if mask.shape[0] != len(b):
            mask = np.fromiter((fn(v, value) for v in b.tail), dtype=bool, count=len(b))
    else:
        mask = fn(b.tail, value)
    if candidates is None:
        return _positions_to_oids(b, np.flatnonzero(mask))
    cand_positions = b.positions_of(candidates.tail)
    keep = mask[cand_positions]
    return BAT(candidates.tail[keep], Atom.OID)


def mask_select(b: BAT, candidates: BAT | None = None) -> BAT:
    """Turn a BIT BAT into a candidate list of the true rows.

    Used after calc comparisons on computed expressions.
    """
    if b.atom != Atom.BIT:
        raise KernelError("mask_select expects a BIT BAT")
    if candidates is None:
        return _positions_to_oids(b, np.flatnonzero(b.tail))
    cand_positions = b.positions_of(candidates.tail)
    keep = b.tail[cand_positions]
    return BAT(candidates.tail[keep.astype(bool)], Atom.OID)


def intersect_candidates(left: BAT, right: BAT) -> BAT:
    """Intersection of two sorted candidate lists (AND of predicates)."""
    merged = np.intersect1d(left.tail, right.tail, assume_unique=True)
    return BAT(merged.astype(np.int64), Atom.OID)


def union_candidates(left: BAT, right: BAT) -> BAT:
    """Union of two sorted candidate lists (OR of predicates)."""
    merged = np.union1d(left.tail, right.tail)
    return BAT(merged.astype(np.int64), Atom.OID)


def difference_candidates(left: BAT, right: BAT) -> BAT:
    """Candidates in ``left`` but not in ``right`` (NOT / anti-select)."""
    merged = np.setdiff1d(left.tail, right.tail, assume_unique=True)
    return BAT(merged.astype(np.int64), Atom.OID)
