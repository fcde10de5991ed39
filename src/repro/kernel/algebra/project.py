"""Projection (tuple reconstruction) operators.

``projection(cand, b)`` is MonetDB's positional fetch-join: for every oid in
the candidate list it fetches the tail value of ``b`` at that head position.
This is the late-reconstruction backbone — selections produce oid lists, and
projections materialize exactly the columns later operators need.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT


def projection(candidates: BAT, b: BAT) -> BAT:
    """Fetch ``b``'s tail values at the head oids listed in ``candidates``.

    The result is head-aligned with ``candidates`` (same hseq/count), so
    several projections through the same candidate list stay mutually
    aligned — the property group-by and calc operators rely on.
    """
    positions = b.positions_of(candidates.tail)
    return BAT(np.take(b.tail, positions), b.atom, candidates.hseq)


def materialize(b: BAT) -> BAT:
    """Copy a (possibly zero-copy view) BAT into its own storage.

    DataCell caches intermediates across window slides; a cached view over
    a basket chunk would keep the whole chunk alive as long as the partial,
    so partials are materialized before being stored.
    """
    return BAT(np.array(b.tail, copy=True), b.atom, b.hseq)


def head_oids(b: BAT) -> BAT:
    """The (virtual) head of ``b`` as an explicit OID BAT (MonetDB: mirror).

    The result is head-aligned with ``b`` (same hseq), so projecting a
    selection/join result through it recovers original oids.
    """
    return BAT(np.arange(b.hseq, b.hseq + len(b), dtype=np.int64), Atom.OID, b.hseq)
