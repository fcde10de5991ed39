"""Set / materialization operators: concat (mat.pack), slice, append.

``concat`` is DataCell's merge workhorse: partial results of basic windows
are packed into one column before compensation operators run (paper §3,
"Merging Intermediates").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import KernelError, TypeMismatchError
from repro.kernel.atoms import numpy_dtype
from repro.kernel.bat import BAT


def concat(parts: Sequence[BAT]) -> BAT:
    """Pack several BATs of the same atom into one fresh dense BAT.

    The result has ``hseq`` 0; alignment relationships between *different*
    flows survive as long as both flows are concatenated in the same part
    order, which the incremental merge program guarantees.
    """
    parts = [p for p in parts]
    if not parts:
        raise KernelError("concat needs at least one input")
    atom = parts[0].atom
    for part in parts[1:]:
        if part.atom != atom:
            raise TypeMismatchError(
                f"concat atom mismatch: {atom} vs {part.atom}"
            )
    tails = [p.tail for p in parts if len(p)]
    if not tails:
        return BAT.empty(atom)
    if len(tails) == 1:
        return BAT(tails[0].copy(), atom)
    return BAT(np.concatenate(tails), atom)


def slice_bat(b: BAT, start: int, stop: int) -> BAT:
    """Positional slice as an operator (window/basic-window views)."""
    return b.slice(start, stop)


def append(base: BAT, extra: BAT) -> BAT:
    """Functional append: a new BAT holding base followed by extra."""
    if base.atom != extra.atom:
        raise TypeMismatchError(f"append atom mismatch: {base.atom} vs {extra.atom}")
    if base.is_empty():
        return BAT(extra.tail.copy(), extra.atom, base.hseq)
    out = np.empty(len(base) + len(extra), dtype=numpy_dtype(base.atom))
    out[: len(base)] = base.tail
    out[len(base):] = extra.tail
    return BAT(out, base.atom, base.hseq)
