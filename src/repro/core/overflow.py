"""Overflow policies — what a bounded basket does when producers win.

The paper's baskets are unbounded: DataCell assumes the scheduler keeps up
with arrival rates, so a basket only ever shrinks when a factory consumes
from its head.  At fleet scale that assumption fails — a slow query, a
stalled consumer, or a burst can let producers outrun factories without
bound.  Giving a :class:`~repro.core.basket.Basket` a ``capacity`` turns
that failure mode into a *policy decision*, taken batch-at-a-time on the
append path.  Both policies are lossless: a batch lands whole or not at
all, so no query ever skips a tuple.

* :class:`Fail` — raise :class:`~repro.errors.BasketOverflowError`
  immediately; the loud default when a capacity is set without a policy.
* :class:`Block` — backpressure: the producer waits (bounded by a
  timeout) until consumers free enough room.  Couples producer latency to
  consumer progress.

A stream's basket holds the one policy instance given to
``create_stream``, and it decides for every query reading the stream
(DESIGN.md §7).  The mechanics live in the basket (it owns the lock and
the not-full condition); a policy is only its configuration.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import ReproError

#: Spec names of the lossy policies (shedding and sampling) that bounded
#: baskets no longer offer; a spec, journal record or snapshot naming one
#: is refused (DESIGN.md §7).
REMOVED_POLICIES = ("shed-oldest", "shed-newest", "sample")


class Fail:
    """Reject overflowing batches outright (nothing is appended)."""

    def describe(self) -> str:
        return "fail"


class Block:
    """Backpressure: wait until the whole batch fits.

    ``timeout`` bounds the wait in seconds (``None`` waits forever —
    only sensible when a consumer is guaranteed to drain the basket).
    On timeout the basket raises :class:`BasketOverflowError` and appends
    nothing, so the producer can retry or drop at its own layer.  A batch
    larger than the basket capacity can never fit and fails immediately.
    """

    def __init__(self, timeout: Optional[float] = None) -> None:
        if timeout is not None and timeout < 0:
            raise ReproError(f"Block timeout must be >= 0, got {timeout}")
        self.timeout = timeout

    def describe(self) -> str:
        return "block" if self.timeout is None else f"block:{self.timeout:g}"


#: What a bounded basket does with a batch that does not fit.
OverflowPolicy = Union[Fail, Block]


def parse_overflow_spec(spec: str) -> OverflowPolicy:
    """Parse a console/CLI policy spec into a policy instance.

    Accepted forms (case-insensitive)::

        fail
        block            block:0.5          (timeout seconds)

    :meth:`describe` gives the spec back, which is how journals and
    snapshots store a stream's policy.  A spec naming a removed policy
    is refused with a message that says so.
    """
    parts = spec.strip().lower().split(":")
    name, args = parts[0].replace("_", "-"), parts[1:]
    if name in REMOVED_POLICIES:
        raise ReproError(
            f"overflow policy {spec!r} was removed: a bounded basket fails "
            "or blocks, and never drops tuples (DESIGN.md §7)"
        )
    try:
        if name == "fail" and not args:
            return Fail()
        if name == "block":
            return Block(float(args[0])) if args else Block()
    except ValueError:
        pass
    raise ReproError(f"bad overflow policy {spec!r} (want fail or block[:timeout])")
