"""Overflow policies — what a bounded basket does when producers win.

The paper's baskets are unbounded: DataCell assumes the scheduler keeps up
with arrival rates, so a basket only ever shrinks when a factory consumes
from its head.  At fleet scale that assumption fails — a slow query, a
stalled worker, or a burst can let producers outrun factories without
bound.  Giving a :class:`~repro.core.basket.Basket` a ``capacity`` turns
that failure mode into a *policy decision*, taken batch-at-a-time on the
append path:

* :class:`Block` — backpressure: the producer waits (bounded by a
  timeout) until consumers free enough room.  Lossless; couples producer
  latency to consumer progress.
* :class:`ShedOldest` — admit the new batch, evict the oldest parked
  tuples.  Keeps results *fresh*: the basket always holds the newest
  ``capacity`` arrivals, so windows skip forward over the shed gap.
* :class:`ShedNewest` — admit only what fits, drop the tail of the batch.
  Keeps results *contiguous*: no gap inside the retained prefix, but the
  stream falls behind real time.
* :class:`Sample` — probabilistic thinning of overflowing batches with a
  seeded (deterministic) RNG; a load-shedding middle ground that keeps a
  statistically representative subset.
* :class:`Fail` — raise :class:`~repro.errors.BasketOverflowError`
  immediately; the loud default when a capacity is set without a policy.

A policy instance is *per basket* (``Sample`` carries RNG state), so the
engine :meth:`~OverflowPolicy.clone`\\ s the template passed to
``create_stream`` once for the stream's basket, and that one instance
decides for every query reading the stream (DESIGN.md §7).

Mechanics live in the basket (it owns the lock, the eviction machinery,
and the not-full condition); a policy only *decides*: given the free room
and an incoming batch size, it returns an :class:`Admission` describing
which incoming tuples to keep and how many parked tuples to evict.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import BasketOverflowError, ReproError

#: Indices into an incoming batch: a slice (contiguous prefix/suffix) or a
#: sorted integer index array (Sample's thinning).
Keep = Union[slice, np.ndarray]


@dataclass(frozen=True)
class Admission:
    """One policy decision for one incoming batch.

    ``keep`` selects the admitted tuples of the incoming batch (arrival
    order preserved), ``evict_oldest`` parked tuples are dropped from the
    basket head first, and ``shed`` is the total number of tuples lost
    (evicted + not admitted) — what the profiler's ``overflow_shed``
    counter accumulates.
    """

    keep: Keep
    evict_oldest: int = 0
    shed: int = 0


class OverflowPolicy:
    """Decides how a bounded basket handles a batch that does not fit."""

    #: True when the basket should wait on its not-full condition instead
    #: of asking for an :class:`Admission`.
    blocking: bool = False

    def admit(self, room: int, incoming: int, capacity: int) -> Admission:
        """Decision for a batch of ``incoming`` tuples with ``room`` free.

        Only called when ``incoming > room``; a batch that fits is always
        admitted whole without consulting the policy.  ``capacity`` is the
        basket bound (so ``capacity - room`` tuples are currently parked).
        """
        raise NotImplementedError  # pragma: no cover - interface

    def clone(self) -> "OverflowPolicy":
        """A fresh instance with the same configuration.

        Stateful policies (``Sample``'s RNG) must not share state across
        baskets; the engine clones the template once per stream.
        """
        return copy.deepcopy(self)

    def describe(self) -> str:
        return type(self).__name__.lower()


class Fail(OverflowPolicy):
    """Reject overflowing batches outright (nothing is appended)."""

    def admit(self, room: int, incoming: int, capacity: int) -> Admission:
        raise BasketOverflowError(
            f"batch of {incoming} exceeds free room {room}",
            requested=incoming,
            room=room,
        )

    def describe(self) -> str:
        return "fail"


class Block(OverflowPolicy):
    """Backpressure: wait until the whole batch fits.

    ``timeout`` bounds the wait in seconds (``None`` waits forever —
    only sensible when a consumer is guaranteed to drain the basket).
    On timeout the basket raises :class:`BasketOverflowError` and appends
    nothing, so the producer can retry or shed at its own layer.  A batch
    larger than the basket capacity can never fit and fails immediately.
    """

    blocking = True

    def __init__(self, timeout: Optional[float] = None) -> None:
        if timeout is not None and timeout < 0:
            raise ReproError(f"Block timeout must be >= 0, got {timeout}")
        self.timeout = timeout

    def describe(self) -> str:
        return "block" if self.timeout is None else f"block:{self.timeout:g}"


class ShedOldest(OverflowPolicy):
    """Evict parked tuples from the head to make room for new arrivals.

    The basket always retains the *newest* ``capacity`` tuples of
    (parked + incoming); everything older is shed.  Windows skip forward
    over the gap — see DESIGN.md §7 for why this stays sound under the
    incremental merge.
    """

    def admit(self, room: int, incoming: int, capacity: int) -> Admission:
        parked = capacity - room
        if incoming >= capacity:
            # The batch alone overfills the basket: keep only its newest
            # `capacity` tuples and evict everything parked.
            dropped_incoming = incoming - capacity
            return Admission(
                keep=slice(dropped_incoming, None),
                evict_oldest=parked,
                shed=parked + dropped_incoming,
            )
        evict = incoming - room  # < parked, since incoming < capacity
        return Admission(keep=slice(None), evict_oldest=evict, shed=evict)

    def describe(self) -> str:
        return "shed-oldest"


class ShedNewest(OverflowPolicy):
    """Admit the prefix that fits; drop the rest of the batch."""

    def admit(self, room: int, incoming: int, capacity: int) -> Admission:
        admitted = max(0, room)
        return Admission(keep=slice(0, admitted), shed=incoming - admitted)

    def describe(self) -> str:
        return "shed-newest"


class Sample(OverflowPolicy):
    """Thin overflowing batches to a seeded random subset.

    Each tuple of an overflowing batch is admitted independently with
    probability ``rate``; if the thinned batch still exceeds the free
    room its newest excess is dropped, so capacity stays a hard bound.
    Deterministic for a fixed ``seed`` and call sequence (the fault
    harness and tests rely on this).
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ReproError(f"Sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def admit(self, room: int, incoming: int, capacity: int) -> Admission:
        mask = self._rng.random(incoming) < self.rate
        keep = np.flatnonzero(mask)
        if len(keep) > room:
            keep = keep[: max(0, room)]
        return Admission(keep=keep, shed=incoming - len(keep))

    def clone(self) -> "Sample":
        return Sample(self.rate, self.seed)

    def describe(self) -> str:
        return f"sample:{self.rate:g}"


def parse_overflow_spec(spec: str) -> OverflowPolicy:
    """Parse a console/CLI policy spec into a policy instance.

    Accepted forms (case-insensitive)::

        fail
        block            block:0.5          (timeout seconds)
        shed-oldest      shed_oldest
        shed-newest      shed_newest
        sample:0.25      sample:0.25:7      (rate [, seed])
    """
    parts = spec.strip().lower().split(":")
    name, args = parts[0].replace("_", "-"), parts[1:]
    try:
        if name == "fail" and not args:
            return Fail()
        if name == "block":
            return Block(float(args[0])) if args else Block()
        if name == "shed-oldest" and not args:
            return ShedOldest()
        if name == "shed-newest" and not args:
            return ShedNewest()
        if name == "sample" and args:
            rate = float(args[0])
            seed = int(args[1]) if len(args) > 1 else 0
            return Sample(rate, seed)
    except ValueError:
        pass
    raise ReproError(
        f"bad overflow policy {spec!r} (want fail, block[:timeout], "
        f"shed-oldest, shed-newest, or sample:rate[:seed])"
    )


def policy_spec(policy: Optional[OverflowPolicy]) -> Optional[str]:
    """A spec string :func:`parse_overflow_spec` reconstructs the policy
    from — the durable form used by checkpoint snapshots and journals.

    Unlike :meth:`OverflowPolicy.describe` (a display label), this keeps
    ``Sample``'s seed so a restored policy replays the same decisions.
    """
    if policy is None:
        return None
    if isinstance(policy, Sample):
        return f"sample:{policy.rate:g}:{policy.seed}"
    return policy.describe()
