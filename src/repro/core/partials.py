"""Stores for cached intermediate results ("partials").

The paper's transition phase (Algorithm 2, lines 20-21: ``res1 = res2, ...``)
shifts intermediates one position as the window slides.  We realize the same
bookkeeping with sequence numbers: every basic window gets a monotonically
increasing ``seq``; a sliding window of ``n`` basic windows keeps exactly
the bundles with ``seq > newest - n``.  Join queries additionally keep one
bundle per *pair* of basic windows, expiring a pair when either side does.

A *bundle* is a dict ``flow name → BAT`` — the cached output of one
per-basic-window (or per-pair) plan fragment.

On top of the ring a :class:`PartialStore` can keep a *merge tree*
(DESIGN.md §17): pre-merged nodes over the aligned seq ranges
``[i·K^l, (i+1)·K^l)``, each folded once from its ``K`` children through
the plan's own combine program.  :meth:`PartialStore.cover` then tiles the
live range with the few largest nodes that fit plus edge singles, so a
slide merges O(K·log_K n) bundles instead of all ``n``.

:class:`FragmentCache` extends the same idea *across* queries: factories
whose per-basic-window fragments are alpha-equivalent over the same stream
compute each basic window's bundle once and share the result (BATs are
immutable, so sharing is zero-copy).  Cache entries are addressed by
offsets into the stream's one basket, which every sharer reads through
its own cursor, so an address names the same tuples for all of them
(DESIGN.md §6).

Overload interaction: admission control happens at the basket, strictly
before a factory slices basic windows, so a shed tuple never reaches a
partial — stores only ever hold bundles computed from admitted tuples,
and expiry needs no special casing under load shedding.

Thread-safety: ``PartialStore`` is confined to its owning factory (the
scheduler's scan lock serializes steps); ``FragmentCache`` is shared
engine-wide but only ever computed into by the one firing thread — its
single lock guards the index and counters against ``stats()`` readers
(lock order in DESIGN.md §6).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

from repro.errors import SchedulerError
from repro.kernel.bat import BAT
from repro.kernel.execution.profiler import (
    COUNTER_CACHE_HITS,
    COUNTER_CACHE_MISSES,
    Profiler,
)

Bundle = dict[str, BAT]


#: Fan-out ``K`` of the merge tree: a level-``l`` node pre-merges ``K``
#: level-``l-1`` nodes, i.e. ``K^l`` basic windows.  Chosen by the
#: committed n × K sweep (benchmarks/results/merge_tree_sweep.txt).
MERGE_FANOUT = 8

#: A level is sealed only while one of its nodes spans at most
#: ``1/MERGE_SPAN_DIVISOR`` of the window.  A wider node serves few
#: slides before its oldest basic window expires; the sweep
#: (benchmarks/results/merge_tree_sealing.txt) shows such levels buy no
#: measurable time, so they would only add a window's worth of retained
#: state each — and windows with ``n < 4·K`` stay entirely flat.
MERGE_SPAN_DIVISOR = 4

#: Folds an in-order list of bundles into one (the factory's combine
#: program).
Fold = Callable[[list[Bundle]], Bundle]


def merge_levels(capacity: int) -> int:
    """Sealed tree levels for a window of ``capacity`` basic windows.

    Zero for ``capacity < MERGE_SPAN_DIVISOR · MERGE_FANOUT`` (and for
    unbounded/landmark stores): such a store keeps no node at all.
    """
    levels = 0
    span = MERGE_FANOUT
    while span * MERGE_SPAN_DIVISOR <= capacity:
        levels += 1
        span *= MERGE_FANOUT
    return levels


@dataclass
class PartialStore:
    """Ring of per-basic-window bundles for one (stream's) flow set.

    ``capacity`` is the number of live basic windows ``n``; 0 means
    unbounded (landmark mode keeps a single *cumulative* bundle instead,
    see :meth:`replace_all`).

    ``levels`` arms the merge tree: the factory passes
    :func:`merge_levels` of the window for flows whose combine
    compensates, and :meth:`cover` then seals pre-merged nodes lazily
    (0, the default, keeps the store flat).  Nodes are derived state —
    addressed by aligned seq ranges, dropped as soon as their oldest
    basic window expires, never snapshotted — so a restored store
    rebuilds exactly the nodes an uninterrupted one holds.
    """

    capacity: int
    levels: int = 0
    _bundles: "OrderedDict[int, Bundle]" = field(default_factory=OrderedDict)
    _next_seq: int = 0
    #: node span (``K^l``) → first seq covered → pre-merged bundle
    _nodes: dict[int, dict[int, Bundle]] = field(default_factory=dict)
    #: Nodes folded over this store's lifetime (not restored: a counter
    #: of work done by this process), and nodes currently held.
    nodes_sealed: int = 0
    nodes_live: int = 0
    #: Entries the last :meth:`cover` returned.
    cover_len: int = 0

    def add(self, bundle: Bundle) -> int:
        """Store the newest bundle; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self._bundles[seq] = bundle
        if self.capacity:
            low = seq - self.capacity
            while self._bundles and next(iter(self._bundles)) <= low:
                expired, __ = self._bundles.popitem(last=False)
                # A node is usable only while every seq it covers is
                # live; its first seq is the first to go.
                for nodes in self._nodes.values():
                    if nodes.pop(expired, None) is not None:
                        self.nodes_live -= 1
        return seq

    def live(self) -> list[tuple[int, Bundle]]:
        """Live bundles, oldest first."""
        return list(self._bundles.items())

    def live_seqs(self) -> list[int]:
        return list(self._bundles)

    def cover(self, fold: Optional[Fold] = None) -> list[Bundle]:
        """The bundles to merge for the current window, oldest first.

        The unique minimal in-order tiling of the live seq range by
        maximal aligned nodes plus edge singles; nodes it needs and does
        not hold yet are folded through ``fold`` (and kept) on the way.
        A store without sealed levels returns its singles.  ``fold`` is
        passed per call, not held: a store owning its factory's bound
        method would tie the two into a reference cycle.
        """
        if not self.levels or not self._bundles:
            out = list(self._bundles.values())
        else:
            if fold is None:
                raise SchedulerError("a store with sealed levels needs a fold")
            top = MERGE_FANOUT**self.levels
            out = []
            pos = next(iter(self._bundles))
            end = self._next_seq
            while pos < end:
                span = top
                while span > 1 and (pos % span or pos + span > end):
                    span //= MERGE_FANOUT
                out.append(self._node(pos, span, fold))
                pos += span
        self.cover_len = len(out)
        return out

    def _node(self, start: int, span: int, fold: Fold) -> Bundle:
        if span == 1:
            return self._bundles[start]
        nodes = self._nodes.setdefault(span, {})
        node = nodes.get(start)
        if node is None:
            child = span // MERGE_FANOUT
            node = fold(
                [
                    self._node(start + i * child, child, fold)
                    for i in range(MERGE_FANOUT)
                ]
            )
            nodes[start] = node
            self.nodes_sealed += 1
            self.nodes_live += 1
        return node

    def bundle(self, seq: int) -> Bundle:
        try:
            return self._bundles[seq]
        except KeyError:
            raise SchedulerError(f"partial for basic window {seq} expired") from None

    def replace_all(self, bundle: Bundle) -> None:
        """Collapse the store to one cumulative bundle (landmark compaction).

        The combined bundle keeps the seq of the newest constituent so
        subsequent adds stay ordered.
        """
        if not self._bundles:
            raise SchedulerError("cannot compact an empty partial store")
        newest = next(reversed(self._bundles))
        self._bundles.clear()
        self._bundles[newest] = bundle

    @property
    def newest_seq(self) -> Optional[int]:
        if not self._bundles:
            return None
        return next(reversed(self._bundles))

    def __len__(self) -> int:
        return len(self._bundles)

    def snapshot_state(self) -> dict:
        """Serializable image: seq counter + live bundles, oldest first.

        Tree nodes are left out: they are a function of the live bundles
        and their seqs, and :meth:`cover` folds them again on demand.
        """
        return {
            "next_seq": self._next_seq,
            "bundles": [[seq, dict(bundle)] for seq, bundle in self._bundles.items()],
        }

    def restore_state(self, state: dict) -> None:
        self._next_seq = state["next_seq"]
        self._bundles = OrderedDict(
            (int(seq), bundle) for seq, bundle in state["bundles"]
        )
        self._nodes = {}
        self.nodes_live = 0


@dataclass
class PairStore:
    """Per-(left seq, right seq) bundles for two-stream join queries.

    A pair expires as soon as either constituent basic window slides out of
    its stream's focus window — mirroring the paper's rule that selection
    intermediates "need to be kept and joined with newly arriving data until
    the respective basic windows expire".

    Bundles are keyed by left seq, then by right seq.  The factory adds
    pairs in ascending (left, right) order, so both levels stay sorted by
    insertion: expiry pops whole left rows and each row's oldest right
    seqs off the front, and :meth:`live` walks the rows without sorting.
    An out-of-order add (only after a landmark compaction) marks the
    store for one re-sort before it is next read.
    """

    left_capacity: int
    right_capacity: int
    _rows: dict[int, dict[int, Bundle]] = field(default_factory=dict)
    _unsorted: bool = False

    def add(self, left_seq: int, right_seq: int, bundle: Bundle) -> None:
        row = self._rows.get(left_seq)
        if row is None:
            if self._rows and left_seq < next(reversed(self._rows)):
                self._unsorted = True
            row = self._rows[left_seq] = {}
        elif row and right_seq < next(reversed(row)):
            self._unsorted = True
        row[right_seq] = bundle

    def _sorted_rows(self) -> dict[int, dict[int, Bundle]]:
        if self._unsorted:
            self._rows = {
                left: dict(sorted(row.items()))
                for left, row in sorted(self._rows.items())
            }
            self._unsorted = False
        return self._rows

    def expire(self, newest_left: int, newest_right: int) -> None:
        """Drop pairs whose left or right basic window has expired."""
        rows = self._sorted_rows()
        if self.left_capacity:
            low = newest_left - self.left_capacity
            while rows and next(iter(rows)) <= low:
                del rows[next(iter(rows))]
        if self.right_capacity:
            low = newest_right - self.right_capacity
            for left in list(rows):
                row = rows[left]
                while row and next(iter(row)) <= low:
                    del row[next(iter(row))]
                if not row:
                    del rows[left]

    def live(self) -> list[tuple[tuple[int, int], Bundle]]:
        """Live pair bundles, ordered by (left seq, right seq)."""
        return [
            ((left, right), bundle)
            for left, row in self._sorted_rows().items()
            for right, bundle in row.items()
        ]

    def replace_all(self, bundle: Bundle, key: tuple[int, int]) -> None:
        """Collapse to one cumulative bundle (landmark joins)."""
        self._rows = {key[0]: {key[1]: bundle}}
        self._unsorted = False

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def snapshot_state(self) -> dict:
        """Serializable image of the live pair bundles."""
        return {
            "bundles": [
                [left, right, dict(bundle)]
                for (left, right), bundle in self.live()
            ]
        }

    def restore_state(self, state: dict) -> None:
        self._rows = {}
        self._unsorted = False
        for left, right, bundle in state["bundles"]:
            self.add(int(left), int(right), bundle)


# ----------------------------------------------------------------------
# cross-query fragment sharing
# ----------------------------------------------------------------------
#: Identifies a shareable fragment computation: queries collide when they
#: read the same stream, slice it with the same basic-window step, and
#: their fragment programs canonicalize to the same fingerprint (see
#: :mod:`repro.core.rewriter.canonical`).
ShareKey = Hashable

#: One basic window's coordinates in its stream's basket:
#: ``(start offset, tuple count)``.  Exact-range keying makes sharing safe
#: even between queries registered at different times — ranges that do not
#: line up simply never collide.
Span = tuple[int, int]


@dataclass
class _FragmentGroup:
    """Entries and bookkeeping of one share key."""

    capacity: int
    bundles: "OrderedDict[Span, Bundle]" = field(default_factory=OrderedDict)


class FragmentCache:
    """Cross-query cache of per-basic-window fragment bundles.

    Lives in the engine.  Only the firing thread looks bundles up and
    computes them (the scheduler fires one factory at a time), so a miss
    needs no compute lock; ``_lock`` keeps the index and counters coherent
    for ``stats()`` / checkpoint readers on other threads.  Expiry mirrors
    :class:`PartialStore`'s seq discipline: spans are produced in
    nondecreasing start order, so each group keeps its most recent
    ``capacity`` entries by insertion order (``capacity`` is the largest
    live-basic-window count among the sharing queries — a lagging factory
    that misses an evicted span just recomputes it).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._groups: dict[ShareKey, _FragmentGroup] = {}  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    def register(self, key: ShareKey, capacity: int) -> None:
        """Declare interest in a share key, widening its ring if needed."""
        if capacity < 1:
            raise SchedulerError(f"fragment cache capacity must be >= 1, got {capacity}")
        with self._lock:
            group = self._groups.get(key)
            if group is None:
                self._groups[key] = _FragmentGroup(capacity)
            else:
                group.capacity = max(group.capacity, capacity)

    def get_or_compute(
        self,
        key: ShareKey,
        span: Span,
        compute: Callable[[], Bundle],
        profiler: Optional[Profiler] = None,
    ) -> Bundle:
        """The bundle for ``span``, computing (once) on a miss.

        Bundles are immutable by convention (dict of immutable BATs), so
        the returned object is shared between all callers.
        """
        with self._lock:
            try:
                group = self._groups[key]
            except KeyError:
                raise SchedulerError(f"share key {key!r} was never registered") from None
            bundle = group.bundles.get(span)
            if bundle is not None:
                return self._hit(span, bundle, profiler)
        # Outside the lock: compute() runs kernel programs and may raise,
        # in which case nothing was recorded and a retry is a plain miss.
        bundle = compute()
        with self._lock:
            group.bundles[span] = bundle
            while len(group.bundles) > group.capacity:
                group.bundles.popitem(last=False)
            self.misses += 1
        if profiler is not None:
            profiler.count(COUNTER_CACHE_MISSES)
        return bundle

    def _hit(self, span: Span, bundle: Bundle, profiler: Optional[Profiler]) -> Bundle:  # guarded-by: self._lock
        self.hits += 1
        if profiler is not None:
            profiler.count(COUNTER_CACHE_HITS)
        return bundle

    def stats(self) -> dict[str, float]:
        """Totals for benchmark reporting."""
        with self._lock:
            entries = sum(len(g.bundles) for g in self._groups.values())
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "entries": entries,
                "groups": len(self._groups),
            }

    def clear(self) -> None:
        with self._lock:
            for group in self._groups.values():
                group.bundles.clear()
            self.hits = 0
            self.misses = 0

    def snapshot_state(self) -> dict:
        """Serializable image of every group's entries and the counters.

        Share keys are ``(relation, step, time_based, fingerprint)``
        tuples of JSON scalars, so they round-trip as lists; spans
        likewise.
        """
        with self._lock:
            groups = []
            for key, group in self._groups.items():
                groups.append(
                    {
                        "key": list(key),
                        "capacity": group.capacity,
                        "bundles": [
                            [list(span), dict(bundle)]
                            for span, bundle in group.bundles.items()
                        ],
                    }
                )
            return {"groups": groups, "hits": self.hits, "misses": self.misses}

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot's entries (replacing any current contents)."""
        with self._lock:
            self._groups.clear()
            for entry in state["groups"]:
                group = _FragmentGroup(entry["capacity"])
                for span, bundle in entry["bundles"]:
                    group.bundles[tuple(span)] = bundle
                self._groups[tuple(entry["key"])] = group
            self.hits = state["hits"]
            self.misses = state["misses"]
