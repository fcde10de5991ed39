"""Stores for cached intermediate results ("partials").

The paper's transition phase (Algorithm 2, lines 20-21: ``res1 = res2, ...``)
shifts intermediates one position as the window slides.  We realize the same
bookkeeping with sequence numbers: every basic window gets a monotonically
increasing ``seq``; a sliding window of ``n`` basic windows keeps exactly
the bundles with ``seq > newest - n``.  Join queries additionally keep the
partial rows of every *pair* of basic windows, expiring a pair when either
side does.

A *bundle* is a dict ``flow name → BAT`` — the cached output of one
per-basic-window (or per-pair) plan fragment.

On top of the ring a :class:`PartialStore` can keep a *merge tree*
(DESIGN.md §17): pre-merged nodes over the aligned seq ranges
``[i·K^l, (i+1)·K^l)``, each folded once from its ``K`` children through
the plan's own combine program.  :meth:`PartialStore.cover` then tiles the
live range with the few largest nodes that fit plus edge singles, so a
slide merges O(K·log_K n) bundles instead of all ``n``.

A :class:`WindowStore` keeps a re-evaluation query's window: its
bundles are the basic windows' tuples, laid out in one array per column.

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
engine-wide but only ever computed into by the one firing thread, so
neither takes a lock (single-writer table in DESIGN.md §6).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

import numpy as np

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
class WindowStore(PartialStore):
    """A prep store whose live bundles are views into one array per
    column, oldest first, each with its first row there as ``hseq``; the
    window — their concatenation — is then a view too (:meth:`window`),
    not a copy per slide.  Rows are written once, past the newest; a full
    array is replaced by one twice the size of what it must hold, the live
    bundles re-pointed at it, so a window handed out stays valid.
    Snapshots are a :class:`PartialStore`'s."""

    _arrays: dict[str, np.ndarray] = field(default_factory=dict)
    _fill: int = 0

    def add(self, bundle: Bundle) -> int:
        rows = _rows(bundle)
        if not self._arrays or self._fill + rows > len(next(iter(self._arrays.values()))):
            self._rebase(bundle, rows)
        return super().add(self._put(bundle, rows))

    def window(self) -> Bundle:
        """The live bundles' concatenation, per column."""
        oldest = next(iter(self._bundles.values()))
        return {
            name: BAT(self._arrays[name][bat.hseq : self._fill], bat.atom, bat.hseq)
            for name, bat in oldest.items()
        }

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._arrays = {}
        if self._bundles:
            self._rebase(next(iter(self._bundles.values())), 0)

    def _put(self, bundle: Bundle, rows: int) -> Bundle:
        """Copy ``bundle`` past the newest row; its view there."""
        start, self._fill = self._fill, self._fill + rows
        out: Bundle = {}
        for name, bat in bundle.items():
            tail = self._arrays[name][start : self._fill]
            tail[:] = bat.tail
            out[name] = BAT(tail, bat.atom, start)
        return out

    def _rebase(self, like: Bundle, extra: int) -> None:
        """Fresh arrays with room, twice over, for the live bundles and
        ``extra`` more rows (or a window of bundles that size); the live
        bundles move to the front."""
        sizes = [_rows(bundle) for bundle in self._bundles.values()]
        size = 2 * max(sum(sizes) + extra, self.capacity * extra)
        self._arrays = {name: np.empty(size, bat.tail.dtype) for name, bat in like.items()}
        self._fill = 0
        for (seq, bundle), rows in zip(list(self._bundles.items()), sizes):
            self._bundles[seq] = self._put(bundle, rows)


def _rows(bundle: Bundle) -> int:
    return len(next(iter(bundle.values())))


_NO_SEQS = np.empty(0, dtype=np.int64)


def _spliced(
    rows: np.ndarray, new: np.ndarray, at: np.ndarray, old: np.ndarray
) -> np.ndarray:
    """``rows`` with ``new`` placed at output positions ``at`` (``old``
    masks the positions the existing rows keep their order in)."""
    out = np.empty(len(old), dtype=rows.dtype)
    out[at] = new
    out[old] = rows
    return out


@dataclass
class _TagTable:
    """Rows tagged with the (left seq, right seq) pair they belong to,
    ordered by that pair; rows of one pair keep the order they were
    inserted in.  ``values`` is a flow's column (``None`` for the store's
    pair index, one row per live pair)."""

    left: np.ndarray = field(default_factory=lambda: _NO_SEQS)
    right: np.ndarray = field(default_factory=lambda: _NO_SEQS)
    values: Optional[BAT] = None

    def __len__(self) -> int:
        return len(self.left)

    def insert(
        self, left: np.ndarray, right: np.ndarray, values: Optional[np.ndarray] = None
    ) -> None:
        """Insert rows, each at the end of its left seq's block.

        That keeps the table ordered as long as every inserted pair is
        newer on the right than the pairs already in its block — which
        :meth:`PairStore.add` checks on the pair index.
        """
        if not len(left):
            return
        order = np.lexsort((right, left))
        left = left[order]
        # Output positions of the new rows (ascending, as ``left`` is) and
        # of the old ones.
        at = np.searchsorted(self.left, left, side="right")
        at += np.arange(len(at))
        old = np.ones(len(self.left) + len(at), dtype=bool)
        old[at] = False
        self.left = _spliced(self.left, left, at, old)
        self.right = _spliced(self.right, right[order], at, old)
        if self.values is not None:
            tail = _spliced(self.values.tail, values[order], at, old)
            self.values = BAT(tail, self.values.atom)

    def clashes(self, left: np.ndarray, right: np.ndarray) -> bool:
        """True if some pair ``(left, right)`` is not newer on the right
        than the last pair of its left seq's block."""
        if not len(self.left) or not len(left):
            return False
        prev = np.searchsorted(self.left, left, side="right") - 1
        last = self.right[prev]
        return bool(np.any((prev >= 0) & (self.left[prev] == left) & (last >= right)))

    def keep(self, rows: slice | np.ndarray) -> None:
        self.left, self.right = self.left[rows], self.right[rows]
        if self.values is not None:
            self.values = BAT(self.values.tail[rows], self.values.atom)


def _pair_codes(
    left: np.ndarray, right: np.ndarray, lefts: np.ndarray, rights: np.ndarray
) -> np.ndarray:
    """Each (left, right) tag pair as a code ascending in (left, right)
    order, over the sorted distinct seqs ``lefts`` and ``rights``."""
    return np.searchsorted(lefts, left) * len(rights) + np.searchsorted(rights, right)


@dataclass
class PairStore:
    """Join state of a two-stream (or stream ⋈ table) query: the partial
    rows of every live pair of basic windows, one tagged table per flow.

    The paper keeps one intermediate per pair of basic windows; the store
    keeps the same rows, laid out as one column per flow whose rows are
    tagged with their (left seq, right seq) pair and ordered by it — each
    pair's rows in the order its join produced them.  That is the order
    in which per-pair bundles concatenate, so :meth:`table` is the merge
    input without packing.  Tags are per flow: a pair that joined nothing
    holds the empty-pair rows (a 0 count, no sum/min/max row), so flows
    differ in row count.

    A pair expires as soon as either constituent basic window slides out of
    its stream's focus window — mirroring the paper's rule that selection
    intermediates "need to be kept and joined with newly arriving data until
    the respective basic windows expire": left expiry cuts a prefix, right
    expiry masks.
    """

    left_capacity: int
    right_capacity: int
    _index: _TagTable = field(default_factory=_TagTable)
    _flows: dict[str, _TagTable] = field(default_factory=dict)

    def add(
        self,
        left_seqs: list[int],
        right_seqs: list[int],
        run: Bundle,
        left_tags: np.ndarray,
        right_tags: np.ndarray,
        empty: Callable[[], Bundle],
    ) -> None:
        """Add the pairs ``left_seqs × right_seqs`` (both ascending) from
        one tagged join run.

        ``run``'s flows are row-aligned with the tags, in any order.  A
        pair the run has no row for gets ``empty()``'s rows (computed only
        then).  Every pair must be newer on the right than those its left
        seq already has — true of the bilinear delta runs, also after a
        landmark compaction.
        """
        lefts = np.asarray(left_seqs, dtype=np.int64)
        rights = np.asarray(right_seqs, dtype=np.int64)
        grid_left = np.repeat(lefts, len(rights))
        grid_right = np.tile(rights, len(lefts))
        if self._index.clashes(grid_left, grid_right):
            raise SchedulerError("join pairs added out of (left, right) order")
        self._index.insert(grid_left, grid_right)
        present = np.zeros(len(grid_left), dtype=bool)
        present[_pair_codes(left_tags, right_tags, lefts, rights)] = True
        absent = np.flatnonzero(~present)
        filler = empty() if len(absent) else {}
        for name, bat in run.items():
            left, right, values = left_tags, right_tags, bat.tail
            extra = filler.get(name)
            if extra is not None and len(extra):
                per_pair = len(extra)
                left = np.concatenate((left, np.repeat(grid_left[absent], per_pair)))
                right = np.concatenate((right, np.repeat(grid_right[absent], per_pair)))
                values = np.concatenate((values, np.tile(extra.tail, len(absent))))
            self._flow(name, bat).insert(left, right, values)

    def _flow(self, name: str, like: BAT) -> _TagTable:
        table = self._flows.get(name)
        if table is None:
            table = self._flows[name] = _TagTable(values=BAT.empty(like.atom))
        return table

    def expire(self, newest_left: int, newest_right: int) -> None:
        """Drop pairs whose left or right basic window has expired."""
        for table in (self._index, *self._flows.values()):
            if self.left_capacity:
                low = newest_left - self.left_capacity
                table.keep(slice(np.searchsorted(table.left, low, side="right"), None))
            if self.right_capacity:
                table.keep(table.right > newest_right - self.right_capacity)

    def table(self) -> Bundle:
        """Every flow's rows of all live pairs, in (left, right) order."""
        return {name: table.values for name, table in self._flows.items()}

    def replace_all(self, bundle: Bundle, key: tuple[int, int]) -> None:
        """Collapse to one cumulative bundle (landmark joins)."""
        left, right = key
        self._index = _TagTable(
            np.array([left], dtype=np.int64), np.array([right], dtype=np.int64)
        )
        self._flows = {
            name: _TagTable(
                np.full(len(bat), left, dtype=np.int64),
                np.full(len(bat), right, dtype=np.int64),
                bat,
            )
            for name, bat in bundle.items()
        }

    def __len__(self) -> int:
        return len(self._index)

    def snapshot_state(self) -> dict:
        """Serializable image: the tagged tables as kept — the pair index
        and, per flow, its left tags, right tags and values."""
        return {
            "index": [self._index.left, self._index.right],
            "flows": {
                name: [table.left, table.right, table.values]
                for name, table in self._flows.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self._index = _TagTable(*state["index"])
        self._flows = {
            name: _TagTable(left, right, values)
            for name, (left, right, values) in state["flows"].items()
        }


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
    computes them (the scheduler fires one factory at a time), so it needs
    no lock: ``register`` runs at submit, checkpoints between firings, and
    ``stats()`` readers copy.  Expiry mirrors
    :class:`PartialStore`'s seq discipline: spans are produced in
    nondecreasing start order, so each group keeps its most recent
    ``capacity`` entries by insertion order (``capacity`` is the largest
    live-basic-window count among the sharing queries — a lagging factory
    that misses an evicted span just recomputes it).
    """

    def __init__(self) -> None:
        self._groups: dict[ShareKey, _FragmentGroup] = {}
        self.hits = 0
        self.misses = 0

    def register(self, key: ShareKey, capacity: int) -> None:
        """Declare interest in a share key, widening its ring if needed."""
        if capacity < 1:
            raise SchedulerError(f"fragment cache capacity must be >= 1, got {capacity}")
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
        return self.get_or_compute_run(key, [span], lambda __: [compute()], profiler)[0]

    def get_or_compute_run(
        self,
        key: ShareKey,
        spans: list[Span],
        compute: Callable[[list[int]], list[Bundle]],
        profiler: Optional[Profiler] = None,
    ) -> list[Bundle]:
        """The bundles for consecutive ``spans``, every miss computed by
        one ``compute(missed indices)`` call.

        Hits, misses and the entries kept afterwards are those of looking
        the spans up one by one: each lookup sees the evictions that the
        inserts of the misses before it would have caused.
        """
        try:
            group = self._groups[key]
        except KeyError:
            raise SchedulerError(f"share key {key!r} was never registered") from None
        bundles, capacity = group.bundles, group.capacity
        held = len(bundles)
        # Insertion rank of each held entry, built only once inserts evict.
        ranks: Optional[dict[Span, int]] = None
        fresh: dict[Span, tuple[int, int]] = {}  # rank and index of a miss here
        repeats: list[tuple[int, int]] = []  # a span hitting a miss made here
        out: list[Optional[Bundle]] = []
        missed: list[int] = []
        for index, span in enumerate(spans):
            evicted = held + len(missed) - capacity  # ranks below are gone
            bundle = None
            if span in fresh:
                rank, first = fresh[span]
                if rank >= evicted:
                    repeats.append((index, first))
                    out.append(None)
                    continue
            else:
                bundle = bundles.get(span)
                if bundle is not None and evicted > 0:
                    if ranks is None:
                        ranks = {held_span: rank for rank, held_span in enumerate(bundles)}
                    if ranks[span] < evicted:
                        bundle = None
            out.append(bundle)
            if bundle is None:
                fresh[span] = (held + len(missed), index)
                missed.append(index)
        if missed:
            # A compute() that raises records nothing: a retry is a plain miss.
            for index, bundle in zip(missed, compute(missed)):
                out[index] = bundles[spans[index]] = bundle
                while len(bundles) > capacity:
                    bundles.popitem(last=False)
            for index, first in repeats:
                out[index] = out[first]
        hits = len(spans) - len(missed)
        self.hits += hits
        self.misses += len(missed)
        if profiler is not None:
            if hits:
                profiler.count(COUNTER_CACHE_HITS, hits)
            if missed:
                profiler.count(COUNTER_CACHE_MISSES, len(missed))
        return out  # type: ignore[return-value]  # every None was filled in

    def stats(self) -> dict[str, float]:
        """Totals for benchmark reporting."""
        hits, misses = self.hits, self.misses
        groups = list(self._groups.values())
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "entries": sum(len(g.bundles) for g in groups),
            "groups": len(groups),
        }

    def clear(self) -> None:
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
        groups = [
            {
                "key": list(key),
                "capacity": group.capacity,
                "bundles": [
                    [list(span), dict(bundle)] for span, bundle in group.bundles.items()
                ],
            }
            for key, group in self._groups.items()
        ]
        return {"groups": groups, "hits": self.hits, "misses": self.misses}

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot's entries (replacing any current contents)."""
        self._groups.clear()
        for entry in state["groups"]:
            group = _FragmentGroup(entry["capacity"])
            for span, bundle in entry["bundles"]:
                group.bundles[tuple(span)] = bundle
            self._groups[tuple(entry["key"])] = group
        self.hits = state["hits"]
        self.misses = state["misses"]
