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

Every slide merges the live bundles flat, oldest first, through the
plan's combine program, as Algorithm 2 does.  An invertible plan's
factory keeps a :class:`RunningTable` instead, the combined window, which
adds each new bundle and subtracts each expired one
(:meth:`PartialStore.slide` hands them back; DESIGN.md §17).

A :class:`WindowStore` keeps a prep's stream: a join side's prep rows
or, under re-evaluation, the window's tuples, laid out in one array per
column, so any contiguous seq range of its bundles — the whole window
included — is one view, not a concatenation.

:class:`FragmentCache` extends the same idea *across* queries: factories
whose per-basic-window fragments are alpha-equivalent over the same stream
compute each basic window's bundle once and share the result (BATs are
immutable, so sharing is zero-copy).  Cache entries are addressed by
offsets into the stream's one basket, which every sharer reads through
its own cursor, so an address names the same tuples for all of them
(DESIGN.md §6).

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

from repro.core.rewriter.flows import Flow
from repro.errors import SchedulerError
from repro.kernel.algebra.group import group
from repro.kernel.algebra.setops import concat
from repro.kernel.bat import BAT
from repro.kernel.execution.profiler import (
    COUNTER_CACHE_HITS,
    COUNTER_CACHE_MISSES,
    Profiler,
)

Bundle = dict[str, BAT]


#: Folds an in-order list of bundles into one (the factory's combine
#: program).
Fold = Callable[[list[Bundle]], Bundle]


@dataclass
class PartialStore:
    """Ring of per-basic-window bundles for one (stream's) flow set.

    ``capacity`` is the number of live basic windows ``n``; 0 means
    unbounded (landmark mode keeps a single *cumulative* bundle instead,
    see :meth:`replace_all`).
    """

    capacity: int
    _bundles: "OrderedDict[int, Bundle]" = field(default_factory=OrderedDict)
    _next_seq: int = 0
    #: Entries the last :meth:`cover` returned.
    cover_len: int = 0

    def add(self, bundle: Bundle) -> int:
        """Store the newest bundle; returns its sequence number."""
        return self.slide(bundle)[0]

    def slide(self, bundle: Bundle) -> tuple[int, list[Bundle]]:
        """Store the newest bundle; returns its sequence number and the
        bundles it expired, oldest first (what a running table subtracts)."""
        seq = self._next_seq
        self._next_seq += 1
        self._bundles[seq] = bundle
        gone: list[Bundle] = []
        if self.capacity:
            low = seq - self.capacity
            while self._bundles and next(iter(self._bundles)) <= low:
                gone.append(self._bundles.popitem(last=False)[1])
        return seq, gone

    def live(self) -> list[tuple[int, Bundle]]:
        """Live bundles, oldest first."""
        return list(self._bundles.items())

    def live_seqs(self) -> list[int]:
        return list(self._bundles)

    def cover(self) -> list[Bundle]:
        """The bundles to merge for the current window: the live ones,
        oldest first."""
        out = list(self._bundles.values())
        self.cover_len = len(out)
        return out

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
        """Serializable image: seq counter + live bundles, oldest first."""
        return {
            "next_seq": self._next_seq,
            "bundles": [[seq, dict(bundle)] for seq, bundle in self._bundles.items()],
        }

    def restore_state(self, state: dict) -> None:
        self._next_seq = state["next_seq"]
        self._bundles = OrderedDict(
            (int(seq), bundle) for seq, bundle in state["bundles"]
        )


@dataclass
class WindowStore(PartialStore):
    """A prep store whose live bundles are views into one array per
    column, oldest first, each with its first row there as ``hseq``; a
    contiguous run of them — their concatenation — is then a view too
    (:meth:`view`, :meth:`window`), not a copy per slide or join run.
    Rows are written once, past the newest; a full array is replaced by
    one twice the size of what it must hold, the live bundles re-pointed
    at it, so a view handed out stays valid.  Snapshots are a
    :class:`PartialStore`'s."""

    _arrays: dict[str, np.ndarray] = field(default_factory=dict)
    _fill: int = 0

    def slide(self, bundle: Bundle) -> tuple[int, list[Bundle]]:
        rows = bundle_rows(bundle)
        if not self._arrays or self._fill + rows > len(next(iter(self._arrays.values()))):
            self._rebase(bundle, rows)
        return super().slide(self._put(bundle, rows))

    def view(self, first: int, last: int) -> Bundle:
        """Live bundles ``first .. last`` (seqs) concatenated, per column."""
        end = self.bundle(last)
        return {
            name: BAT(
                self._arrays[name][bat.hseq : end[name].hseq + len(end[name])],
                bat.atom,
                bat.hseq,
            )
            for name, bat in self.bundle(first).items()
        }

    def window(self) -> Bundle:
        """The live bundles' concatenation, per column."""
        return self.view(next(iter(self._bundles)), next(reversed(self._bundles)))

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
        sizes = [bundle_rows(bundle) for bundle in self._bundles.values()]
        size = 2 * max(sum(sizes) + extra, self.capacity * extra)
        self._arrays = {name: np.empty(size, bat.tail.dtype) for name, bat in like.items()}
        self._fill = 0
        for (seq, bundle), rows in zip(list(self._bundles.items()), sizes):
            self._bundles[seq] = self._put(bundle, rows)


def bundle_rows(bundle: Bundle) -> int:
    """The row count of ``bundle``'s columns."""
    return len(next(iter(bundle.values())))


@dataclass
class RunningTable:
    """An invertible plan's window as one combined bundle (DESIGN.md §17).

    Each slide adds the new partial and subtracts the expired ones,
    ``W_t = W_{t-1} + P_new - P_expired`` per group, where the flat merge
    would fold every live partial again.  ``flows`` are group keys and exact
    (int64) sums and counts, whose combine is a sum.  ``weights[i]``
    counts the live partials that hold row ``i``: a group of a grouped
    plan, or flow ``i``'s one row of a global plan.  A row goes when its
    weight reaches 0; a group whose sum is 0 stays.  Integer sums wrap
    like the fold's, and groups keep ascending key order (the order
    ``group.group`` numbers them in), so :attr:`bundle` is, byte for
    byte, what the combine program makes of the live partials.

    Derived state: :meth:`fold` builds it from the live partials (on a
    first window, and on the first slide after a restore); snapshots hold
    only the partials.  An update builds new arrays and never writes to
    the ones :attr:`bundle` has handed out.  ``fold`` arguments are the
    plan's combine program over a list of bundles, passed per call: a
    table owning its factory's bound method would tie the two into a
    reference cycle.
    """

    flows: list[Flow]
    bundle: Bundle
    weights: np.ndarray
    #: Bundles the last fold or update merged (``merge_cover_len``).
    folded: int
    #: One integer group key: a slide whose groups all have rows already
    #: updates them in place (:meth:`_update_in_place`).
    positional: bool = field(init=False)

    def __post_init__(self) -> None:
        keys = [self.bundle[flow.name] for flow in self.flows if flow.kind == "gkey"]
        self.positional = len(keys) == 1 and keys[0].tail.dtype.kind in "iub"

    @classmethod
    def fold(cls, flows: list[Flow], bundles: list[Bundle], fold: Fold) -> "RunningTable":
        """The flat fold of the in-order ``bundles``, weighted."""
        if flows[0].kind == "gkey":
            bundle, weights = _weighted_fold(flows, bundles, fold)
        else:
            bundle = fold(bundles)
            weights = np.array(
                [sum(len(b[flow.name]) for b in bundles) for flow in flows], np.int64
            )
        return cls(flows, bundle, weights, len(bundles))

    def update(self, added: Bundle, expired: list[Bundle], fold: Fold) -> None:
        """Add ``added`` and subtract ``expired`` (one slide)."""
        signed = [(added, 1)] + [(bundle, -1) for bundle in expired]
        self.folded = len(signed)
        if self.flows[0].kind != "gkey":
            self._update_global(signed)
        elif not self._update_in_place(signed):
            self._update_regrouped(signed, fold)

    def _update_global(self, signed: list[tuple[Bundle, int]]) -> None:
        bundle: Bundle = {}
        weights = self.weights.copy()
        for index, flow in enumerate(self.flows):
            bat = self.bundle[flow.name]
            value = bat.tail if len(bat) else np.zeros(1, bat.tail.dtype)
            for part, sign in signed:
                tail = part[flow.name].tail
                if len(tail):
                    value = value + tail if sign > 0 else value - tail
                    weights[index] += sign
            bundle[flow.name] = BAT(value, bat.atom) if weights[index] else BAT.empty(bat.atom)
        self.bundle, self.weights = bundle, weights

    def _update_in_place(self, signed: list[tuple[Bundle, int]]) -> bool:
        """The positional update: every key of the slide's partials is
        already a row (one integer key), so each adds or subtracts at its
        row of a copy.  False, changing nothing, when that does not hold."""
        key = self.flows[0].name
        keys = self.bundle[key].tail
        if not (self.positional and len(keys)):
            return False
        probes = [part[key].tail for part, __ in signed]
        probe = np.concatenate(probes)
        rows = keys.searchsorted(probe)
        if not (keys.take(rows, mode="clip") == probe).all():
            return False
        spans, low = [], 0
        for (part, sign), part_probe in zip(signed, probes):
            spans.append((part, sign, rows[low : low + len(part_probe)]))
            low += len(part_probe)
        bundle = {key: self.bundle[key]}
        for flow in self.flows[1:]:
            bat = self.bundle[flow.name]
            values = bat.tail.copy()
            for part, sign, at in spans:
                (np.add if sign > 0 else np.subtract).at(values, at, part[flow.name].tail)
            bundle[flow.name] = BAT(values, bat.atom)
        weights = self.weights.copy()
        for __, sign, at in spans:
            np.add.at(weights, at, sign)
        self.bundle, self.weights = _kept(bundle, weights)
        return True

    def _update_regrouped(self, signed: list[tuple[Bundle, int]], fold: Fold) -> None:
        """Fold the table with the slide's partials, the expired ones
        negated: the general update (new groups, several keys)."""
        parts, weights = [self.bundle], [self.weights]
        for part, sign in signed:
            if sign < 0:
                part = {
                    flow.name: part[flow.name]
                    if flow.kind == "gkey"
                    else BAT(-part[flow.name].tail, part[flow.name].atom)
                    for flow in self.flows
                }
            parts.append(part)
            weights.append(np.full(bundle_rows(part), sign, np.int64))
        self.bundle, self.weights = _kept(
            *_weighted_fold(self.flows, parts, fold, np.concatenate(weights))
        )


def _weighted_fold(
    flows: list[Flow], bundles: list[Bundle], fold: Fold, weights: Optional[np.ndarray] = None
) -> tuple[Bundle, np.ndarray]:
    """``fold`` of grouped ``bundles``, and each result row's total weight:
    the sum of ``weights`` (one per packed row; ``None``: 1 each) over the
    rows it merged.  The combine program numbers groups as
    ``group.group`` does over the packed keys, so grouping them again
    gives each packed row its result row."""
    bundle = fold(bundles)
    keys = [concat([b[flow.name] for b in bundles]) for flow in flows if flow.kind == "gkey"]
    rows = group(keys).gids.tail
    if weights is None:
        return bundle, np.bincount(rows, minlength=bundle_rows(bundle)).astype(np.int64)
    totals = np.zeros(bundle_rows(bundle), np.int64)
    np.add.at(totals, rows, weights)
    return bundle, totals


def _kept(bundle: Bundle, weights: np.ndarray) -> tuple[Bundle, np.ndarray]:
    """``bundle``'s rows of nonzero weight, and their weights."""
    live = weights != 0
    if live.all():
        return bundle, weights
    return {name: BAT(bat.tail[live], bat.atom) for name, bat in bundle.items()}, weights[live]


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
        older: tuple[int, int] = (0, 0),
    ) -> None:
        """Add the pairs of ``left_seqs × right_seqs`` (both ascending)
        from one tagged join run, but for those between the first
        ``older`` seqs of each side, which were joined before: an
        L-shaped set, every newer left seq with every right seq and every
        older left seq with the newer right seqs.

        ``run``'s flows are row-aligned with the tags, in any order.  A
        pair the run has no row for gets ``empty()``'s rows (computed only
        then).  Every pair must be newer on the right than those its left
        seq already has — true of the bilinear delta, also after a
        landmark compaction.
        """
        lefts = np.asarray(left_seqs, dtype=np.int64)
        rights = np.asarray(right_seqs, dtype=np.int64)
        old_left, old_right = older
        added = (
            (np.arange(len(lefts)) >= old_left)[:, None]
            | (np.arange(len(rights)) >= old_right)[None, :]
        ).ravel()
        grid_left = np.repeat(lefts, len(rights))
        grid_right = np.tile(rights, len(lefts))
        pairs = grid_left[added], grid_right[added]
        if self._index.clashes(*pairs):
            raise SchedulerError("join pairs added out of (left, right) order")
        self._index.insert(*pairs)
        absent = added.copy()
        absent[_pair_codes(left_tags, right_tags, lefts, rights)] = False
        absent = np.flatnonzero(absent)
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

    def forget(self, relation: str) -> None:
        """Drop every group over ``relation``, a stream being dropped: its
        spans are offsets on that stream's basket, and a stream created
        again under the same name counts its offsets from 0 anew."""
        for key in [key for key in self._groups if key[0] == relation]:
            del self._groups[key]

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
