"""Factories — resumable continuous-query executors.

A factory encloses an incremental query plan and produces one result
batch per window slide, exactly like the paper's co-routines: it consumes
basic windows from its input baskets, caches/reuses partial results, and
runs the merge machinery (paper Algorithm 2, generalized).

:class:`IncrementalFactory` is the one implementation, with one firing
step for every plan shape: each stream's new basic windows run through
its per-basic-window program and land in that stream's store.  A
*fragment* plan's stream keeps a ring of partials (and, for an invertible
plan, a running table of the combined window); a *prep*'s stream keeps a
window store, whose contiguous seq ranges read as views.  A join's
*pair fragment* then reads its sides as such views and merges its runs
into a seq-tagged pair table; a plan of preps alone is re-evaluation (the
DataCellR baseline: a prep bundle is a basic window's tuples, and
finalize runs the full plan over the window).

Factories are driven synchronously by the scheduler (or benchmarks):
``ready()`` is the Petri-net firing condition, ``step()`` one transition.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, cast

import numpy as np

from repro.core.basket import Basket, Cursor
from repro.core.partials import (
    Bundle,
    FragmentCache,
    PairStore,
    PartialStore,
    RunningTable,
    ShareKey,
    WindowStore,
    bundle_rows,
)
from repro.core.rewriter.flows import GLOBAL_FRAGMENT
from repro.core.rewriter.incremental import IncrementalPlan, new_slot, packed, prep_slot, seq_slot
from repro.errors import SchedulerError, UnsupportedQueryError
from repro.kernel.algebra.setops import concat
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.execution import InterpreterBackend, kernel_registry
from repro.kernel.execution.profiler import Profiler
from repro.kernel.execution.program import TAG_MERGE, Program
from repro.kernel.storage import Table
from repro.sql.physical import scan_slot

#: Most tuples one tagged fragment (or prep) run covers.  A first window
#: is filled by runs of whole basic windows up to this size: larger runs
#: buy little time and hold a larger run's intermediates at once (the
#: sweep in DESIGN.md §5).  A basic window bigger than this runs alone,
#: through the plain fragment.
TAGGED_RUN_TUPLES = 1 << 16

#: Fewest basic windows a tagged run covers; a shorter run's basic
#: windows run the plain fragment one by one.  Below four, the tagged
#: run's fixed cost (the tag column, the grouped twin of a global flow,
#: the cut) eats what it saves (the measurement in DESIGN.md §5).
TAGGED_RUN_MIN_WINDOWS = 4


@dataclass
class ResultBatch:
    """One window's result: named, aligned output columns."""

    names: list[str]
    columns: dict[str, BAT]
    window_index: int
    response_seconds: float
    breakdown: dict[str, float] = field(default_factory=dict)

    def rows(self) -> list[tuple]:
        """The result as Python row tuples (tests, emitters)."""
        if not self.names:
            return []
        cols = [self.columns[name].to_list() for name in self.names]
        return list(zip(*cols))

    def column(self, name: str) -> list:
        return self.columns[name].to_list()

    def share(self) -> "ResultBatch":
        """Another handle's batch over the same (immutable) columns."""
        return ResultBatch(
            list(self.names),
            dict(self.columns),
            self.window_index,
            self.response_seconds,
            dict(self.breakdown),
        )

    def __len__(self) -> int:
        if not self.names:
            return 0
        return len(self.columns[self.names[0]])


class _TimeSlicer:
    """Tracks time-based basic-window boundaries for one stream."""

    def __init__(self, step_us: int) -> None:
        self.step_us = step_us
        self.origin: Optional[int] = None
        self.consumed_windows = 0

    def observe(self, basket: Basket | Cursor) -> None:
        if self.origin is None and len(basket):
            self.origin = int(basket.timestamps().tail[0])

    def boundary(self, index: int) -> int:
        assert self.origin is not None
        return self.origin + (index + 1) * self.step_us

    @property
    def next_boundary(self) -> Optional[int]:
        if self.origin is None:
            return None
        return self.boundary(self.consumed_windows)


@dataclass
class _Slices:
    """Consecutive basic windows taken off the head of a basket.

    ``columns`` hold all of them: views of one basket chunk, or one copy
    when they span chunks; slice ``i`` is ``counts[i]`` rows from
    ``bounds[i]`` on.
    """

    start: int  # basket position of the first tuple
    columns: dict[str, BAT]
    counts: list[int]
    bounds: list[int]  # running sums of ``counts``, from 0
    tag_slot: str  # input slot of a tagged run's basic-window tag

    def __len__(self) -> int:
        return len(self.counts)

    def spans(self) -> list[tuple[int, int]]:
        """Each slice as ``(basket position, tuple count)``: its address
        in the shared fragment cache."""
        start = self.start
        return [(start + low, count) for low, count in zip(self.bounds, self.counts)]

    def cut(self, first: int, stop: int) -> dict[str, BAT]:
        """The columns of slices ``first .. stop - 1`` (views)."""
        if first == 0 and stop == len(self.counts):
            return dict(self.columns)
        low, high = self.bounds[first], self.bounds[stop]
        return {slot: bat.slice(low, high) for slot, bat in self.columns.items()}

    def runs(self, indices: list[int]) -> list[list[int]]:
        """``indices`` (ascending) in runs of adjacent slices holding at
        most :data:`TAGGED_RUN_TUPLES` tuples, or one slice each."""
        runs: list[list[int]] = []
        size = 0
        for index in indices:
            count = self.counts[index]
            run = runs[-1] if runs else None
            if run and run[-1] + 1 == index and size + count <= TAGGED_RUN_TUPLES:
                run.append(index)
                size += count
            else:
                runs.append([index])
                size = count
        return runs


class FactoryBase:
    """What the scheduler drives: the firing condition, one transition,
    and the counters and baskets it observes around a firing.  Wrappers
    (:class:`~repro.testing.faults.SlowFactory`) and test doubles subclass
    it too; its defaults describe a factory that reads no basket."""

    name: str

    def ready(self) -> bool:
        raise NotImplementedError  # pragma: no cover - interface

    def step(self, profiler: Optional[Profiler] = None) -> Optional[ResultBatch]:
        raise NotImplementedError  # pragma: no cover - interface

    def consumed_total(self) -> int:
        """Monotonic count of stream tuples this factory has consumed.

        The scheduler differences it around a firing to report tuples
        consumed per span; the base offset is irrelevant, only deltas.
        """
        return 0

    def baskets(self) -> tuple[Basket | Cursor, ...]:
        """The baskets (or cursors on them) feeding this factory."""
        return ()


def _split_by_tag(
    names: list[str], outputs: list[BAT], tag: BAT, count: int
) -> list[Optional[Bundle]]:
    """Cut a tagged run's row-aligned outputs, named ``names``, into its
    ``count`` slices' bundles by the ascending ``tag``; ``None`` for a
    slice with no row."""
    cuts = np.searchsorted(tag.tail, np.arange(count + 1)).tolist()
    columns = [(name, bat.tail, bat.atom) for name, bat in zip(names, outputs)]
    return [
        {name: BAT(tail[low:high], atom) for name, tail, atom in columns}
        if high > low
        else None
        for low, high in zip(cuts, cuts[1:])
    ]


class IncrementalFactory(FactoryBase):
    """Executes an :class:`IncrementalPlan` over baskets.

    The transition phase of the paper (shifting ``res1 = res2 ...``) is
    realized by sequence-numbered partial stores; expiry *is* the shift.
    """

    def __init__(
        self,
        plan: IncrementalPlan,
        baskets: dict[str, Basket | Cursor],
        tables: Optional[dict[str, Table]] = None,
        name: str = "factory",
    ) -> None:
        self.name = name
        self.plan = plan
        self.windows = plan.windows
        self._baskets = baskets
        self._tables = tables or {}
        self._interp = InterpreterBackend()
        self._initialized = False
        self.window_index = 0
        # Cross-query fragment sharing (single-stream queries only): the
        # engine wires a shared cache + key; basic windows are addressed by
        # (basket position, tuple count) on the stream's arrival axis.
        self._fragment_cache: Optional[FragmentCache] = None
        self._share_key: Optional[ShareKey] = None
        self._consumed_total = 0
        self._slicers: dict[str, _TimeSlicer] = {}
        for alias, window in plan.windows.items():
            if alias not in baskets:
                raise SchedulerError(f"no basket bound for stream {alias!r}")
            if window.time_based:
                self._slicers[alias] = _TimeSlicer(window.step)
        for alias in plan.scan_columns:
            if alias not in plan.windows and alias not in self._tables:
                raise SchedulerError(f"no table bound for {alias!r}")
        self._table_bundle: Optional[Bundle] = None
        self._empty_pair: Optional[Bundle] = None
        # ready() held and nothing was consumed since: the next step()
        # need not test again (the scheduler tests once per firing).
        self._armed = False
        # An invertible plan's window is its running table, built by the
        # first merge; Fig. 7a clears the flag to measure the paper's flat
        # merge (Algorithm 2) on the same plan.
        self._invertible = plan.invertible
        self._new_stores()

    def _new_stores(self) -> None:
        """Empty window state: one store per stream plus, for a join, the
        pair table.  A prep's stream keeps a :class:`WindowStore`, which
        join runs and finalize read as views; a fragment's stream keeps
        the ring of partials."""
        plan = self.plan
        capacity = {alias: w.basic_windows for alias, w in plan.windows.items()}
        self._stores: dict[str, PartialStore] = {
            alias: (WindowStore if alias in plan.preps else PartialStore)(capacity[alias])
            for alias in plan.stream_aliases
        }
        self._running: Optional[RunningTable] = None
        if plan.pair_fragment is not None:
            left, right = plan.pair_aliases
            self._pairs = PairStore(capacity.get(left, 0), capacity.get(right, 0))

    def ready(self) -> bool:
        """The Petri-net firing condition: every input stream is ready.

        Appends only add tuples, so a ready factory stays ready until it
        consumes; the next :meth:`step` trusts this answer."""
        self._armed = all(self._stream_ready(alias) for alias in self.windows)
        return self._armed

    def _stream_ready(self, alias: str) -> bool:
        """A first full window unread, then one more basic window (time
        windows: the watermark past the next basic-window boundary)."""
        window = self.windows[alias]
        basket = self._baskets[alias]
        if window.time_based:
            slicer = self._slicers[alias]
            slicer.observe(basket)
            watermark = basket.max_timestamp()
            if watermark is None or slicer.origin is None:
                return False
            if not self._initialized and not window.is_landmark:
                return watermark >= slicer.origin + window.size
            boundary = slicer.next_boundary
            return boundary is not None and watermark >= boundary
        first = not (self._initialized or window.is_landmark)
        return len(basket) >= (window.size if first else window.step)

    def consumed_total(self) -> int:
        return self._consumed_total

    def baskets(self) -> tuple[Basket | Cursor, ...]:
        return tuple(self._baskets.values())

    def anchor_time(self, origin: int) -> None:
        """Pin every time-based slicer's window origin.

        Normally a slicer anchors itself at the first tuple that lands in
        its basket.  Under partitioned execution each partition sees only
        a subset of the stream, so per-basket anchoring would misalign
        window boundaries across partitions; the coordinator broadcasts
        one shared origin (0 for the virtual count axis, the stream's
        first arrival timestamp otherwise) before any data arrives.
        Idempotent: an already-anchored slicer keeps its origin.
        """
        for slicer in self._slicers.values():
            if slicer.origin is None:
                slicer.origin = origin

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(
        self, profiler: Optional[Profiler] = None, chunks: Optional[int] = None
    ) -> Optional[ResultBatch]:
        """Consume one slide's worth of input and emit the window result.

        ``chunks=m`` is the paper's m-chunk optimization (§3 "Optimized
        Incremental Plans"): the newest basic window is processed in ``m``
        pieces.  Chunks 0..m-2 model work done *while tuples stream in*;
        only the last chunk plus all merging counts toward the reported
        response time — exactly the latency the paper's Figure 8 measures.
        Only single-stream count-based sliding queries support it.
        """
        chunks = self._check_chunks(chunks) if chunks is not None else 1
        if not (self._armed or self.ready()):
            return None
        self._armed = False
        profiler = profiler if profiler is not None else Profiler()
        start = time.perf_counter()
        if chunks == 1 or not self._initialized:
            self._step_streams(profiler)  # incl. the preface: plain first window
        else:
            start = self._step_single_chunked(chunks, profiler)
        batch = self._merge_and_finalize(profiler)
        batch.response_seconds = time.perf_counter() - start
        batch.breakdown = profiler.tags()
        self.window_index += 1
        batch.window_index = self.window_index
        self._initialized = True
        return batch

    # -- fragment sharing ---------------------------------------------------
    def enable_fragment_sharing(self, cache: FragmentCache, key: ShareKey) -> None:
        """Share per-basic-window fragment bundles through ``cache``.

        Spans are cursor positions on the stream's one basket, so they
        name the same tuples for every sharer.  Plans with a fragment only.
        """
        if self.plan.fragment is None:
            raise UnsupportedQueryError("fragment sharing needs a fragment")
        self._fragment_cache = cache
        self._share_key = key

    @property
    def shares_fragments(self) -> bool:
        return self._fragment_cache is not None

    # -- one step ---------------------------------------------------------
    def _step_streams(self, profiler: Profiler) -> None:
        """Add every stream's owed basic windows to its store, each bundle
        made by the stream's per-basic-window program.  A join then joins
        them in one run of the tagged pair fragment (the bilinear delta
        rule: new left × every live right and older live left × new
        right)."""
        new: dict[str, list[int]] = {}
        for alias in self._stores:
            slices = self._take_slices(alias, self._owed_counts(alias))
            new[alias] = [
                self._add(alias, bundle, profiler)
                for bundle in self._bundles(alias, slices, profiler)
            ]
        if self.plan.pair_fragment is None:
            return
        table = self.plan.table_alias
        if table is not None and self._table_bundle is None:
            self._table_bundle = self._run(table, self._scan(table), profiler)
        left, right = self.plan.pair_aliases
        self._join_run(new, profiler)
        self._pairs.expire(self._newest_seq(left), self._newest_seq(right))

    def _check_chunks(self, m: int) -> int:
        """Validate an m-chunk request; returns ``m`` capped at the step."""
        if self.plan.fragment is None:
            raise UnsupportedQueryError("m-chunk processing needs a fragment")
        window = self.plan.windows[self.plan.stream_aliases[0]]
        if window.time_based or window.is_landmark:
            raise UnsupportedQueryError(
                "m-chunk processing needs a count-based sliding window"
            )
        if m < 1:
            raise UnsupportedQueryError("m must be >= 1")
        return min(m, window.step)

    def _step_single_chunked(self, m: int, profiler: Profiler) -> float:
        """Add the newest basic window's bundle, computed in ``m`` chunks
        merged by the *combine* program (bundle closure).  Returns the
        instant the response clock starts: just before the last chunk.

        Chunk slices are not basic-window aligned, so the shared fragment
        cache is bypassed; the early chunks are charged to a throwaway
        profiler since they are not part of the response.
        """
        alias = self.plan.stream_aliases[0]
        step_size = self.plan.windows[alias].step
        sizes = [step_size // m] * m
        sizes[-1] += step_size - sum(sizes)
        early = Profiler()
        slices = self._take_slices(alias, sizes)
        bundles = [
            self._run(alias, slices.cut(index, index + 1), early)
            for index in range(m - 1)
        ]
        start = time.perf_counter()
        bundles.append(self._run(alias, slices.cut(m - 1, m), profiler))
        self._add(alias, self._fold_bundles(bundles, profiler), profiler)
        return start

    def _add(self, alias: str, bundle: Bundle, profiler: Profiler) -> int:
        """Add ``bundle`` to ``alias``'s store, and to the running table
        with what the store expired; returns its seq.  The update is
        merge work: its time, a fold through combine included, is charged
        to the ``merge`` tag once."""
        seq, expired = self._stores[alias].slide(bundle)
        if self._running is not None:
            start = time.perf_counter()
            self._running.update(bundle, expired, self._fold_bundles)
            profiler.record(TAG_MERGE, "running.update", time.perf_counter() - start)
        return seq

    def _programs(self, alias: str) -> tuple[Program, Optional[Program], list[str]]:
        """Stream (or table) ``alias``'s per-basic-window program — its
        prep, or the fragment — with its tagged twin and output names."""
        spec = self.plan.preps.get(alias)
        if spec is not None:
            return spec.program, spec.tagged, spec.columns
        assert self.plan.fragment is not None
        names = [flow.name for flow in self.plan.flows]
        return self.plan.fragment, self.plan.tagged_fragment, names

    def _run(self, alias: str, cols: dict[str, BAT], profiler: Profiler) -> Bundle:
        """One run of ``alias``'s per-basic-window program over ``cols``."""
        program, __, names = self._programs(alias)
        outputs = self._interp.run(program, cols, profiler)
        return {name: outputs[slot] for name, slot in zip(names, program.outputs)}

    def _bundles(self, alias: str, slices: _Slices, profiler: Profiler) -> list[Bundle]:
        """The bundles of the basic windows in ``slices``: cached ones
        looked up first (when shared), the rest computed by
        :meth:`_run_slices`."""
        def compute(indices: list[int]) -> list[Bundle]:
            return self._run_slices(alias, slices, indices, profiler)

        if self._fragment_cache is None:
            return compute(list(range(len(slices))))
        return self._fragment_cache.get_or_compute_run(
            self._share_key, slices.spans(), compute, profiler
        )

    def _run_slices(
        self, alias: str, slices: _Slices, indices: list[int], profiler: Profiler
    ) -> list[Bundle]:
        """The bundles of slices ``indices``, in order: one run of the
        tagged program per run of adjacent slices, cut by its tag, and
        the plain program per slice of a shorter run than
        :data:`TAGGED_RUN_MIN_WINDOWS`.  A slice the tagged run
        yields no row for gets the plain program's result on empty
        columns (a 0 count, no sum/min/max row)."""
        __, tagged, names = self._programs(alias)
        bundles: list[Bundle] = []
        empty: Optional[Bundle] = None
        for run in slices.runs(indices):
            if len(run) < TAGGED_RUN_MIN_WINDOWS:
                bundles += [self._run(alias, slices.cut(i, i + 1), profiler) for i in run]
                continue
            assert tagged is not None
            cols = slices.cut(run[0], run[-1] + 1)
            sizes = slices.counts[run[0] : run[-1] + 1]
            cols[slices.tag_slot] = BAT(
                np.repeat(np.arange(len(run), dtype=np.int64), sizes),
                Atom.INT,
                next(iter(cols.values())).hseq,
            )
            outputs = self._interp.run(tagged, cols, profiler)
            outs = [outputs[slot] for slot in tagged.outputs]
            for bundle in _split_by_tag(names, outs[:-1], outs[-1], len(run)):
                if bundle is None:
                    if empty is None:
                        empty = self._run(
                            alias,
                            {slot: BAT.empty(bat.atom) for slot, bat in slices.columns.items()},
                            profiler,
                        )
                    bundle = empty
                bundles.append(bundle)
        return bundles

    def _take_slices(self, alias: str, counts: list[int]) -> _Slices:
        """Consume ``counts`` tuples at a time off the head of the basket.

        Under the basket lock, the whole range is read once and deleted
        with one ``delete_head``.  Basket chunks are never written again,
        so the columns stay valid after the lock is released, and
        fragments run outside it.  A slice's start is the basket position
        it starts at, its address on the stream's arrival axis (for the
        shared fragment cache).
        """
        basket = self._baskets[alias]
        bounds = [0, *itertools.accumulate(counts)]
        with basket.locked():
            start = basket.position
            columns = {
                scan_slot(alias, col): bat
                for col, bat in basket.head_slice(
                    bounds[-1], self.plan.scan_columns[alias]
                ).items()
            }
            basket.delete_head(bounds[-1])
        self._consumed_total += bounds[-1]
        return _Slices(start, columns, counts, bounds, seq_slot(alias))

    def _owed_counts(self, alias: str) -> list[int]:
        """Tuple counts of the basic windows to consume this step."""
        window = self.plan.windows[alias]
        basket = self._baskets[alias]
        if window.time_based:
            slicer = self._slicers[alias]
            counts = []
            owed = 1
            if not self._initialized and not window.is_landmark:
                owed = window.basic_windows
            consumed = 0  # count_before counts from the basket head
            for __ in range(owed):
                boundary = slicer.boundary(slicer.consumed_windows)
                total = basket.count_before(boundary)
                counts.append(total - consumed)
                consumed = total
                slicer.consumed_windows += 1
            return counts
        if window.is_landmark or self._initialized:
            return [window.step]
        return [window.step] * window.basic_windows

    # -- prep stores and joins --------------------------------------------
    def _side(self, alias: str, seqs: list[int]) -> tuple[Bundle, np.ndarray]:
        """Join side ``alias`` over its basic windows ``seqs`` (a
        contiguous live run): one view of their prep rows, and each one's
        row count.  A base table is one basic window, seq 0."""
        if alias == self.plan.table_alias:
            assert self._table_bundle is not None
            return self._table_bundle, np.array([bundle_rows(self._table_bundle)])
        store = cast(WindowStore, self._stores[alias])
        sizes = np.array([bundle_rows(store.bundle(seq)) for seq in seqs], dtype=np.int64)
        return store.view(seqs[0], seqs[-1]), sizes

    def _side_seqs(self, alias: str) -> list[int]:
        return [0] if alias == self.plan.table_alias else self._stores[alias].live_seqs()

    def _newest_seq(self, alias: str) -> int:
        seq = None if alias == self.plan.table_alias else self._stores[alias].newest_seq
        return seq or 0

    def _scan(self, alias: str) -> dict[str, BAT]:
        """Base table ``alias``'s columns the plan reads, by scan slot."""
        table = self._tables[alias]
        return {scan_slot(alias, c): table.column(c) for c in self.plan.scan_columns[alias]}

    def _join_run(self, new: dict[str, list[int]], profiler: Profiler) -> None:
        """Join this slide's ``new`` basic windows in one run of the pair
        fragment and merge the tagged result into the pair table.

        Each side is read as one view of its live prep rows, tagged with
        their seqs, and the join emits the pairs with a new row on either
        side: new left × every live right and older left × new right.
        With no new right rows (a base table) the left side is read from
        its first new basic window on."""
        left, right = self.plan.pair_aliases
        seqs = {alias: self._side_seqs(alias) for alias in (left, right)}
        if not new.get(right):
            seqs[left] = new[left]
        inputs: dict[str, object] = {}
        older: list[int] = []  # per side, its basic windows joined before
        for alias in (left, right):
            side, sizes = self._side(alias, seqs[alias])
            for column in self.plan.preps[alias].columns:
                inputs[prep_slot(alias, column)] = side[column]
            inputs[seq_slot(alias)] = BAT(
                np.repeat(np.asarray(seqs[alias], dtype=np.int64), sizes),
                Atom.INT,
                next(iter(side.values())).hseq,
            )
            fresh = new.get(alias)
            older.append(seqs[alias].index(fresh[0]) if fresh else len(seqs[alias]))
            inputs[new_slot(alias)] = int(sizes[: older[-1]].sum())
        fragment = self.plan.pair_fragment
        assert fragment is not None
        outputs = self._interp.run(fragment, inputs, profiler)
        self._pairs.add(
            seqs[left],
            seqs[right],
            {
                flow.name: outputs[slot]
                for flow, slot in zip(self.plan.flows, fragment.outputs)
            },
            outputs[fragment.outputs[-2]].tail,
            outputs[fragment.outputs[-1]].tail,
            lambda: self._empty_pair_bundle(inputs, profiler),
            (older[0], older[1]),
        )

    def _empty_pair_bundle(self, inputs: dict[str, object], profiler: Profiler) -> Bundle:
        """The bundle of a pair with no joined rows: the pair fragment on
        empty prep columns, global flows reduced over no rows (a 0 count,
        no sum/min/max row) — what a join of that pair alone yields."""
        if self._empty_pair is None:
            fragment = self.plan.pair_fragment
            assert fragment is not None
            outputs = self._interp.run(
                fragment,
                {
                    slot: BAT.empty(value.atom) if isinstance(value, BAT) else 0
                    for slot, value in inputs.items()
                },
                profiler,
            )
            kernel = kernel_registry()
            self._empty_pair = {
                flow.name: (
                    kernel[GLOBAL_FRAGMENT[flow.kind]](outputs[slot])
                    if flow.kind in GLOBAL_FRAGMENT
                    else outputs[slot]
                )
                for flow, slot in zip(self.plan.flows, fragment.outputs)
            }
        return self._empty_pair

    # -- merge ------------------------------------------------------
    def _live_bundles(self) -> list[Bundle]:
        """The in-order bundles whose merge is the current window: a
        single-stream store's live partials (Algorithm 2's flat merge),
        or a join's pair table, which already is every live pair's rows
        in merge order."""
        if self.plan.pair_fragment is not None:
            return [self._pairs.table()] if len(self._pairs) else []
        return self._stores[self.plan.stream_aliases[0]].cover()

    def _pack_flows(self, bundles: list[Bundle], profiler: Profiler) -> dict[str, BAT]:
        """Concatenate each flow's partials across live bundles."""
        packed_cols: dict[str, BAT] = {}
        for flow in self.plan.flows:
            start = time.perf_counter()
            packed_cols[packed(flow.name)] = concat(
                [bundle[flow.name] for bundle in bundles]
            )
            profiler.record(TAG_MERGE, "mat.pack", time.perf_counter() - start)
        return packed_cols

    def _merge_and_finalize(self, profiler: Profiler) -> ResultBatch:
        if self.plan.fragment is None and self.plan.pair_fragment is None:
            inputs = self._window_inputs()
        elif self._invertible:
            inputs = self._running_bundle(profiler)
        else:
            bundles = self._live_bundles()
            if not bundles:
                raise SchedulerError("no live partials to merge")
            inputs = self._fold_bundles(bundles, profiler)
            if self._compactable:
                self._compact_landmark(inputs)
        outputs = self._interp.run(self.plan.finalize, inputs, profiler)
        columns = {
            name: outputs[slot]
            for name, slot in zip(self.plan.output_names, self.plan.finalize.outputs)
        }
        return ResultBatch(
            names=list(self.plan.output_names),
            columns=columns,
            window_index=self.window_index,
            response_seconds=0.0,
        )

    def _running_bundle(self, profiler: Profiler) -> Bundle:
        """An invertible plan's combined window: the running table, built
        by one flat fold of the live partials when there is none yet (a
        first window, the first slide after a restore)."""
        if self._running is None:
            store = self._stores[self.plan.stream_aliases[0]]
            if not len(store):
                raise SchedulerError("no live partials to merge")
            start = time.perf_counter()
            self._running = RunningTable.fold(
                self.plan.flows, [bundle for __, bundle in store.live()], self._fold_bundles
            )
            profiler.record(TAG_MERGE, "running.fold", time.perf_counter() - start)
        return self._running.bundle

    def _window_inputs(self) -> dict[str, BAT]:
        """A prep-only plan's finalize inputs: each stream's window (a
        view of its live prep bundles) and the base tables' columns, by
        scan slot.  A landmark stream's store collapses to its window."""
        inputs: dict[str, BAT] = {}
        for alias, store in self._stores.items():
            window = cast(WindowStore, store).window()
            if self.plan.windows[alias].is_landmark:
                store.replace_all(window)
            inputs.update({scan_slot(alias, c): bat for c, bat in window.items()})
        for alias in self._tables:
            inputs.update(self._scan(alias))
        return inputs

    @property
    def _is_landmark(self) -> bool:
        return any(w.is_landmark for w in self.plan.windows.values())

    def _fold_bundles(
        self, bundles: list[Bundle], profiler: Optional[Profiler] = None
    ) -> Bundle:
        """Fold an in-order run of bundles through the combine program.

        Sound for any contiguous run: combine is an associative,
        order-preserving n-ary merge by construction — it runs over a
        varying number of live bundles every firing, and landmark
        compaction already feeds its output back as a later input.
        Pre-merging (m-chunk partials) therefore reproduces the flat
        merge bit-for-bit for integer sums, counts, min/max and group
        keys; float sums are equal only up to reassociation (last-ulp).
        """
        if profiler is None:
            profiler = Profiler()
        packed_cols = self._pack_flows(bundles, profiler)
        combined = self._interp.run(self.plan.combine, packed_cols, profiler)
        return {flow.name: combined[flow.name] for flow in self.plan.flows}

    def merge_stats(self) -> Optional[dict]:
        """The merge gauge of a single-stream ring store (METRICS.md);
        ``None`` for a plan without a fragment.  ``merge_cover_len`` is
        the partials the last firing merged: the window's ``n`` for a
        flat merge, and for a running table the ones its last update
        folded (the new and the expired ones), or ``n`` on a fold."""
        if self.plan.fragment is None:
            return None
        if self._invertible:
            return {"merge_cover_len": self._running.folded if self._running is not None else 0}
        return {"merge_cover_len": self._stores[self.plan.stream_aliases[0]].cover_len}

    @property
    def _compactable(self) -> bool:
        """Landmark compaction collapses all partials into one cumulative
        bundle, which is only sound when *no* stream input ever expires —
        a landmark ⋈ sliding join must keep per-pair partials so the
        sliding side's expiry can drop stale pairs (found by `repro
        fuzz`: the compacted bundle froze pairs built from basic windows
        that later slid out of focus)."""
        return all(w.is_landmark for w in self.plan.windows.values())

    def _compact_landmark(self, bundle: Bundle) -> None:
        """Replace all cached partials with the cumulative combined bundle."""
        if self.plan.pair_fragment is not None:
            left, right = self.plan.pair_aliases
            key = (self._newest_seq(left), self._newest_seq(right))
            self._pairs.replace_all(dict(bundle), key)
        else:
            self._stores[self.plan.stream_aliases[0]].replace_all(dict(bundle))

    # ------------------------------------------------------------------
    # durability (checkpoint/restore)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable execution state (see :mod:`repro.core.durability`).

        Everything a freshly-submitted twin of this query needs to
        continue mid-stream: the window counter, time-slicer anchors, and
        each stream's store and a join's pair table (read positions live
        in the engine's cursors).  The
        cached table bundle is *not* captured — it is recomputed lazily
        from the restored base tables on the first post-restore join step.
        """
        state: dict = {
            "window_index": self.window_index,
            "initialized": self._initialized,
            "slicers": {
                alias: [slicer.origin, slicer.consumed_windows]
                for alias, slicer in self._slicers.items()
            },
        }
        state["stores"] = {
            alias: store.snapshot_state() for alias, store in self._stores.items()
        }
        if self.plan.pair_fragment is not None:
            state["pairs"] = self._pairs.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot's execution state (inverse of the above)."""
        self._armed = False
        self.window_index = state["window_index"]
        self._initialized = state["initialized"]
        for alias, (origin, consumed_windows) in state["slicers"].items():
            slicer = self._slicers[alias]
            slicer.origin = origin
            slicer.consumed_windows = consumed_windows
        for alias, store in self._stores.items():
            store.restore_state(state["stores"][alias])
        self._running = None
        if self.plan.pair_fragment is not None:
            self._pairs.restore_state(state["pairs"])
            self._table_bundle = None

    # ------------------------------------------------------------------
    # landmark reset (paper §3 "Landmark Window Queries": tuples expire
    # "at most very infrequently, and then all past tuples expire by
    # resetting the global landmark")
    # ------------------------------------------------------------------
    def reset_landmark(self) -> None:
        """Move the landmark to now: discard all accumulated partials.

        The next result covers only tuples arriving after the reset.  Only
        valid for queries whose *every* window is landmark: on a mixed
        landmark ⋈ sliding join the reset would also discard the sliding
        side's partials — windows that have not expired and must keep
        contributing — so that shape is rejected instead of silently
        corrupting the sliding state.
        """
        if not self._is_landmark:
            raise UnsupportedQueryError("reset_landmark needs a landmark window")
        if not self._compactable:
            raise UnsupportedQueryError(
                "reset_landmark on a landmark/sliding join would discard the "
                "sliding side's live partials; resubmit the query instead"
            )
        self._new_stores()
        self._armed = False
        for alias, slicer in self._slicers.items():
            # Re-anchor time slicing at the next arrival after the reset.
            remaining = self._baskets[alias]
            slicer.origin = None
            slicer.consumed_windows = 0
            slicer.observe(remaining)

    def step_chunked(
        self, m: int, profiler: Optional[Profiler] = None
    ) -> Optional[ResultBatch]:
        """One slide processing the newest basic window in ``m`` chunks
        (:meth:`step` with ``chunks=m``)."""
        return self.step(profiler, chunks=m)
