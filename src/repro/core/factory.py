"""Factories — resumable continuous-query executors.

A factory encloses an incremental query plan and produces one result
batch per window slide, exactly like the paper's co-routines: it consumes
basic windows from its input baskets, caches/reuses partial results, and
runs the merge machinery (paper Algorithm 2, generalized).

:class:`IncrementalFactory` is the one implementation.  The programs its
plan has pick a firing's steps: a *fragment* (a single stream's ring of
per-basic-window partials), *preps* and a *pair fragment* (a join's
seq-tagged pair table), or *preps* alone (re-evaluation, the DataCellR
baseline: a prep bundle is a basic window's tuples, and finalize runs
the full plan over the window).

Factories are driven synchronously by the scheduler (or benchmarks):
``ready()`` is the Petri-net firing condition, ``step()`` one transition.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.basket import Basket, Cursor
from repro.core.partials import (
    Bundle,
    FragmentCache,
    PairStore,
    PartialStore,
    ShareKey,
    WindowStore,
    merge_levels,
)
from repro.core.rewriter.flows import GLOBAL_FRAGMENT
from repro.core.rewriter.incremental import IncrementalPlan, packed, prep_slot, seq_slot
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

    ``columns`` are one copy of all of them, owned by the factory; slice
    ``i`` is ``counts[i]`` rows from ``bounds[i]`` on.
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
        self._new_stores()

    def _new_stores(self) -> None:
        """Empty window state: the single-stream partial ring, or one prep
        store per stream plus, for a join, the pair table.

        The ring arms the merge tree where a pre-merged node is smaller
        than its children: combines that compensate.  A concatenating
        combine would only copy the window, so those flows stay flat; so
        does every window too shallow to seal a level (``merge_levels``,
        landmark included)."""
        plan = self.plan
        capacity = {alias: w.basic_windows for alias, w in plan.windows.items()}
        if plan.fragment is not None:
            n = capacity[plan.stream_aliases[0]]
            self._store = PartialStore(n, levels=merge_levels(n) if plan.compensates else 0)
            return
        # A prep-only plan (re-evaluation) reads each stream's window whole.
        store = PartialStore if plan.pair_fragment is not None else WindowStore
        self._prep_stores = {alias: store(capacity[alias]) for alias in plan.stream_aliases}
        if plan.pair_fragment is not None:
            left, right = plan.pair_aliases
            self._pairs = PairStore(capacity.get(left, 0), capacity.get(right, 0))

    def ready(self) -> bool:
        """The Petri-net firing condition: every input stream is ready."""
        return all(self._stream_ready(alias) for alias in self.windows)

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
        if not self.ready():
            return None
        profiler = profiler if profiler is not None else Profiler()
        start = time.perf_counter()
        if self.plan.fragment is None:
            self._step_preps(profiler)
        elif chunks == 1 or not self._initialized:
            self._step_single(profiler)  # incl. the preface: plain first window
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

    # -- single stream ------------------------------------------------------
    def _step_single(self, profiler: Profiler) -> None:
        alias = self.plan.stream_aliases[0]
        slices = self._take_slices(alias, self._owed_counts(alias))
        for bundle in self._fill_bundles(slices, profiler):
            self._store.add(bundle)

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
            self._run_fragment(slices.cut(index, index + 1), early)
            for index in range(m - 1)
        ]
        start = time.perf_counter()
        bundles.append(self._run_fragment(slices.cut(m - 1, m), profiler))
        self._store.add(self._fold_bundles(bundles, profiler))
        return start

    def _fill_bundles(self, slices: _Slices, profiler: Profiler) -> list[Bundle]:
        """The bundles of the basic windows in ``slices``: cached ones
        looked up first (when shared), the rest computed by
        :meth:`_run_slices`."""
        def compute(indices: list[int]) -> list[Bundle]:
            fragment = self.plan.tagged_fragment
            assert fragment is not None
            names = [flow.name for flow in self.plan.flows]
            return self._run_slices(
                slices, indices, fragment, names, self._run_fragment, profiler
            )

        if self._fragment_cache is None:
            return compute(list(range(len(slices))))
        return self._fragment_cache.get_or_compute_run(
            self._share_key, slices.spans(), compute, profiler
        )

    def _run_slices(
        self,
        slices: _Slices,
        indices: list[int],
        tagged: Program,
        names: list[str],
        plain: Callable[[dict[str, BAT], Profiler], Bundle],
        profiler: Profiler,
    ) -> list[Bundle]:
        """The bundles of slices ``indices``, in order: one run of the
        ``tagged`` program per run of adjacent slices, cut by its tag, and
        the ``plain`` program per slice of a shorter run than
        :data:`TAGGED_RUN_MIN_WINDOWS`.  A slice the tagged run
        yields no row for gets the plain program's result on empty
        columns (a 0 count, no sum/min/max row)."""
        bundles: list[Bundle] = []
        empty: Optional[Bundle] = None
        for run in slices.runs(indices):
            if len(run) < TAGGED_RUN_MIN_WINDOWS:
                bundles += [plain(slices.cut(index, index + 1), profiler) for index in run]
                continue
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
                        empty = plain(
                            {slot: BAT.empty(bat.atom) for slot, bat in slices.columns.items()},
                            profiler,
                        )
                    bundle = empty
                bundles.append(bundle)
        return bundles

    def _take_slices(self, alias: str, counts: list[int]) -> _Slices:
        """Consume ``counts`` tuples at a time off the head of the basket.

        Under the basket lock, the whole range is copied once and deleted
        with one ``delete_head``: deleting slice by slice would compact
        the basket once per slice, quadratic in a first window.  The
        slices are views of that copy, so fragments run after the lock
        is released.  A slice's start is the basket position it starts
        at, its address on the stream's arrival axis (for the shared
        fragment cache).
        """
        basket = self._baskets[alias]
        bounds = [0, *itertools.accumulate(counts)]
        with basket.locked():
            start = basket.position
            columns = {
                scan_slot(alias, col): BAT(np.array(bat.tail, copy=True), bat.atom, bat.hseq)
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

    def _run_fragment(self, cols: dict[str, BAT], profiler: Profiler) -> Bundle:
        assert self.plan.fragment is not None
        outputs = self._interp.run(self.plan.fragment, cols, profiler)
        return {
            flow.name: outputs[slot]
            for flow, slot in zip(self.plan.flows, self.plan.fragment.outputs)
        }

    # -- preps and joins --------------------------------------------------
    def _step_preps(self, profiler: Profiler) -> None:
        """Prep every stream's new basic windows into its prep store; a
        join then joins them in at most two runs of the tagged pair
        fragment (the bilinear delta rule: new left × every live right,
        then older live left × new right)."""
        new: dict[str, list[int]] = {}
        for alias in self.plan.stream_aliases:
            slices = self._take_slices(alias, self._owed_counts(alias))
            new[alias] = [
                self._prep_stores[alias].add(bundle)
                for bundle in self._prep_bundles(alias, slices, profiler)
            ]
        if self.plan.pair_fragment is None:
            return
        if self.plan.table_alias is not None and self._table_bundle is None:
            self._table_bundle = self._run_table_prep(profiler)
        left, right = self.plan.pair_aliases
        self._join_run(new[left], self._side_seqs(right), profiler)
        new_right = new.get(right, [])
        older_left = [seq for seq in self._side_seqs(left) if seq < new[left][0]]
        if new_right and older_left:
            self._join_run(older_left, new_right, profiler)
        self._expire_pairs()

    def _side_bundle(self, alias: str, seq: int) -> Bundle:
        if alias == self.plan.table_alias:
            assert self._table_bundle is not None
            return self._table_bundle
        return self._prep_stores[alias].bundle(seq)

    def _side_seqs(self, alias: str) -> list[int]:
        if alias == self.plan.table_alias:
            return [0]
        return self._prep_stores[alias].live_seqs()

    def _newest_seq(self, alias: str) -> int:
        if alias == self.plan.table_alias:
            return 0
        seq = self._prep_stores[alias].newest_seq
        return seq if seq is not None else 0

    def _expire_pairs(self) -> None:
        left, right = self.plan.pair_aliases
        self._pairs.expire(self._newest_seq(left), self._newest_seq(right))

    def _run_prep(
        self, alias: str, cols: dict[str, BAT], profiler: Profiler
    ) -> Bundle:
        spec = self.plan.preps[alias]
        outputs = self._interp.run(spec.program, cols, profiler)
        return {
            column: outputs[slot]
            for column, slot in zip(spec.columns, spec.program.outputs)
        }

    def _prep_bundles(
        self, alias: str, slices: _Slices, profiler: Profiler
    ) -> list[Bundle]:
        """The prep bundles of every slice, from tagged prep runs."""
        spec = self.plan.preps[alias]
        assert spec.tagged is not None
        return self._run_slices(
            slices,
            list(range(len(slices))),
            spec.tagged,
            spec.columns,
            lambda cols, profiler: self._run_prep(alias, cols, profiler),
            profiler,
        )

    def _run_table_prep(self, profiler: Profiler) -> Bundle:
        alias = self.plan.table_alias
        assert alias is not None
        table = self._tables[alias]
        cols = {
            scan_slot(alias, col): table.column(col)
            for col in self.plan.scan_columns[alias]
        }
        return self._run_prep(alias, cols, profiler)

    def _join_run(
        self, left_seqs: list[int], right_seqs: list[int], profiler: Profiler
    ) -> None:
        """Join the seq-tagged concatenations of two runs of prep bundles
        once, and merge the tagged result into the pair table."""
        left, right = self.plan.pair_aliases
        inputs: dict[str, BAT] = {}
        for alias, seqs in ((left, left_seqs), (right, right_seqs)):
            bundles = [self._side_bundle(alias, seq) for seq in seqs]
            for column in self.plan.preps[alias].columns:
                inputs[prep_slot(alias, column)] = concat(
                    [bundle[column] for bundle in bundles]
                )
            sizes = [len(next(iter(bundle.values()))) for bundle in bundles]
            inputs[seq_slot(alias)] = BAT(
                np.repeat(np.asarray(seqs, dtype=np.int64), sizes), Atom.INT
            )
        fragment = self.plan.pair_fragment
        assert fragment is not None
        outputs = self._interp.run(fragment, inputs, profiler)
        self._pairs.add(
            left_seqs,
            right_seqs,
            {
                flow.name: outputs[slot]
                for flow, slot in zip(self.plan.flows, fragment.outputs)
            },
            outputs[fragment.outputs[-2]].tail,
            outputs[fragment.outputs[-1]].tail,
            lambda: self._empty_pair_bundle(inputs, profiler),
        )

    def _empty_pair_bundle(self, inputs: dict[str, BAT], profiler: Profiler) -> Bundle:
        """The bundle of a pair with no joined rows: the pair fragment on
        empty prep columns, global flows reduced over no rows (a 0 count,
        no sum/min/max row) — what a join of that pair alone yields."""
        if self._empty_pair is None:
            fragment = self.plan.pair_fragment
            assert fragment is not None
            outputs = self._interp.run(
                fragment, {slot: BAT.empty(bat.atom) for slot, bat in inputs.items()}, profiler
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
    def _live_bundles(self, profiler: Optional[Profiler] = None) -> list[Bundle]:
        """The in-order bundles whose merge is the current window.

        Single-stream stores answer with their cover — all live singles,
        or fewer pre-merged tree nodes (sealed on demand, charged to
        ``profiler``) that tile the same basic windows.  A join's pair
        table already is every live pair's rows in merge order."""
        if self.plan.pair_fragment is not None:
            return [self._pairs.table()] if len(self._pairs) else []
        return self._store.cover(
            lambda bundles: self._fold_bundles(bundles, profiler)
        )

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
        else:
            bundles = self._live_bundles(profiler)
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

    def _window_inputs(self) -> dict[str, BAT]:
        """A prep-only plan's finalize inputs: each stream's window (its
        live prep bundles' concatenation) and the base tables' columns, by
        scan slot.  A landmark stream's store collapses to its window."""
        inputs: dict[str, BAT] = {}
        for alias, store in self._prep_stores.items():
            assert isinstance(store, WindowStore)
            window = store.window()
            if self.plan.windows[alias].is_landmark:
                store.replace_all(window)
            inputs.update({scan_slot(alias, c): bat for c, bat in window.items()})
        for alias, table in self._tables.items():
            for column in self.plan.scan_columns[alias]:
                inputs[scan_slot(alias, column)] = table.column(column)
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
        Pre-merging (merge-tree nodes, m-chunk partials) therefore
        reproduces the flat merge bit-for-bit for integer sums, counts,
        min/max and group keys; float sums are equal only up to
        reassociation (last-ulp), which is why tree nodes sit on aligned
        seq ranges — the association order is then a function of the
        window alone, not of when a node was folded.
        """
        if profiler is None:
            profiler = Profiler()
        packed_cols = self._pack_flows(bundles, profiler)
        combined = self._interp.run(self.plan.combine, packed_cols, profiler)
        return {flow.name: combined[flow.name] for flow in self.plan.flows}

    def merge_stats(self) -> Optional[dict]:
        """Merge-tree gauges of a single-stream ring store (METRICS.md);
        ``None`` for a plan without a fragment."""
        if self.plan.fragment is None:
            return None
        store = self._store
        return {
            "merge_cover_len": store.cover_len,
            "merge_nodes_sealed": store.nodes_sealed,
            "merge_nodes_live": store.nodes_live,
        }

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
            self._store.replace_all(dict(bundle))

    # ------------------------------------------------------------------
    # durability (checkpoint/restore)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable execution state (see :mod:`repro.core.durability`).

        Everything a freshly-submitted twin of this query needs to
        continue mid-stream: the window counter, time-slicer anchors, and
        the partial stores — the ring, or the prep stores plus a join's
        pair table (read positions live in the engine's cursors).  The
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
        if self.plan.fragment is not None:
            state["store"] = self._store.snapshot_state()
            return state
        state["prep_stores"] = {
            alias: store.snapshot_state() for alias, store in self._prep_stores.items()
        }
        if self.plan.pair_fragment is not None:
            state["pairs"] = self._pairs.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot's execution state (inverse of the above)."""
        self.window_index = state["window_index"]
        self._initialized = state["initialized"]
        for alias, (origin, consumed_windows) in state["slicers"].items():
            slicer = self._slicers[alias]
            slicer.origin = origin
            slicer.consumed_windows = consumed_windows
        if self.plan.fragment is not None:
            self._store.restore_state(state["store"])
            return
        for alias, store in self._prep_stores.items():
            store.restore_state(state["prep_stores"][alias])
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
