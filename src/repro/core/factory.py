"""Factories — resumable continuous-query executors.

A factory encloses a rewritten (or re-evaluation) query plan and produces
one result batch per window slide, exactly like the paper's co-routines:
it consumes basic windows from its input baskets, caches/reuses partial
results, and runs the merge machinery (paper Algorithm 2, generalized).

Two implementations share the interface:

* :class:`IncrementalFactory` — the paper's contribution (split /
  replicate / merge / transition, per-pair join replication, landmark
  compaction, optional m-chunk processing);
* :class:`ReevalFactory` lives in :mod:`repro.core.reevaluate` — the
  DataCellR baseline that recomputes the full window every slide.

Factories are driven synchronously by the scheduler (or benchmarks):
``ready()`` is the Petri-net firing condition, ``step()`` one transition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.basket import Basket, Cursor
from repro.core.landmark import SpillingStore
from repro.core.partials import (
    Bundle,
    FragmentCache,
    PairStore,
    PartialStore,
    ShareKey,
    merge_levels,
)
from repro.core.rewriter.incremental import IncrementalPlan, packed, prep_slot
from repro.core.windows import WindowSpec
from repro.errors import SchedulerError, UnsupportedQueryError
from repro.kernel.algebra.setops import concat
from repro.kernel.bat import BAT
from repro.kernel.execution.backends import make_backend
from repro.kernel.execution.profiler import Profiler
from repro.kernel.execution.program import TAG_MERGE
from repro.kernel.storage import Table
from repro.sql.physical import scan_slot


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


class FactoryBase:
    """Common interface of continuous-query executors.

    Both implementations fill in ``windows`` and ``_baskets`` (the window
    spec and the basket — or cursor on it — per stream alias) and the
    time-based ``_slicers``, so the firing condition lives here.
    """

    name: str
    windows: dict[str, WindowSpec] = {}
    _baskets: dict[str, Basket | Cursor] = {}
    _slicers: dict[str, _TimeSlicer] = {}
    _initialized = False
    _consumed_total = 0

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

    def step(self, profiler: Optional[Profiler] = None) -> Optional[ResultBatch]:
        raise NotImplementedError  # pragma: no cover - interface

    def consumed_total(self) -> int:
        """Monotonic count of stream tuples this factory has consumed.

        The scheduler differences it around a firing to report tuples
        consumed per span; the base offset is irrelevant, only deltas.
        """
        return self._consumed_total

    def baskets(self) -> tuple[Basket | Cursor, ...]:
        """The baskets (or cursors on them) feeding this factory."""
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
        backend: str = "interpreted",
    ) -> None:
        self.name = name
        self.plan = plan
        self.windows = plan.windows
        self._baskets = baskets
        self._tables = tables or {}
        self._interp = make_backend(backend)
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
        if plan.is_join:
            capacities = {
                alias: plan.windows[alias].basic_windows
                for alias in plan.stream_aliases
            }
            self._prep_stores = {
                alias: PartialStore(capacities[alias]) for alias in plan.stream_aliases
            }
            left, right = self._pair_aliases()
            self._pairs = PairStore(
                capacities.get(left, 0), capacities.get(right, 0)
            )
            self._table_bundle: Optional[Bundle] = None
        else:
            self._store = self._new_store()

    def _new_store(self) -> PartialStore:
        """The single-stream partial ring, with the merge tree armed
        where a pre-merged node is smaller than its children: combines
        that compensate.  A concatenating combine would only copy the
        window, so those flows stay flat; so does every window too
        shallow to seal a level (``merge_levels``, landmark included)."""
        n = self.plan.windows[self.plan.stream_aliases[0]].basic_windows
        levels = merge_levels(n) if self.plan.compensates else 0
        return PartialStore(n, levels=levels)

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
        if self.plan.is_join:
            self._step_join(profiler)
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
        name the same tuples for every sharer.  Single-stream plans only.
        """
        if self.plan.is_join:
            raise UnsupportedQueryError("fragment sharing needs a single stream")
        self._fragment_cache = cache
        self._share_key = key

    @property
    def shares_fragments(self) -> bool:
        return self._fragment_cache is not None

    # -- single stream ------------------------------------------------------
    def _step_single(self, profiler: Profiler) -> None:
        alias = self.plan.stream_aliases[0]
        for start, cols in self._take_slices(alias, self._owed_counts(alias)):
            bundle = self._fragment_bundle(alias, start, cols, profiler)
            self._store.add(bundle)

    def _check_chunks(self, m: int) -> int:
        """Validate an m-chunk request; returns ``m`` capped at the step."""
        if self.plan.is_join:
            raise UnsupportedQueryError("m-chunk processing needs a single stream")
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
        bundles = [
            self._run_fragment(alias, cols, early)
            for __, cols in self._take_slices(alias, sizes[:-1])
        ]
        start = time.perf_counter()
        [(__, cols)] = self._take_slices(alias, sizes[-1:])
        bundles.append(self._run_fragment(alias, cols, profiler))
        self._store.add(self._fold_bundles(bundles, profiler))
        return start

    def _fragment_bundle(
        self, alias: str, start: int, cols: dict[str, BAT], profiler: Profiler
    ) -> Bundle:
        """One basic window's bundle, shared across queries when enabled."""
        if self._fragment_cache is None:
            return self._run_fragment(alias, cols, profiler)
        count = len(next(iter(cols.values()))) if cols else 0
        return self._fragment_cache.get_or_compute(
            self._share_key,
            (start, count),
            lambda: self._run_fragment(alias, cols, profiler),
            profiler,
        )

    def _take_slices(
        self, alias: str, counts: list[int]
    ) -> list[tuple[int, dict[str, BAT]]]:
        """Slice (and consume) ``counts`` tuples at a time off the basket.

        Returns ``(start offset, columns)`` per slice; the offset is the
        basket position the slice starts at, its address on the stream's
        arrival axis (for the shared fragment cache).
        """
        basket = self._baskets[alias]
        columns = self.plan.scan_columns[alias]
        slices: list[tuple[int, dict[str, BAT]]] = []
        with basket.locked():
            for count in counts:
                # Materialize each slice: delete_head compacts the basket's
                # buffers in place, which would corrupt zero-copy views.
                slices.append(
                    (
                        basket.position,
                        {
                            scan_slot(alias, col): BAT(
                                np.array(bat.tail, copy=True), bat.atom, bat.hseq
                            )
                            for col, bat in basket.head_slice(count, columns).items()
                        },
                    )
                )
                basket.delete_head(count)
                self._consumed_total += count
        return slices

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

    def _run_fragment(
        self, alias: str, cols: dict[str, BAT], profiler: Profiler
    ) -> Bundle:
        assert self.plan.fragment is not None
        outputs = self._interp.run(self.plan.fragment, cols, profiler)
        return {
            flow.name: outputs[slot]
            for flow, slot in zip(self.plan.flows, self.plan.fragment.outputs)
        }

    # -- joins ------------------------------------------------------
    def _pair_aliases(self) -> tuple[str, str]:
        """(left, right) aliases of the pair fragment's inputs."""
        aliases = list(self.plan.stream_aliases)
        if self.plan.table_alias is not None:
            aliases.append(self.plan.table_alias)
        return aliases[0], aliases[1]

    def _step_join(self, profiler: Profiler) -> None:
        left_alias, right_alias = self._pair_aliases()
        new_bundles: dict[str, list[int]] = {}
        for alias in self.plan.stream_aliases:
            store = self._prep_stores[alias]
            seqs = []
            for __, cols in self._take_slices(alias, self._owed_counts(alias)):
                bundle = self._run_prep(alias, cols, profiler)
                seqs.append(store.add(bundle))
            new_bundles[alias] = seqs

        if self.plan.table_alias is not None and self._table_bundle is None:
            self._table_bundle = self._run_table_prep(profiler)

        pairs = self._new_pairs(left_alias, right_alias, new_bundles)
        for left_seq, right_seq in pairs:
            left_bundle = self._side_bundle(left_alias, left_seq)
            right_bundle = self._side_bundle(right_alias, right_seq)
            bundle = self._run_pair(left_alias, left_bundle, right_alias, right_bundle, profiler)
            self._pairs.add(left_seq, right_seq, bundle)
        self._expire_pairs(left_alias, right_alias)

    def _side_bundle(self, alias: str, seq: int) -> Bundle:
        if alias == self.plan.table_alias:
            assert self._table_bundle is not None
            return self._table_bundle
        return self._prep_stores[alias].bundle(seq)

    def _new_pairs(
        self,
        left_alias: str,
        right_alias: str,
        new_bundles: dict[str, list[int]],
    ) -> list[tuple[int, int]]:
        """Pairs whose result is not cached yet (newest × live, both ways)."""
        pairs: list[tuple[int, int]] = []
        new_left = set(new_bundles.get(left_alias, []))
        new_right = set(new_bundles.get(right_alias, []))
        left_seqs = self._side_seqs(left_alias)
        right_seqs = self._side_seqs(right_alias)
        for lseq in left_seqs:
            for rseq in right_seqs:
                if lseq in new_left or rseq in new_right:
                    pairs.append((lseq, rseq))
        return pairs

    def _side_seqs(self, alias: str) -> list[int]:
        if alias == self.plan.table_alias:
            return [0]
        return self._prep_stores[alias].live_seqs()

    def _expire_pairs(self, left_alias: str, right_alias: str) -> None:
        def newest(alias: str) -> int:
            if alias == self.plan.table_alias:
                return 0
            seq = self._prep_stores[alias].newest_seq
            return seq if seq is not None else 0

        self._pairs.expire(newest(left_alias), newest(right_alias))

    def _run_prep(
        self, alias: str, cols: dict[str, BAT], profiler: Profiler
    ) -> Bundle:
        spec = self.plan.preps[alias]
        outputs = self._interp.run(spec.program, cols, profiler)
        return {
            column: outputs[slot]
            for column, slot in zip(spec.columns, spec.program.outputs)
        }

    def _run_table_prep(self, profiler: Profiler) -> Bundle:
        alias = self.plan.table_alias
        assert alias is not None
        table = self._tables[alias]
        spec = self.plan.preps[alias]
        cols = {
            scan_slot(alias, col): table.column(col)
            for col in self.plan.scan_columns[alias]
        }
        outputs = self._interp.run(spec.program, cols, profiler)
        return {
            column: outputs[slot]
            for column, slot in zip(spec.columns, spec.program.outputs)
        }

    def _run_pair(
        self,
        left_alias: str,
        left_bundle: Bundle,
        right_alias: str,
        right_bundle: Bundle,
        profiler: Profiler,
    ) -> Bundle:
        assert self.plan.pair_fragment is not None
        inputs: dict[str, BAT] = {}
        for column, bat in left_bundle.items():
            inputs[prep_slot(left_alias, column)] = bat
        for column, bat in right_bundle.items():
            inputs[prep_slot(right_alias, column)] = bat
        outputs = self._interp.run(self.plan.pair_fragment, inputs, profiler)
        return {
            flow.name: outputs[slot]
            for flow, slot in zip(self.plan.flows, self.plan.pair_fragment.outputs)
        }

    # -- merge ------------------------------------------------------
    def _live_bundles(self, profiler: Optional[Profiler] = None) -> list[Bundle]:
        """The in-order bundles whose merge is the current window.

        Single-stream stores answer with their cover — all live singles,
        or fewer pre-merged tree nodes (sealed on demand, charged to
        ``profiler``) that tile the same basic windows."""
        if self.plan.is_join:
            return [bundle for __, bundle in self._pairs.live()]
        if self._spilling:
            return [bundle for __, bundle in self._store.live()]
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
        bundles = self._live_bundles(profiler)
        if not bundles:
            raise SchedulerError("no live partials to merge")
        bundle = self._fold_bundles(bundles, profiler)
        if self._compactable and not self._spilling:
            # A spilling store manages its own folding (hot-suffix
            # compaction + cold runs); collapsing to the combined bundle
            # here would pull every spilled byte back into memory.
            self._compact_landmark(bundle)
        outputs = self._interp.run(self.plan.finalize, bundle, profiler)
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

    @property
    def _is_landmark(self) -> bool:
        return any(w.is_landmark for w in self.plan.windows.values())

    @property
    def _spilling(self) -> bool:
        return not self.plan.is_join and isinstance(self._store, SpillingStore)

    # -- bounded-memory landmark state (cold-history spill) -------------
    def enable_landmark_spill(
        self,
        spill_dir: str,
        budget_bytes: int,
        fault_hook=None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        """Swap the unbounded landmark store for a bounded spilling one.

        Single-stream all-landmark plans only: joins keep per-pair
        partials whose expiry the spill store does not model.  Must be
        enabled before the factory consumes any input.
        """
        if self.plan.is_join or not self._compactable:
            raise UnsupportedQueryError(
                "landmark spilling needs a single-stream landmark window"
            )
        if len(self._store):
            raise SchedulerError(
                "cannot enable landmark spilling on a non-empty store"
            )
        self._store = SpillingStore(
            spill_dir,
            budget_bytes,
            fold=self._fold_bundles,
            fault_hook=fault_hook,
            profiler=profiler,
        )

    def _fold_bundles(
        self, bundles: list[Bundle], profiler: Optional[Profiler] = None
    ) -> Bundle:
        """Fold an in-order run of bundles through the combine program.

        Sound for any contiguous run: combine is an associative,
        order-preserving n-ary merge by construction — it runs over a
        varying number of live bundles every firing, and landmark
        compaction already feeds its output back as a later input.
        Pre-merging (cold landmark history, merge-tree nodes, m-chunk
        partials) therefore reproduces the flat merge bit-for-bit for
        integer sums, counts, min/max and group keys; float sums are
        equal only up to reassociation (last-ulp), which is why tree
        nodes sit on aligned seq ranges — the association order is then
        a function of the window alone, not of when a node was folded.
        """
        if profiler is None:
            profiler = Profiler()
        packed_cols = self._pack_flows(bundles, profiler)
        combined = self._interp.run(self.plan.combine, packed_cols, profiler)
        return {flow.name: combined[flow.name] for flow in self.plan.flows}

    def set_fault_hook(self, hook) -> None:
        """Install (or clear) the fault-injection hook on the spill store."""
        if self._spilling:
            self._store.fault_hook = hook

    def merge_stats(self) -> Optional[dict]:
        """Merge-tree gauges of a single-stream ring store (METRICS.md)."""
        if self.plan.is_join or self._spilling:
            return None
        store = self._store
        return {
            "merge_cover_len": store.cover_len,
            "merge_nodes_sealed": store.nodes_sealed,
            "merge_nodes_live": store.nodes_live,
        }

    def landmark_spill_stats(self) -> Optional[dict]:
        """Spill gauges when this factory runs a spilling landmark store."""
        if self._spilling:
            return self._store.stats()
        return None

    def prune_spill(self) -> None:
        """Drop spill files not referenced by the current run list.

        Called once after a restore: a crash may leave behind run files
        written after the snapshot (they are regenerated deterministically
        under the same names during journal-driven replay, so anything
        unreferenced by then is garbage) and ``.tmp`` leftovers.
        """
        if self._spilling:
            self._store._prune_unreferenced()

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
        if self.plan.is_join:
            left_alias, right_alias = self._pair_aliases()
            newest_left = (
                0
                if left_alias == self.plan.table_alias
                else (self._prep_stores[left_alias].newest_seq or 0)
            )
            newest_right = (
                0
                if right_alias == self.plan.table_alias
                else (self._prep_stores[right_alias].newest_seq or 0)
            )
            self._pairs.replace_all(dict(bundle), (newest_left, newest_right))
        else:
            self._store.replace_all(dict(bundle))

    # ------------------------------------------------------------------
    # durability (checkpoint/restore)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable execution state (see :mod:`repro.core.durability`).

        Everything a freshly-submitted twin of this query needs to
        continue mid-stream: the window counter, time-slicer anchors, and
        the partial stores (read positions live in the engine's cursors).
        The cached table bundle is *not* captured — it is recomputed
        lazily from the restored base tables on the first post-restore
        join step.
        """
        state: dict = {
            "window_index": self.window_index,
            "initialized": self._initialized,
            "slicers": {
                alias: [slicer.origin, slicer.consumed_windows]
                for alias, slicer in self._slicers.items()
            },
        }
        if self.plan.is_join:
            state["prep_stores"] = {
                alias: store.snapshot_state()
                for alias, store in self._prep_stores.items()
            }
            state["pairs"] = self._pairs.snapshot_state()
        else:
            state["store"] = self._store.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot's execution state (inverse of the above)."""
        self.window_index = state["window_index"]
        self._initialized = state["initialized"]
        for alias, (origin, consumed_windows) in state["slicers"].items():
            slicer = self._slicers[alias]
            slicer.origin = origin
            slicer.consumed_windows = consumed_windows
        if self.plan.is_join:
            for alias, store in self._prep_stores.items():
                store.restore_state(state["prep_stores"][alias])
            self._pairs.restore_state(state["pairs"])
            self._table_bundle = None
        else:
            self._store.restore_state(state["store"])

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
        if self.plan.is_join:
            for alias, store in self._prep_stores.items():
                capacity = self.plan.windows[alias].basic_windows
                self._prep_stores[alias] = PartialStore(capacity)
            left, right = self._pair_aliases()
            self._pairs = PairStore(
                self.plan.windows[left].basic_windows if left in self.plan.windows else 0,
                self.plan.windows[right].basic_windows if right in self.plan.windows else 0,
            )
        elif self._spilling:
            self._store.reset()  # drops hot state and spilled runs alike
        else:
            self._store = self._new_store()
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
