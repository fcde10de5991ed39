"""Baskets — DataCell's lightweight stream tables.

A basket is an append-only, lockable collection of head-aligned column
buffers, one per stream attribute (plus the implicit arrival-timestamp
column for time-based queries).  Receptors append incoming tuples; factories
snapshot column views, consume basic windows, and drop expired tuples from
the head (paper §2: "once a tuple has been seen by all relevant queries it
is dropped from its basket").

The engine keeps **one basket per stream** and hands every query a
:class:`Cursor` into it: a cursor's ``position`` is the absolute arrival
offset of the next tuple its query reads, and the basket trims its head to
the slowest cursor — so ``len(basket)`` is the deepest cursor lag, and a
basket nobody reads holds nothing.  A basket used without cursors is a
plain single-consumer buffer whose head is the read position (direct-driven
factories and the unit tests use it that way).

Baskets are **unbounded by default** — the paper's model, which assumes the
scheduler keeps up with arrival rates.  Passing ``capacity=`` bounds the
basket and arms an :class:`~repro.core.overflow.OverflowPolicy` (default
:class:`~repro.core.overflow.Fail`) that decides, batch-at-a-time on the
append path, what happens when producers outrun factories: block with
backpressure, shed from either end, sample, or fail loudly.  The decision
is taken once per batch for every reader; a ``ShedOldest`` eviction moves
each cursor it overtakes up to the new head and counts that cursor's loss.
Shed and blocked counts are kept on the basket (``shed_total``,
``block_waits``, ``block_timeouts``) and mirrored into an attached
:class:`~repro.kernel.execution.profiler.Profiler` so overload shows up in
the same counter channel as firings and cache hits.  docs/OPERATIONS.md is
the operator-facing guide; DESIGN.md §7 gives the correctness argument for
shedding under the incremental merge.

Thread-safety: every mutating or snapshotting method takes the basket lock
(cursors take their basket's); factories take it once around a whole
consume cycle via ``locked()``.  A producer blocked by the ``Block`` policy
waits on a condition tied to that same lock, so consumers can drain (and
wake it) while it sleeps.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.overflow import Fail, Keep, OverflowPolicy
from repro.core.windows import TS_COLUMN
from repro.errors import BasketError, BasketOverflowError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT, BATBuilder
from repro.kernel.execution.profiler import (
    COUNTER_BLOCK_TIMEOUTS,
    COUNTER_BLOCK_WAITS,
    COUNTER_SHED,
    Profiler,
)
from repro.kernel.storage import Schema


def _select_rows(rows: list, timestamps, keep: Keep):
    """Apply an admission's ``keep`` selection to a row batch."""
    if isinstance(keep, slice):
        if keep == slice(None):
            return rows, timestamps
        kept_rows = rows[keep]
        kept_ts = None if timestamps is None else list(timestamps)[keep]
    else:
        kept_rows = [rows[i] for i in keep]
        kept_ts = (
            None if timestamps is None else [timestamps[i] for i in keep]
        )
    return kept_rows, kept_ts


def _select_values(values, keep: Keep):
    """Apply ``keep`` to one column (or timestamp) array."""
    if isinstance(keep, slice):
        return values if keep == slice(None) else values[keep]
    return np.asarray(values)[keep]


class _Reader:
    """The read side of a basket, from a read ``position`` on.

    A :class:`Basket` reads itself at its head (single consumer); a
    :class:`Cursor` reads its basket at its own position.  Factories take
    either.
    """

    basket: "Basket"
    position: int
    _marked: int  # end offset of the last arrival mark taken

    def locked(self):
        """Context manager taking the basket lock (re-entrant)."""
        return self.basket._lock

    def __len__(self) -> int:
        basket = self.basket
        with basket._lock:
            return basket._appended_total - self.position

    @property
    def count(self) -> int:
        """Tuples not read yet (a basket without cursors: all parked)."""
        return len(self)

    def head_slice(self, count: int, columns: Sequence[str]) -> dict[str, BAT]:
        """The oldest ``count`` unread tuples of the requested columns
        (zero-copy views, valid until the basket's next delete)."""
        basket = self.basket
        with basket._lock:
            if count > len(self):
                raise BasketError(
                    f"basket {basket.name!r} holds {len(self)} tuples, need {count}"
                )
            offset = self.position - basket._head()
            return {
                name: basket._builders[name].snapshot().slice(offset, offset + count)
                for name in columns
            }

    def timestamps(self) -> BAT:
        """Arrival timestamps of the unread tuples."""
        basket = self.basket
        with basket._lock:
            if not basket._with_ts:
                raise BasketError(f"basket {basket.name!r} has no timestamps")
            ts = basket._builders[TS_COLUMN].snapshot()
            return ts.slice(self.position - ts.hseq, len(ts))

    def count_before(self, ts_bound: int) -> int:
        """Unread tuples with arrival timestamp < ``ts_bound``.

        Timestamps are nondecreasing by arrival, so this is a binary search;
        time-based factories use it to slice basic windows.
        """
        with self.basket._lock:
            return int(np.searchsorted(self.timestamps().tail, ts_bound, side="left"))

    def max_timestamp(self) -> int | None:
        """The time watermark as this reader sees it.

        The larger of the newest unread arrival timestamp and any
        explicitly advanced watermark (see :meth:`Basket.advance_watermark`).
        """
        basket = self.basket
        with basket._lock:
            ts = self.timestamps()
            newest = None if ts.is_empty() else int(ts.tail[-1])
            if basket._watermark is None:
                return newest
            if newest is None:
                return basket._watermark
            return max(newest, basket._watermark)

    def take_consumed_arrival(self) -> Optional[float]:
        """Arrival stamp (perf_counter) of the newest fully-consumed batch.

        The arrival time of the batch containing the tuple that completed
        the window (a batch counts once this reader has read or lost all
        of it).  Returns ``None`` when no tracked batch finished since the
        last call.
        """
        basket = self.basket
        with basket._lock:
            for end, stamp in reversed(basket._arrival_marks):
                if end <= self.position:
                    if end <= self._marked:
                        return None
                    self._marked = end
                    return stamp
            return None


class Basket(_Reader):
    """Column-oriented append buffer for one stream.

    ``capacity`` (optional) bounds the number of parked tuples; ``overflow``
    selects the policy applied when an append does not fit (default
    :class:`~repro.core.overflow.Fail`).  With ``capacity=None`` (default)
    the append paths are exactly the unbounded originals.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        with_timestamps: bool = True,
        capacity: Optional[int] = None,
        overflow: Optional[OverflowPolicy] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self._lock = threading.RLock()
        # guarded-by: _lock
        self._builders: dict[str, BATBuilder] = {
            col: BATBuilder(atom) for col, atom in schema.columns
        }
        self._with_ts = with_timestamps
        if with_timestamps:
            self._builders[TS_COLUMN] = BATBuilder(Atom.TIMESTAMP)
        self._appended_total = 0  # the tail's arrival offset; guarded-by: _lock
        self._clock = 0  # fallback logical timestamps; guarded-by: _lock
        self._watermark: int | None = None  # explicit time progress; guarded-by: _lock
        if capacity is not None and capacity < 1:
            raise BasketError(f"capacity must be >= 1, got {capacity}")
        if capacity is None and overflow is not None:
            raise BasketError("an overflow policy needs a capacity")
        self._capacity = capacity
        self._policy: Optional[OverflowPolicy] = (
            (overflow if overflow is not None else Fail())
            if capacity is not None
            else None
        )
        self._not_full = threading.Condition(self._lock)
        self._abort_reason: Optional[str] = None  # guarded-by: _lock
        self._profiler: Optional[Profiler] = None  # guarded-by: _lock
        # Ingest→emit latency tracking (observability): per-batch arrival
        # stamps as (absolute end offset, perf_counter).  Bounded so a
        # reader that never takes its marks stays O(1) memory.
        self._track_arrivals = False  # guarded-by: _lock
        self._arrival_marks: deque[tuple[int, float]] = deque(maxlen=4096)  # guarded-by: _lock
        self._marked = 0  # end offset of the last mark taken; guarded-by: _lock
        # Readers of a shared basket; empty = single consumer.  Weak, so
        # a basket and its cursors never form a cycle that keeps dropped
        # engines' buffers alive until the next cyclic collection.
        self._cursors: weakref.WeakSet[Cursor] = weakref.WeakSet()  # guarded-by: _lock
        #: Tuples dropped by the overflow policy (either end), counted
        #: once per reader that lost them; monotonic.
        self.shed_total = 0  # guarded-by: _lock
        #: Appends that had to wait for room (Block policy), monotonic.
        self.block_waits = 0  # guarded-by: _lock
        #: Blocked appends that gave up at the timeout, monotonic.
        self.block_timeouts = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def basket(self) -> "Basket":
        """Itself: a basket without cursors reads at its own head."""
        return self

    def _head(self) -> int:  # guarded-by: self._lock
        return next(iter(self._builders.values())).hseq

    @property
    def hseq(self) -> int:
        """Arrival offset of the oldest tuple still present — the read
        position of a basket used without cursors."""
        with self._lock:
            return self._head()

    position = hseq

    @property
    def appended_total(self) -> int:
        """Total tuples ever appended (monotonic; excludes shed tuples
        that were never admitted, includes admitted-then-evicted ones)."""
        with self._lock:
            return self._appended_total

    # ------------------------------------------------------------------
    # readers (one cursor per query on a shared basket)
    # ------------------------------------------------------------------
    def cursor(self) -> "Cursor":
        """A new reader at the tail: it sees what arrives from now on."""
        with self._lock:
            cursor = Cursor(self, self._appended_total)
            self._cursors.add(cursor)
            return cursor

    @property
    def readers(self) -> int:
        """Open cursors on this basket."""
        with self._lock:
            return len(self._cursors)

    def _trim(self) -> None:  # guarded-by: self._lock
        """Drop the head up to the slowest cursor (everything, with none)."""
        low = min(
            (cursor.position for cursor in self._cursors),
            default=self._appended_total,
        )
        if low > self._head():
            self.delete_head(low - self._head())

    # ------------------------------------------------------------------
    # capacity / overflow
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> Optional[int]:
        """Maximum parked tuples (``None`` = unbounded, the default)."""
        return self._capacity

    @property
    def overflow_policy(self) -> Optional[OverflowPolicy]:
        return self._policy

    def attach_profiler(self, profiler: Profiler) -> None:
        """Mirror overflow counters (shed, block waits/timeouts) into
        ``profiler`` — the engine wires the scheduler's global profiler
        here so overload surfaces next to firings and cache stats."""
        with self._lock:
            self._profiler = profiler

    # ------------------------------------------------------------------
    # arrival stamping (ingest→emit latency, observability layer)
    # ------------------------------------------------------------------
    def enable_arrival_tracking(self) -> None:
        """Stamp each admitted batch's arrival time (perf_counter).

        The scheduler closes the loop after a firing via
        :meth:`take_consumed_arrival`; with tracking off (the default) the
        append paths pay a single boolean test.
        """
        with self._lock:
            self._track_arrivals = True

    def _stamp_arrival(self) -> None:  # guarded-by: self._lock
        """Record the arrival of the batch ending at ``_appended_total``."""
        if self._track_arrivals:
            self._arrival_marks.append((self._appended_total, time.perf_counter()))

    def abort_waiters(self, reason: str) -> None:
        """Wake producers parked on the ``Block`` policy with an error.

        Called when the engine is stopping after a scheduler crash: no
        consumer will ever free room again, so parked producers would
        otherwise sleep until their timeout (or forever, with
        ``Block(timeout=None)``).  Each woken producer raises
        :class:`~repro.errors.BasketOverflowError` carrying ``reason``;
        later blocking appends fail fast the same way.
        """
        with self._lock:
            self._abort_reason = reason
            self._not_full.notify_all()

    def overflow_stats(self) -> dict[str, int]:
        """Point-in-time overload numbers for this basket."""
        with self._lock:
            return {
                "capacity": self._capacity or 0,
                "parked": len(self),
                "shed": self.shed_total,
                "block_waits": self.block_waits,
                "block_timeouts": self.block_timeouts,
            }

    def _count(self, counter: str, amount: int = 1) -> None:  # guarded-by: self._lock
        if self._profiler is not None:
            self._profiler.count(counter, amount)

    def _admit(self, incoming: int) -> Keep:  # guarded-by: self._lock
        """Make room for ``incoming`` tuples; returns the admitted subset.

        Called under the basket lock.  A batch that fits is admitted whole;
        otherwise the policy decides (or, for ``Block``, this waits on the
        not-full condition until consumers free enough room or the timeout
        passes).  Evictions and shed counts happen here, so by the time
        this returns the admitted tuples are guaranteed to fit.
        """
        assert self._capacity is not None and self._policy is not None
        room = self._capacity - len(self)
        if incoming <= room:
            return slice(None)
        if self._policy.blocking:
            return self._wait_for_room(incoming, self._policy.timeout)
        admission = self._policy.admit(room, incoming, self._capacity)
        if admission.evict_oldest:
            self._drop(admission.evict_oldest)
        shed = admission.shed
        if self._cursors:
            # Cursors the eviction overtook skip to the new head; every
            # reader loses what it skipped plus the batch's rejected part.
            head = self._head()
            rejected = admission.shed - admission.evict_oldest
            shed = 0
            for cursor in self._cursors:
                shed += max(0, head - cursor.position) + rejected
                cursor.position = max(cursor.position, head)
        if shed:
            self.shed_total += shed
            self._count(COUNTER_SHED, shed)
        return admission.keep

    def _wait_for_room(self, incoming: int, timeout: Optional[float]) -> Keep:  # guarded-by: self._lock
        capacity = self._capacity
        assert capacity is not None
        if incoming > capacity:
            raise BasketOverflowError(
                f"batch of {incoming} can never fit capacity {capacity}",
                requested=incoming,
                room=capacity - len(self),
            )
        self.block_waits += 1
        self._count(COUNTER_BLOCK_WAITS)
        deadline = None if timeout is None else time.monotonic() + timeout
        while capacity - len(self) < incoming:
            if self._abort_reason is not None:
                raise BasketOverflowError(
                    f"basket {self.name!r}: {self._abort_reason}",
                    requested=incoming,
                    room=capacity - len(self),
                )
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                self.block_timeouts += 1
                self._count(COUNTER_BLOCK_TIMEOUTS)
                raise BasketOverflowError(
                    f"basket {self.name!r}: timed out after {timeout:g}s "
                    f"waiting for room ({incoming} tuples, "
                    f"{capacity - len(self)} free)",
                    requested=incoming,
                    room=capacity - len(self),
                )
            self._not_full.wait(remaining)
        return slice(None)

    # ------------------------------------------------------------------
    # appends (receptor side)
    # ------------------------------------------------------------------
    def append_rows(
        self, rows: Iterable[Sequence], timestamps: Sequence[int] | None = None
    ) -> int:
        """Append tuples in schema order; returns the number admitted.

        On a bounded basket the overflow policy may thin the batch (the
        return value is then smaller than the input), block, or raise
        :class:`~repro.errors.BasketOverflowError`.
        """
        if self._capacity is None:
            with self._lock:
                return self._append_rows_locked(rows, timestamps)
        rows = rows if isinstance(rows, list) else list(rows)
        with self._lock:
            keep = self._admit(len(rows))
            kept_rows, kept_ts = _select_rows(rows, timestamps, keep)
            return self._append_rows_locked(kept_rows, kept_ts)

    def _append_rows_locked(
        self, rows: Iterable[Sequence], timestamps: Sequence[int] | None
    ) -> int:  # guarded-by: self._lock
        names = self.schema.names
        added = 0
        for row in rows:
            if len(row) != len(names):
                raise BasketError(
                    f"row arity {len(row)} != schema arity {len(names)}"
                )
            for name, value in zip(names, row):
                self._builders[name].append(value)
            if self._with_ts:
                if timestamps is not None:
                    self._builders[TS_COLUMN].append(timestamps[added])
                else:
                    self._builders[TS_COLUMN].append(self._clock)
                    self._clock += 1
            added += 1
        self._appended_total += added
        if added:
            self._stamp_arrival()
        return added

    def append_columns(
        self,
        columns: Mapping[str, Sequence | np.ndarray],
        timestamps: Sequence[int] | np.ndarray | None = None,
    ) -> int:
        """Bulk columnar append (the fast receptor path).

        Returns the number of tuples admitted (see :meth:`append_rows` for
        bounded-basket semantics).
        """
        with self._lock:
            expected = set(self.schema.names)
            if set(columns) != expected:
                raise BasketError(
                    f"append_columns needs exactly columns {sorted(expected)}"
                )
            lengths = {len(values) for values in columns.values()}
            if len(lengths) != 1:
                raise BasketError("ragged column append")
            count = lengths.pop()
            if timestamps is not None and len(timestamps) != count:
                raise BasketError("timestamp column length mismatch")
            if self._capacity is not None:
                keep = self._admit(count)
                if not (isinstance(keep, slice) and keep == slice(None)):
                    columns = {
                        name: _select_values(values, keep)
                        for name, values in columns.items()
                    }
                    if timestamps is not None:
                        timestamps = _select_values(timestamps, keep)
                    count = len(next(iter(columns.values()))) if columns else 0
            for name, values in columns.items():
                self._builders[name].extend(values)
            if self._with_ts:
                if timestamps is not None:
                    self._builders[TS_COLUMN].extend(timestamps)
                else:
                    self._builders[TS_COLUMN].extend(
                        np.arange(self._clock, self._clock + count, dtype=np.int64)
                    )
                    self._clock += count
            self._appended_total += count
            if count:
                self._stamp_arrival()
            return count

    # ------------------------------------------------------------------
    # snapshots (factory side: head_slice & co. come from _Reader)
    # ------------------------------------------------------------------
    def column(self, name: str) -> BAT:
        """Zero-copy snapshot of one column (valid until the next delete)."""
        with self._lock:
            if name not in self._builders:
                raise BasketError(f"basket {self.name!r} has no column {name!r}")
            return self._builders[name].snapshot()

    def advance_watermark(self, ts: int) -> None:
        """Declare that no tuple with arrival timestamp < ``ts`` will arrive.

        Time-based factories fire when the watermark passes a basic-window
        boundary; advancing it explicitly lets queries close windows during
        stream silence (a punctuation, in stream-processing terms).
        Watermarks only move forward; regressions are ignored.
        """
        with self._lock:
            if self._watermark is None or ts > self._watermark:
                self._watermark = ts

    # ------------------------------------------------------------------
    # deletion (expiry)
    # ------------------------------------------------------------------
    def _drop(self, count: int) -> None:  # guarded-by: self._lock
        for builder in self._builders.values():
            builder.drop_head(count)
        # Keep the newest mark at or below the head: a reader standing
        # there still needs it to report its last finished batch.
        head = self._head()
        marks = self._arrival_marks
        while len(marks) > 1 and marks[1][0] <= head:
            marks.popleft()

    def delete_head(self, count: int) -> None:
        """Drop the ``count`` oldest tuples (they were consumed/expired).

        On a bounded basket this is what frees room: producers parked on
        the ``Block`` policy's not-full condition are woken here.
        """
        with self._lock:
            self._drop(count)
            if self._capacity is not None and count:
                self._not_full.notify_all()

    # ------------------------------------------------------------------
    # durability (checkpoint/restore)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """A serializable image of the basket (see core.durability).

        Columns are deep-copied BATs (tail + hseq), so the snapshot stays
        valid however the live basket mutates afterwards.  Stateful
        overflow policies contribute their RNG state, keeping shedding
        decisions identical across a checkpoint/restore boundary.  Cursor
        positions belong to their queries and are saved with them.
        """
        with self._lock:
            columns = {}
            for name, builder in self._builders.items():
                bat = builder.snapshot()
                columns[name] = BAT(bat.tail.copy(), bat.atom, bat.hseq)
            state = {
                "columns": columns,
                "appended_total": self._appended_total,
                "clock": self._clock,
                "watermark": self._watermark,
                "shed_total": self.shed_total,
                "block_waits": self.block_waits,
                "block_timeouts": self.block_timeouts,
            }
            rng = getattr(self._policy, "_rng", None)
            if rng is not None:
                state["policy_rng"] = rng.bit_generator.state
            return state

    def restore_state(self, state: dict) -> None:
        """Overwrite contents and counters with a snapshot's image."""
        with self._lock:
            for name, bat in state["columns"].items():
                builder = BATBuilder(bat.atom, hseq=bat.hseq)
                builder.extend(bat.tail)
                self._builders[name] = builder
            self._appended_total = state["appended_total"]
            self._clock = state["clock"]
            self._watermark = state["watermark"]
            self.shed_total = state["shed_total"]
            self.block_waits = state["block_waits"]
            self.block_timeouts = state["block_timeouts"]
            rng = getattr(self._policy, "_rng", None)
            if rng is not None and "policy_rng" in state:
                rng.bit_generator.state = state["policy_rng"]


class Cursor(_Reader):
    """One query's read position on a shared :class:`Basket`.

    Reads the basket from ``position`` on through the same reader
    interface as a basket (``len``, ``head_slice``, ``count_before``,
    ``max_timestamp``, ...), so factories take either; ``delete_head``
    only advances the cursor, and the basket drops a tuple once every
    cursor is past it.  Positions are arrival offsets on the stream, so
    ``(position, count)`` names the same tuples for every query — the
    fragment cache's span key.
    """

    def __init__(self, basket: Basket, position: int) -> None:
        self.basket = basket
        #: Arrival offset of the next tuple this cursor's query reads.
        self.position = position
        self._marked = position
        self.closed = False

    def __len__(self) -> int:
        return 0 if self.closed else super().__len__()

    def abort_waiters(self, reason: str) -> None:
        self.basket.abort_waiters(reason)

    def delete_head(self, count: int) -> None:
        """Move past ``count`` consumed tuples, trimming the basket."""
        with self.basket._lock:
            self.position += count
            self.basket._trim()

    def close(self) -> None:
        """Stop reading: the basket no longer keeps tuples for this
        cursor (idempotent)."""
        with self.basket._lock:
            if not self.closed:
                self.closed = True
                self.basket._cursors.discard(self)
                self.basket._trim()
