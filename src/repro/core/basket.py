"""Baskets — DataCell's lightweight stream tables.

A basket is an append-only, lockable queue of immutable **chunks**, one
per admitted batch, each holding one array per stream attribute (plus the
implicit arrival-timestamp column for time-based queries).  Receptors
append incoming tuples, copied once into a new chunk; a batch fed without
timestamps keeps only its counter's first stamp, and the stamps are made
when a time-based reader asks.  Factories read basic windows — views of
one chunk when a window lies inside it, else one concatenated copy — and
drop expired tuples from the head (paper §2: "once a tuple has been seen
by all relevant queries it is dropped from its basket"): the head offset
moves and the chunks wholly before it go.  Nothing is written after it is
admitted, so a view handed out stays valid through later appends and
trims.

The engine keeps **one basket per stream** and hands every factory a
:class:`Cursor` into it (queries that share a factory share its cursor):
a cursor's ``position`` is the absolute arrival offset of the next tuple
its factory reads, and the basket trims its head to
the slowest cursor — so ``len(basket)`` is the deepest cursor lag, and a
basket nobody reads holds nothing.  A basket used without cursors is a
plain single-consumer buffer whose head is the read position (direct-driven
factories and the unit tests use it that way).

Baskets are **unbounded by default** — the paper's model, which assumes the
scheduler keeps up with arrival rates.  Passing ``capacity=`` bounds the
basket and arms an :class:`~repro.core.overflow.OverflowPolicy` (default
:class:`~repro.core.overflow.Fail`) that decides, batch-at-a-time on the
append path, what happens when producers outrun factories: block with
backpressure, or fail loudly.  The decision is taken once per batch for
every reader, and a batch lands whole or not at all, so no cursor ever
skips a tuple.  Blocked counts are kept on the basket (``block_waits``,
``block_timeouts``), under its lock; the engine adds them to its profiler
counters at read time, so overload shows up in the same counter channel
as firings and cache hits.  docs/OPERATIONS.md is the operator-facing
guide; DESIGN.md §7 gives the admission rules.

Thread-safety: every mutating or snapshotting method takes the basket lock
(cursors take their basket's); factories take it once around a whole
consume cycle via ``locked()``.  A producer blocked by the ``Block`` policy
waits on a condition tied to that same lock, so consumers can drain (and
wake it) while it sleeps.
"""

from __future__ import annotations

import bisect
import operator
import threading
import time
import weakref
from collections import deque
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.overflow import Fail, OverflowPolicy
from repro.core.windows import TS_COLUMN
from repro.errors import BasketError, BasketOverflowError
from repro.kernel.atoms import Atom, numpy_dtype
from repro.kernel.bat import BAT
from repro.kernel.storage import Schema


_START = operator.attrgetter("start")
_END = operator.attrgetter("end")


def _own(values: Sequence | np.ndarray, atom: Atom) -> np.ndarray:
    """``values`` copied into a new one-dimensional array of ``atom``'s dtype."""
    array = np.array(values, dtype=numpy_dtype(atom))
    if array.ndim != 1:
        raise BasketError(f"a column must be one-dimensional, got shape {array.shape}")
    return array


def _own_stamps(timestamps: Sequence[int] | np.ndarray | None, count: int) -> np.ndarray | None:
    """A batch's explicit timestamps, copied as int64, if it has any."""
    if timestamps is None:
        return None
    if len(timestamps) != count:
        raise BasketError("timestamp column length mismatch")
    return _own(timestamps, Atom.TIMESTAMP)


class _Chunk:
    """One admitted batch: its column arrays, written once and never
    again, from arrival offset ``start`` to ``end``.

    ``ts`` holds the batch's explicit timestamps; for a batch stamped
    from the stream's counter it is the first stamp (the rest follow by
    one, materialized only when a time-based reader asks).  A basket
    without timestamps never reads it.
    """

    __slots__ = ("start", "end", "columns", "ts")

    def __init__(
        self, start: int, columns: dict[str, np.ndarray], ts: np.ndarray | int, count: int
    ) -> None:
        self.start = start
        self.end = start + count
        self.columns = columns
        self.ts = ts

    def values(self, name: str, low: int, high: int) -> np.ndarray:
        """Rows ``low .. high - 1`` (offsets in the chunk) of one column."""
        if name != TS_COLUMN:
            return self.columns[name][low:high]
        if isinstance(self.ts, np.ndarray):
            return self.ts[low:high]
        return np.arange(self.ts + low, self.ts + high, dtype=np.int64)

    def last_stamp(self) -> int:
        rows = self.end - self.start
        return int(self.values(TS_COLUMN, rows - 1, rows)[0])

    def count_below(self, low: int, bound: int) -> int:
        """Rows from offset ``low`` on whose timestamp is < ``bound``."""
        if isinstance(self.ts, np.ndarray):
            return int(np.searchsorted(self.ts[low:], bound, side="left"))
        return min(max(bound - self.ts - low, 0), self.end - self.start - low)


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
        """The oldest ``count`` unread tuples of the requested columns:
        views of one chunk when they lie inside it, else one copy.
        Chunks are never written again, so either stays valid."""
        basket = self.basket
        with basket._lock:
            if count > len(self):
                raise BasketError(
                    f"basket {basket.name!r} holds {len(self)} tuples, need {count}"
                )
            return basket._columns(self.position, self.position + count, columns)

    def timestamps(self) -> BAT:
        """Arrival timestamps of the unread tuples."""
        basket = self.basket
        with basket._lock:
            basket._require_timestamps()
            return basket._columns(self.position, basket._appended_total, [TS_COLUMN])[TS_COLUMN]

    def count_before(self, ts_bound: int) -> int:
        """Unread tuples with arrival timestamp < ``ts_bound``.

        Timestamps are nondecreasing by arrival, so this is a binary search
        per chunk; time-based factories use it to slice basic windows.
        """
        basket = self.basket
        with basket._lock:
            basket._require_timestamps()
            total = 0
            for chunk, low, high in basket._pieces(self.position, basket._appended_total):
                below = chunk.count_below(low, ts_bound)
                total += below
                if below < high - low:
                    break
            return total

    def max_timestamp(self) -> int | None:
        """The time watermark as this reader sees it.

        The larger of the newest unread arrival timestamp and any
        explicitly advanced watermark (see :meth:`Basket.advance_watermark`).
        """
        basket = self.basket
        with basket._lock:
            basket._require_timestamps()
            # The newest chunk ends at the tail, so it holds the newest
            # unread tuple whenever there is one.
            newest = basket._chunks[-1].last_stamp() if len(self) else None
            if basket._watermark is None:
                return newest
            if newest is None:
                return basket._watermark
            return max(newest, basket._watermark)

    def take_consumed_arrival(self) -> Optional[float]:
        """Arrival stamp (perf_counter) of the newest fully-consumed batch.

        The arrival time of the batch containing the tuple that completed
        the window (a batch counts once this reader has read all of it).
        Returns ``None`` when no tracked batch finished since the last
        call.
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
    """A queue of immutable column chunks for one stream (one per batch).

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
        self._with_ts = with_timestamps
        self._atoms: dict[str, Atom] = dict(schema.columns)
        if with_timestamps:
            self._atoms[TS_COLUMN] = Atom.TIMESTAMP
        # The admitted batches still (partly) unread, oldest first, and
        # the head's arrival offset; guarded-by: _lock
        self._chunks: list[_Chunk] = []
        self._head = 0
        self._appended_total = 0  # the tail's arrival offset; guarded-by: _lock
        self._clock = 0  # fallback logical timestamps; guarded-by: _lock
        self._watermark: int | None = None  # explicit time progress; guarded-by: _lock
        # newest timestamp admitted, explicit or the counter's (the
        # appends, note_times); guarded-by: _lock
        self._newest_ts: int | None = None
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

    @property
    def hseq(self) -> int:
        """Arrival offset of the oldest tuple still present — the read
        position of a basket used without cursors."""
        with self._lock:
            return self._head

    position = hseq

    @property
    def appended_total(self) -> int:
        """Total tuples ever appended (monotonic)."""
        with self._lock:
            return self._appended_total

    def _pieces(
        self, low: int, high: int
    ) -> list[tuple[_Chunk, int, int]]:  # guarded-by: self._lock
        """Arrival offsets ``low .. high - 1`` as ``(chunk, first, stop)``
        runs, offsets in each chunk."""
        chunks = self._chunks
        index = max(bisect.bisect_right(chunks, low, key=_START) - 1, 0)
        pieces = []
        while low < high:
            chunk = chunks[index]
            stop = min(chunk.end, high)
            pieces.append((chunk, low - chunk.start, stop - chunk.start))
            low = stop
            index += 1
        return pieces

    def _columns(
        self, low: int, high: int, names: Sequence[str]
    ) -> dict[str, BAT]:  # guarded-by: self._lock
        """Arrival offsets ``low .. high - 1`` of columns ``names``: views
        when they lie inside one chunk, else one concatenated copy."""
        pieces = self._pieces(low, high)
        out = {}
        for name in names:
            atom = self._atoms[name]
            if len(pieces) == 1:
                chunk, first, stop = pieces[0]
                tail = chunk.values(name, first, stop)
            elif pieces:
                tail = np.concatenate([chunk.values(name, a, b) for chunk, a, b in pieces])
            else:
                tail = np.empty(0, dtype=numpy_dtype(atom))
            out[name] = BAT(tail, atom, low)
        return out

    def _require_timestamps(self) -> None:
        if not self._with_ts:
            raise BasketError(f"basket {self.name!r} has no timestamps")

    # ------------------------------------------------------------------
    # readers (one cursor per factory on a shared basket)
    # ------------------------------------------------------------------
    def cursor(self, at: Optional[int] = None) -> "Cursor":
        """A new reader at the tail: it sees what arrives from now on.
        ``at`` starts it at an earlier offset instead, one another open
        cursor still holds (a query splitting off a shared factory)."""
        with self._lock:
            if at is not None and at < self._head:
                raise BasketError(f"basket {self.name!r} no longer holds offset {at}")
            cursor = Cursor(self, self._appended_total if at is None else at)
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
        if low > self._head:
            self.delete_head(low - self._head)

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
                "block_waits": self.block_waits,
                "block_timeouts": self.block_timeouts,
            }

    def _wait_for_room(
        self, incoming: int, timeout: Optional[float]
    ) -> None:  # guarded-by: self._lock
        capacity = self._capacity
        assert capacity is not None
        if incoming > capacity:
            raise BasketOverflowError(
                f"batch of {incoming} can never fit capacity {capacity}",
                requested=incoming,
                room=capacity - len(self),
            )
        self.block_waits += 1
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
                raise BasketOverflowError(
                    f"basket {self.name!r}: timed out after {timeout:g}s "
                    f"waiting for room ({incoming} tuples, "
                    f"{capacity - len(self)} free)",
                    requested=incoming,
                    room=capacity - len(self),
                )
            self._not_full.wait(remaining)

    # ------------------------------------------------------------------
    # appends (receptor side)
    # ------------------------------------------------------------------
    def _admit(self, count: int, timestamps: np.ndarray | None) -> None:  # guarded-by: self._lock
        """Check a batch's timestamps — explicit ones, or the counter's
        when it has none — against the time frontier, then make room for
        it on a bounded basket: a batch that fits is admitted whole,
        ``Fail`` raises :class:`~repro.errors.BasketOverflowError` and
        ``Block`` waits for room (:meth:`_wait_for_room`).  Nothing is
        appended when this raises.  The append commits the frontier once
        the batch lands, in the same critical section."""
        self._check_times(timestamps, count)
        if self._capacity is None:
            return
        room = self._capacity - len(self)
        if count <= room:
            return
        if isinstance(self._policy, Fail):
            raise BasketOverflowError(
                f"batch of {count} exceeds free room {room}",
                requested=count,
                room=room,
            )
        self._wait_for_room(count, self._policy.timeout)
        # The wait released the lock: another batch may have moved the
        # frontier meanwhile.
        self._check_times(timestamps, count)

    def append_rows(
        self, rows: Iterable[Sequence], timestamps: Sequence[int] | None = None
    ) -> int:
        """Append tuples in schema order; returns the batch size.

        The batch is checked whole, then lands as one chunk, so a bad row
        leaves the basket as it was.  On a bounded basket the overflow
        policy may block, or raise :class:`~repro.errors.BasketOverflowError`
        and append nothing.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        arity = len(self.schema.names)
        for row in rows:
            if len(row) != arity:
                raise BasketError(f"row arity {len(row)} != schema arity {arity}")
        columns = {
            name: _own([row[i] for row in rows], atom)
            for i, (name, atom) in enumerate(self.schema.columns)
        }
        ts = _own_stamps(timestamps, len(rows))
        with self._lock:
            return self._add(columns, len(rows), ts)

    def append_columns(
        self,
        columns: Mapping[str, Sequence | np.ndarray],
        timestamps: Sequence[int] | np.ndarray | None = None,
    ) -> int:
        """Bulk columnar append (the fast receptor path): one copy of each
        column into a new chunk.

        Returns the batch size (see :meth:`append_rows` for bounded-basket
        semantics).
        """
        expected = set(self.schema.names)
        if set(columns) != expected:
            raise BasketError(f"append_columns needs exactly columns {sorted(expected)}")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise BasketError("ragged column append")
        count = lengths.pop()
        owned = {name: _own(columns[name], atom) for name, atom in self.schema.columns}
        ts = _own_stamps(timestamps, count)
        with self._lock:
            return self._add(owned, count, ts)

    def _add(
        self, columns: dict[str, np.ndarray], count: int, ts: np.ndarray | None
    ) -> int:  # guarded-by: self._lock
        """Admit a batch of ``count`` tuples, its ``columns`` (and ``ts``)
        already copied, as one chunk; a batch without timestamps keeps
        only its counter's first stamp."""
        self._admit(count, ts)
        if not count:
            return 0
        stamps: np.ndarray | int = self._clock
        if ts is not None:
            stamps = ts
            self._newest_ts = int(ts[-1])
        elif self._with_ts:
            self._clock += count
            self._newest_ts = self._clock - 1
        self._chunks.append(_Chunk(self._appended_total, columns, stamps, count))
        self._appended_total += count
        self._stamp_arrival()
        return count

    # ------------------------------------------------------------------
    # snapshots (factory side: head_slice & co. come from _Reader)
    # ------------------------------------------------------------------
    def column(self, name: str) -> BAT:
        """One column from the head: a view of one chunk when the basket
        holds one, else one copy."""
        with self._lock:
            if name not in self._atoms:
                raise BasketError(f"basket {self.name!r} has no column {name!r}")
            return self._columns(self._head, self._appended_total, [name])[name]

    def admit_times(self, ts: np.ndarray | None, count: int) -> None:
        """Refuse a batch of ``count`` tuples whose arrival timestamps
        would be out of order with :class:`BasketError`; changes nothing.

        Timestamps may not decrease by arrival (:meth:`Cursor.count_before`
        binary-searches them): not within the batch, and not below the
        newest timestamp admitted before it or the watermark.  A batch
        without timestamps (``ts`` is ``None``) is stamped from the
        stream's counter, so its first stamp is checked the same way.
        The engine asks before it journals a batch; the appends ask again
        in the critical section that admits the batch, and only an
        admitted batch moves the stream's time frontier.
        """
        with self._lock:
            self._check_times(ts, count)

    def note_times(self, ts: np.ndarray | None, count: int) -> None:
        """Move the time frontier past a batch of ``count`` tuples
        admitted elsewhere — a partitioned stream's batch, whose tuples
        land in the partitions' baskets — as an append here would."""
        with self._lock:
            if ts is None:
                if not (count and self._with_ts):
                    return
                self._clock += count
                self._newest_ts = self._clock - 1
            elif len(ts):
                self._newest_ts = int(ts[-1])

    def _check_times(self, ts: np.ndarray | None, count: int) -> None:  # guarded-by: self._lock
        if not count:
            return
        if ts is None:
            # Counter stamps ascend from the clock: the first decides.
            if not self._with_ts:
                return
            first = self._clock
        else:
            back = np.flatnonzero(ts[1:] < ts[:-1])
            if len(back):
                at = int(back[0]) + 1
                raise BasketError(
                    f"timestamps on stream {self.name!r} must not decrease: tuple {at} "
                    f"of the batch has {int(ts[at])} after {int(ts[at - 1])}"
                )
            first = int(ts[0])
        known = [t for t in (self._newest_ts, self._watermark) if t is not None]
        if known and first < max(known):
            stamped = (
                "starts at" if ts is not None else "has no timestamps; the counter stamps it from"
            )
            raise BasketError(
                f"timestamps on stream {self.name!r} must not decrease: the "
                f"batch {stamped} {first}, before {max(known)} "
                "(the newest timestamp fed or the watermark)"
            )

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
    def delete_head(self, count: int) -> None:
        """Drop the ``count`` oldest tuples (they were consumed/expired):
        the head moves, and the chunks wholly before it go.

        On a bounded basket this is what frees room: producers parked on
        the ``Block`` policy's not-full condition are woken here.
        """
        with self._lock:
            head = self._head = min(self._head + max(count, 0), self._appended_total)
            del self._chunks[: bisect.bisect_right(self._chunks, head, key=_END)]
            # Retain the newest mark at or below the head: a reader
            # standing there still needs it to report its last finished batch.
            marks = self._arrival_marks
            while len(marks) > 1 and marks[1][0] <= head:
                marks.popleft()
            if self._capacity is not None and count:
                self._not_full.notify_all()

    # ------------------------------------------------------------------
    # durability (checkpoint/restore)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """A serializable image of the basket (see core.durability).

        One BAT per column, the timestamps materialized, from the head
        on.  Chunks are never written again, so the image stays valid
        however the live basket moves on.  Cursor positions belong to
        their queries and are saved with them.
        """
        with self._lock:
            return {
                "columns": self._columns(self._head, self._appended_total, list(self._atoms)),
                "appended_total": self._appended_total,
                "clock": self._clock,
                "watermark": self._watermark,
                "newest_ts": self._newest_ts,
                "block_waits": self.block_waits,
                "block_timeouts": self.block_timeouts,
            }

    def restore_state(self, state: dict) -> None:
        """Overwrite contents and counters with a snapshot's image; what
        it holds becomes one chunk."""
        with self._lock:
            columns = state["columns"]
            head = next(iter(columns.values()))
            self._head = head.hseq
            self._chunks = []
            if len(head):
                owned = {name: _own(bat.tail, bat.atom) for name, bat in columns.items()}
                stamps = owned.pop(TS_COLUMN, 0)  # 0: a basket without timestamps
                self._chunks.append(_Chunk(head.hseq, owned, stamps, len(head)))
            self._appended_total = state["appended_total"]
            self._clock = state["clock"]
            self._watermark = state["watermark"]
            self._newest_ts = state.get("newest_ts")
            self.block_waits = state["block_waits"]
            self.block_timeouts = state["block_timeouts"]


class Cursor(_Reader):
    """One factory's read position on a shared :class:`Basket`.

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
        #: The offset it opened at.
        self.opened_at = position
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
