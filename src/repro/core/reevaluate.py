"""DataCellR — the complete re-evaluation baseline (paper §3, Algorithm 1).

Every time the window slides, the *entire* focus window is recomputed with
the unmodified DBMS plan.  This is exactly how a plain DBMS would support
continuous queries (plus scheduling); the paper uses it as the solid
baseline that the incremental DataCell is measured against.

The factory retains the live window's tuples in per-column builders (the
basket itself only buffers *arriving* tuples and is drained each step, the
same contract :class:`~repro.core.factory.IncrementalFactory` has).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.basket import Basket, Cursor
from repro.core.factory import FactoryBase, ResultBatch, _TimeSlicer
from repro.core.windows import TS_COLUMN, WindowSpec
from repro.errors import SchedulerError, UnsupportedQueryError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT, BATBuilder
from repro.kernel.execution.backends import make_backend
from repro.kernel.execution.profiler import Profiler
from repro.kernel.storage import Table
from repro.sql.logical import find_scans
from repro.sql.physical import CompiledQuery, compile_full
from repro.sql.planner import PlannedQuery


class _WindowBuffer:
    """Retains the current focus window of one stream, column-wise."""

    def __init__(self, columns: list[tuple[str, Atom]], window: WindowSpec) -> None:
        self.window = window
        self._builders = {name: BATBuilder(atom) for name, atom in columns}
        self._ts = BATBuilder(Atom.TIMESTAMP) if window.time_based else None

    def __len__(self) -> int:
        return len(next(iter(self._builders.values())))

    def append(self, cols: dict[str, np.ndarray], ts: Optional[np.ndarray]) -> None:
        for name, builder in self._builders.items():
            builder.extend(cols[name])
        if self._ts is not None:
            assert ts is not None
            self._ts.extend(ts)

    def trim(self, boundary: Optional[int] = None) -> None:
        """Expire tuples that slid out of the focus window.

        For time-based windows ``boundary`` is the exclusive upper bound of
        the newest consumed basic window; the window covers
        ``[boundary - size, boundary)``.
        """
        if self.window.is_landmark:
            return
        if self.window.time_based:
            assert self._ts is not None and boundary is not None
            ts = self._ts.snapshot().tail
            if len(ts) == 0:
                return
            low = boundary - self.window.size
            drop = int(np.searchsorted(ts, low, side="left"))
            if drop > 0:
                for builder in self._builders.values():
                    builder.drop_head(drop)
                self._ts.drop_head(drop)
            return
        excess = len(self) - self.window.size
        if excess > 0:
            for builder in self._builders.values():
                builder.drop_head(excess)

    def snapshot(self) -> dict[str, BAT]:
        return {name: builder.snapshot() for name, builder in self._builders.items()}

    def snapshot_state(self) -> dict:
        """Serializable image of the retained window tuples."""
        state: dict = {
            "columns": {
                name: BAT(
                    np.array(builder.snapshot().tail, copy=True),
                    builder.atom,
                    builder.hseq,
                )
                for name, builder in self._builders.items()
            }
        }
        if self._ts is not None:
            state["ts"] = BAT(
                np.array(self._ts.snapshot().tail, copy=True),
                self._ts.atom,
                self._ts.hseq,
            )
        return state

    def restore_state(self, state: dict) -> None:
        for name, bat in state["columns"].items():
            builder = BATBuilder(bat.atom, hseq=bat.hseq)
            builder.extend(bat.tail)
            self._builders[name] = builder
        if self._ts is not None:
            ts = state["ts"]
            rebuilt = BATBuilder(ts.atom, hseq=ts.hseq)
            rebuilt.extend(ts.tail)
            self._ts = rebuilt


class ReevalFactory(FactoryBase):
    """Full re-evaluation of the window on every slide (DataCellR)."""

    def __init__(
        self,
        planned: PlannedQuery,
        baskets: dict[str, Basket | Cursor],
        tables: Optional[dict[str, Table]] = None,
        name: str = "factory-r",
        backend: str = "interpreted",
    ) -> None:
        self.name = name
        self.planned = planned
        self.compiled: CompiledQuery = compile_full(planned)
        self._baskets = baskets
        self._tables = tables or {}
        self._interp = make_backend(backend)
        self._initialized = False
        self.window_index = 0
        self.windows: dict[str, WindowSpec] = {}
        self._buffers: dict[str, _WindowBuffer] = {}
        self._table_aliases: list[str] = []
        self._slicers: dict[str, _TimeSlicer] = {}
        self._consumed_total = 0
        for scan in find_scans(planned.plan):
            if not scan.is_stream:
                if scan.alias not in self._tables:
                    raise SchedulerError(f"no table bound for {scan.alias!r}")
                self._table_aliases.append(scan.alias)
                continue
            if scan.window is None:
                raise UnsupportedQueryError(
                    f"stream {scan.relation!r} needs a window clause"
                )
            window = WindowSpec.from_clause(scan.window)
            self.windows[scan.alias] = window
            columns = [
                (name, atom)
                for name, atom in scan.schema
                if scan.alias in self.compiled.scan_inputs
                and name in self.compiled.scan_inputs[scan.alias]
            ]
            self._buffers[scan.alias] = _WindowBuffer(columns, window)
            if window.time_based:
                self._slicers[scan.alias] = _TimeSlicer(window.step)

    # -- durability ----------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable image for checkpointing (see repro.core.durability)."""
        return {
            "window_index": self.window_index,
            "initialized": self._initialized,
            "consumed_total": self._consumed_total,
            "slicers": {
                alias: [slicer.origin, slicer.consumed_windows]
                for alias, slicer in self._slicers.items()
            },
            "buffers": {
                alias: buffer.snapshot_state()
                for alias, buffer in self._buffers.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self.window_index = state["window_index"]
        self._initialized = state["initialized"]
        self._consumed_total = state["consumed_total"]
        for alias, (origin, consumed) in state["slicers"].items():
            slicer = self._slicers[alias]
            slicer.origin = origin
            slicer.consumed_windows = consumed
        for alias, buffer_state in state["buffers"].items():
            self._buffers[alias].restore_state(buffer_state)

    # -- stepping ------------------------------------------------------
    def step(self, profiler: Optional[Profiler] = None) -> Optional[ResultBatch]:
        if not self.ready():
            return None
        profiler = profiler if profiler is not None else Profiler()
        start = time.perf_counter()
        inputs: dict[str, BAT] = {}
        for alias, window in self.windows.items():
            self._ingest(alias, window)
            snapshot = self._buffers[alias].snapshot()
            for column, slot in self.compiled.scan_inputs.get(alias, {}).items():
                inputs[slot] = snapshot[column]
        for alias in self._table_aliases:
            table = self._tables[alias]
            for column, slot in self.compiled.scan_inputs.get(alias, {}).items():
                inputs[slot] = table.column(column)
        outputs = self._interp.run(self.compiled.program, inputs, profiler)
        # Materialize every output column: a pass-through projection makes
        # the interpreter return the *input* BAT itself, which is a
        # zero-copy view into this factory's window buffer — the next
        # step's trim() compacts that buffer in place and would corrupt
        # the batch after it was emitted (found by `repro fuzz`).
        columns = {
            name: BAT(
                np.array(outputs[slot].tail, copy=True),
                outputs[slot].atom,
                outputs[slot].hseq,
            )
            for name, slot in zip(
                self.compiled.output_names, self.compiled.output_slots
            )
        }
        self.window_index += 1
        self._initialized = True
        return ResultBatch(
            names=list(self.compiled.output_names),
            columns=columns,
            window_index=self.window_index,
            response_seconds=time.perf_counter() - start,
            breakdown=profiler.tags(),
        )

    def _ingest(self, alias: str, window: WindowSpec) -> None:
        """Move this step's arrivals from the basket into the window buffer."""
        basket = self._baskets[alias]
        buffer = self._buffers[alias]
        columns = list(self.compiled.scan_inputs.get(alias, {}).keys())
        boundary: Optional[int] = None
        with basket.locked():
            if window.time_based:
                slicer = self._slicers[alias]
                owed = (
                    1
                    if (self._initialized or window.is_landmark)
                    else window.basic_windows
                )
                take = 0
                for __ in range(owed):
                    boundary = slicer.boundary(slicer.consumed_windows)
                    take = basket.count_before(boundary)
                    slicer.consumed_windows += 1
            else:
                take = (
                    window.step
                    if (self._initialized or window.is_landmark)
                    else window.size
                )
            cols = basket.head_slice(take, columns)
            arrays = {name: np.array(bat.tail, copy=True) for name, bat in cols.items()}
            ts = None
            if window.time_based:
                ts = np.array(
                    basket.head_slice(take, [TS_COLUMN])[TS_COLUMN].tail, copy=True
                )
            basket.delete_head(take)
        self._consumed_total += take
        buffer.append(arrays, ts)
        buffer.trim(boundary)
