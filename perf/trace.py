"""Outside-in span tracing for the benchmark's traced run.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces a
fixed list of public callables (``TARGETS``) with timing wrappers for the
duration of one traced run and puts the originals back afterwards.  Spans
stay in memory as ``(name, layer, start, end, parent, value)`` tuples and
are written as JSON lines when the run ends.

A layer's *self time* is the time inside its spans that no child span
covers (:func:`self_times`), so the self times of all layers under one
root span add up to that root's duration.

Shard worker processes are not traced: the wrappers are installed after
the engine (and so its workers) exists, and spans recorded in a forked
child would die with it anyway.  The coordinator's ``core.shard`` spans
bound the workers' busy time from outside.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Optional

Span = tuple  # (name, layer, start, end, parent index or -1, value or None)


def _rows(args, result):
    return len(result) if result is not None else 0


#: ``(module, dotted attribute, layer, value(args, result) or None)``.
#: Module-level functions are patched where the engine looks them up.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("repro.core.engine", "DataCellEngine.submit", "core.engine", None),
    ("repro.core.engine", "DataCellEngine.feed", "core.engine", lambda a, r: r),
    ("repro.core.engine", "DataCellEngine.run_until_idle", "core.engine", lambda a, r: r),
    ("repro.core.basket", "Basket.append_columns", "core.basket", lambda a, r: r),
    ("repro.core.basket", "Basket.append_rows", "core.basket", lambda a, r: r),
    ("repro.core.basket", "Basket.delete_head", "core.basket", None),
    ("repro.core.scheduler", "Scheduler.run_once", "core.scheduler", lambda a, r: r),
    ("repro.core.factory", "IncrementalFactory.step", "core.factory", _rows),
    ("repro.core.partials", "FragmentCache.get_or_compute", "core.partials", None),
    ("repro.core.emitter", "CollectingEmitter.__call__", "core.emitter", lambda a, r: len(a[2])),
    ("repro.core.engine", "route_columns", "core.partition", None),
    ("repro.core.shard", "ShardSet.feed_partition", "core.shard", None),
    ("repro.core.shard", "ShardSet.run", "core.shard", None),
    ("repro.core.shard", "ShardSet.collect", "core.shard", None),
    ("repro.core.shard", "PartitionedQuery.drain", "core.shard", lambda a, r: r),
    ("repro.core.durability", "DurabilityManager.journal", "core.durability", None),
    ("repro.core.engine", "DataCellEngine.checkpoint", "core.durability", lambda a, r: r["bytes"] if r else None),
    ("repro.core.engine", "DataCellEngine.restore", "core.durability", None),
]

#: Both execution backends override ``ExecutionBackend.run``; spans are
#: named after the role of the program they ran (see label_programs).
_BACKENDS = ("InterpreterBackend", "CompiledBackend")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []
        #: id(Program) -> "fragment" | "combine" | "finalize"
        self.roles: dict[int, str] = {}

    # -- recording -------------------------------------------------------
    def wrap(self, fn, name, layer: str, value=None):
        """A timing wrapper around ``fn``.  ``name`` is a string or a
        callable of the positional arguments; ``value(args, result)``
        stores one number with the span (a count of rows, firings...)."""
        spans, stack = self.spans, self._stack
        dynamic = callable(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # keep spans in start order
            parent = stack[-1]
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (
                    name(args) if dynamic else name,
                    layer,
                    start,
                    end,
                    parent,
                    value(args, result) if value is not None else None,
                )

        return traced

    @contextmanager
    def span(self, name: str, layer: str):
        """Record the enclosed block as one span (driver-side boundaries)."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = perf_counter()
        try:
            yield index
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, layer, start, end, parent, None)

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            # Wrap the bound method; a staticmethod keeps call sites working.
            setattr(owner, attr, staticmethod(make(getattr(owner, attr))))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        for module_name, dotted, layer, value in TARGETS:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(
                owner, attr, lambda fn, n=dotted, la=layer, v=value: self.wrap(fn, n, la, v)
            )
        backends = importlib.import_module("repro.kernel.execution.backends")
        roles = self.roles
        for cls in _BACKENDS:
            self._patch(
                getattr(backends, cls),
                "run",
                lambda fn: self.wrap(
                    fn,
                    lambda args: "run:" + roles.get(id(args[1]), "other"),
                    "kernel.execution",
                ),
            )

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def label_programs(self, plan) -> None:
        """Name the programs of one IncrementalPlan by what they do, so
        ``ExecutionBackend.run`` spans split into fragment/combine/finalize."""
        fragments = [plan.fragment, plan.pair_fragment]
        fragments += [prep.program for prep in plan.preps.values()]
        for program in fragments:
            if program is not None:
                self.roles[id(program)] = "fragment"
        self.roles[id(plan.combine)] = "combine"
        self.roles[id(plan.finalize)] = "finalize"

    # -- output ----------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span is None:  # still open (an exception unwound past it)
                    continue
                name, layer, start, end, parent, value = span
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "value": value,
                        }
                    )
                )
                out.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the interval children cover.

    Spans must be in start order (the tracer guarantees it).  Children
    are clipped against what earlier siblings already covered, so
    overlapping children (two threads under one parent) never subtract
    the same instant twice.
    """
    own = [span[3] - span[2] for span in spans]
    covered_until = [span[2] for span in spans]
    for index, (__, __, start, end, parent, __) in enumerate(spans):
        if parent < 0:
            continue
        lo = max(start, covered_until[parent])
        hi = min(end, spans[parent][3])
        if hi > lo:
            own[parent] -= hi - lo
            covered_until[parent] = hi
    return own


def subtree(spans: list[Span], root: int) -> list[Span]:
    """The spans under ``root`` (inclusive), re-indexed from 0."""
    keep: dict[int, int] = {root: 0}
    out = [spans[root][:4] + (-1,) + spans[root][5:]]
    for index in range(root + 1, len(spans)):
        span = spans[index]
        if span is not None and span[4] in keep:
            keep[index] = len(out)
            out.append(span[:4] + (keep[span[4]],) + span[5:])
    return out


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[1]] = totals.get(span[1], 0.0) + own
    return totals


def select(spans: Iterable[Span], name: str) -> list[Span]:
    return [span for span in spans if span[0] == name]
