"""Random continuous-query generator walking the Figure-3 operator taxonomy.

Every query the generator emits is *guaranteed valid*: after drawing the
SQL it is planned, optimized and submitted (both incremental and reeval
mode) against a throwaway engine holding the drawn schemas — a draw that
any layer rejects is discarded and retried, so downstream oracle code
never has to special-case unsupported shapes.

The taxonomy dimensions (paper Figure 3) are tracked as *features* on
each :class:`FuzzQuery`; the fuzz runner rotates a ``focus`` feature
through :data:`TAXONOMY` so a modest budget still covers every operator
class deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.core.engine import DataCellEngine
from repro.errors import ReproError

#: The Figure-3 operator classes the generator must cover.  Each entry is
#: a feature tag a query can carry; the runner's coverage table is keyed
#: on exactly this tuple.
TAXONOMY: tuple[str, ...] = (
    "select",
    "project",
    "sum",
    "min",
    "max",
    "count",
    "avg",
    "group-by",
    "distinct",
    "order-by",
    "join",
    "single-stream",
    "multi-stream",
    "window-count",
    "window-time",
    "window-landmark",
)

#: Time-based window steps, in milliseconds (parser multiplies by 1000).
_TIME_STEPS_MS = (10, 20, 50)

#: Feature tag of a deep-window draw (:meth:`QueryGenerator.deepen`).  Not
#: part of :data:`TAXONOMY`: the runner's focus rotation is keyed on that
#: tuple's length, and historical (seed, iteration) pairs must keep their
#: focus.
DEEP_WINDOW = "window-deep"
#: Share of eligible (single-stream, sliding) queries redrawn deep, and
#: the basic-window range (feeds stay a few hundred rows).
_DEEP_RATE = 0.30
_DEEP_BASIC_WINDOWS = (32, 161)
#: Feature tag of a deep join draw: both join sides' windows redrawn to
#: n ∈ [8, 40] basic windows, so one slide's join runs split into many
#: seq-tag pairs.  Outside :data:`TAXONOMY` for the same reason.
JOIN_DEEP = "join-deep"
#: Feature tag of a wide-key draw (:meth:`QueryGenerator.widen`): some int
#: stream columns take signed values far apart, so grouping meets negative
#: keys, spans past the row count (the sort fallback) and multi-key codes
#: past 2**62 (compression).  Outside :data:`TAXONOMY` like the others.
KEYS_WIDE = "keys-wide"
#: Share of int stream columns redrawn wide, and the bound of their
#: values: two such keys' spans multiply past 2**62, yet a sum over any
#: generated window (joins included) stays far inside int64.
_WIDE_RATE = 0.20
_WIDE_INT = 2**40
#: Feature tag of a long invertible draw (:meth:`QueryGenerator.lengthen`):
#: a single-stream count window over int ``sum``/``count``/``avg`` and at
#: most two int keys, which slides a running table (DESIGN.md §17), fed
#: many slides past its first window over a few keys, so slides revisit
#: groups the table holds.  Outside :data:`TAXONOMY` like the others.
RUNNING_LONG = "running-long"
#: Foci whose features every long draw carries (the coverage check must
#: still see each iteration's focus), the share of such single-stream
#: iterations redrawn, and the slides fed past the first window.
_LONG_FOCI = ("project", "sum", "count", "avg", "group-by", "single-stream", "window-count")
_LONG_RATE = 0.30
_LONG_SLIDES = (24, 65)


@dataclass(frozen=True)
class WindowGeometry:
    """One stream's window: |W|/|w| plus kind, renderable back to SQL.

    ``size``/``step`` are tuple counts for count-based windows and
    *milliseconds* for time-based ones (the SQL clause carries the unit).
    """

    kind: str  # "sliding" | "tumbling" | "landmark"
    size: Optional[int]
    step: int
    time_based: bool = False

    def clause(self) -> str:
        unit = " MILLISECONDS" if self.time_based else ""
        if self.kind == "landmark":
            return f"[LANDMARK SLIDE {self.step}{unit}]"
        if self.kind == "tumbling":
            return f"[RANGE {self.size}{unit}]"
        return f"[RANGE {self.size}{unit} SLIDE {self.step}{unit}]"

    @property
    def size_us(self) -> Optional[int]:
        return self.size * 1_000 if (self.time_based and self.size) else self.size

    @property
    def step_us(self) -> int:
        return self.step * 1_000 if self.time_based else self.step

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "step": self.step,
            "time_based": self.time_based,
        }

    @staticmethod
    def from_json(data: dict) -> "WindowGeometry":
        return WindowGeometry(
            data["kind"], data["size"], data["step"], data["time_based"]
        )


@dataclass
class FuzzQuery:
    """A generated continuous query, kept clause-by-clause.

    The structured form (not just the SQL string) is what makes the
    minimizer and the metamorphic relations possible: clauses can be
    dropped or windows swapped and the SQL re-rendered.
    """

    select_items: list[str]
    distinct: bool
    aliases: list[str]  # FROM order; streams first, then the table if any
    windows: dict[str, WindowGeometry]  # stream alias -> geometry
    join_cond: Optional[str]
    where: Optional[str]
    group_by: list[str]
    having: Optional[str]
    order_by: list[str]
    streams: dict[str, list[tuple[str, str]]]  # name -> [(col, type), ...]
    tables: dict[str, dict] = field(default_factory=dict)
    # name -> {"columns": [(col, type)], "rows": [[...], ...]}
    features: frozenset = frozenset()

    # -- rendering -----------------------------------------------------
    def render(
        self, windows: Optional[dict[str, WindowGeometry]] = None
    ) -> str:
        """The SQL text, optionally with substituted window geometries."""
        windows = windows if windows is not None else self.windows
        froms = []
        for alias in self.aliases:
            if alias in windows:
                froms.append(f"{alias} {windows[alias].clause()}")
            else:
                froms.append(alias)
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(self.select_items))
        parts.append("FROM " + ", ".join(froms))
        conjuncts = []
        if self.join_cond:
            conjuncts.append(self.join_cond)
        if self.where:
            conjuncts.append(f"({self.where})")
        if conjuncts:
            parts.append("WHERE " + " AND ".join(conjuncts))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(self.group_by))
        if self.having:
            parts.append("HAVING " + self.having)
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(self.order_by))
        return " ".join(parts)

    @property
    def sql(self) -> str:
        return self.render()

    # -- capability flags ----------------------------------------------
    @property
    def time_based(self) -> bool:
        return any(g.time_based for g in self.windows.values())

    @property
    def systemx_ok(self) -> bool:
        """SystemX rejects time windows and stream⋈table joins."""
        return not self.time_based and not self.tables

    @property
    def chunk_ok(self) -> bool:
        """m-chunk stepping needs a single count-based sliding window."""
        if len(self.aliases) != 1:
            return False
        geometry = next(iter(self.windows.values()))
        return not geometry.time_based and geometry.kind != "landmark"

    @property
    def partition_key(self) -> Optional[str]:
        """First hashable column of the (single) stream, if any."""
        if len(self.streams) != 1:
            return None
        for name, atom in next(iter(self.streams.values())):
            if atom in ("int", "str", "bool"):
                return name
        return None

    @property
    def has_landmark(self) -> bool:
        return any(g.kind == "landmark" for g in self.windows.values())

    @property
    def partition_ok(self) -> bool:
        """Sharded execution covers single-stream queries with a hashable
        key — landmark included since the partitioned-landmark rework;
        DISTINCT+ORDER BY stays out because the merge only supports order
        keys that appear in the output list."""
        if len(self.aliases) != 1 or self.tables:
            return False
        if self.distinct and self.order_by:
            return False
        return self.partition_key is not None

    # -- (de)serialization ---------------------------------------------
    def to_json(self) -> dict:
        return {
            "select_items": list(self.select_items),
            "distinct": self.distinct,
            "aliases": list(self.aliases),
            "windows": {a: g.to_json() for a, g in self.windows.items()},
            "join_cond": self.join_cond,
            "where": self.where,
            "group_by": list(self.group_by),
            "having": self.having,
            "order_by": list(self.order_by),
            "streams": {n: [list(c) for c in cols] for n, cols in self.streams.items()},
            "tables": {
                n: {
                    "columns": [list(c) for c in t["columns"]],
                    "rows": [list(r) for r in t["rows"]],
                }
                for n, t in self.tables.items()
            },
            "features": sorted(self.features),
        }

    @staticmethod
    def from_json(data: dict) -> "FuzzQuery":
        return FuzzQuery(
            select_items=list(data["select_items"]),
            distinct=data["distinct"],
            aliases=list(data["aliases"]),
            windows={
                a: WindowGeometry.from_json(g) for a, g in data["windows"].items()
            },
            join_cond=data["join_cond"],
            where=data["where"],
            group_by=list(data["group_by"]),
            having=data["having"],
            order_by=list(data["order_by"]),
            streams={
                n: [tuple(c) for c in cols] for n, cols in data["streams"].items()
            },
            tables={
                n: {
                    "columns": [tuple(c) for c in t["columns"]],
                    "rows": [list(r) for r in t["rows"]],
                }
                for n, t in data.get("tables", {}).items()
            },
            features=frozenset(data.get("features", ())),
        )


@dataclass
class Feed:
    """Deterministic input data for one query's streams.

    ``columns`` holds plain Python lists (JSON-serializable for the
    ``.repro.json`` replay format); ``timestamps`` are microseconds for
    time-based streams, None otherwise.  ``punctuate`` maps a stream to a
    closing ``advance_time`` watermark.
    """

    columns: dict[str, dict[str, list]]
    timestamps: dict[str, Optional[list[int]]]
    punctuate: dict[str, int] = field(default_factory=dict)

    def row_count(self, stream: str) -> int:
        cols = self.columns[stream]
        return len(next(iter(cols.values()))) if cols else 0

    def rows(self, stream: str, schema: list[tuple[str, str]]) -> list[tuple]:
        """Schema-ordered row tuples (the SystemX ingestion shape)."""
        cols = [self.columns[stream][name] for name, __ in schema]
        return list(zip(*cols)) if cols else []

    def watermark(self, stream: str) -> Optional[int]:
        """The final time watermark the engine observes for ``stream``."""
        ts = self.timestamps.get(stream)
        high = max(ts) if ts else None
        punct = self.punctuate.get(stream)
        if punct is None:
            return high
        return punct if high is None else max(high, punct)

    def to_json(self) -> dict:
        return {
            "columns": self.columns,
            "timestamps": self.timestamps,
            "punctuate": self.punctuate,
        }

    @staticmethod
    def from_json(data: dict) -> "Feed":
        return Feed(
            columns={
                s: {c: list(v) for c, v in cols.items()}
                for s, cols in data["columns"].items()
            },
            timestamps={
                s: (list(v) if v is not None else None)
                for s, v in data["timestamps"].items()
            },
            punctuate={s: int(v) for s, v in data.get("punctuate", {}).items()},
        )


class QueryGenerator:
    """Draws random valid continuous queries + matching feeds.

    Deterministic given its RNG: the fuzz runner hands a fresh
    ``np.random.default_rng([seed, iteration])`` per iteration so every
    draw is replayable from the two integers alone.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    # ------------------------------------------------------------------
    def query(self, focus: Optional[str] = None, attempts: int = 40) -> FuzzQuery:
        """One valid query; ``focus`` forces a taxonomy feature in."""
        last_error: Optional[Exception] = None
        for __ in range(attempts):
            try:
                candidate = self._draw(focus)
                self._validate(candidate)
            except ReproError as exc:
                last_error = exc
                continue
            return candidate
        raise ReproError(
            f"could not draw a valid query for focus {focus!r}: {last_error}"
        )

    def _validate(self, query: FuzzQuery) -> None:
        """Submit against a throwaway engine in both modes; raises on reject."""
        engine = build_engine(query)
        try:
            engine.submit(query.sql, mode="incremental")
            engine.submit(query.sql, mode="reeval")
        finally:
            engine.close()

    # ------------------------------------------------------------------
    # drawing
    # ------------------------------------------------------------------
    def _draw(self, focus: Optional[str]) -> FuzzQuery:
        rng = self.rng
        features: set[str] = set()

        join = focus in ("join", "multi-stream") or (
            focus not in ("single-stream", "window-time") and rng.random() < 0.30
        )
        time_based = focus == "window-time" or (
            not join and focus not in ("window-count", "window-landmark", "join")
            and rng.random() < 0.25
        )
        with_table = join and rng.random() < 0.30

        streams: dict[str, list[tuple[str, str]]] = {}
        aliases: list[str] = []
        n_streams = 2 if (join and not with_table) else 1
        for index in range(n_streams):
            name = f"s{index}"
            streams[name] = self._stream_schema(index)
            aliases.append(name)

        windows: dict[str, WindowGeometry] = {}
        for alias in aliases:
            want_landmark = focus == "window-landmark" and alias == aliases[0]
            windows[alias] = self._window(time_based, want_landmark)
        if time_based:
            features.add("window-time")
        for geometry in windows.values():
            if geometry.kind == "landmark":
                features.add("window-landmark")
            elif not geometry.time_based:
                features.add("window-count")

        tables: dict[str, dict] = {}
        join_cond: Optional[str] = None
        if join:
            if with_table:
                tables["t0"] = self._table()
                aliases.append("t0")
                right_alias, right_cols = "t0", tables["t0"]["columns"]
            else:
                right_alias, right_cols = "s1", streams["s1"]
            left_key = self._pick_column(streams["s0"], "int")
            right_key = self._pick_column(right_cols, "int")
            join_cond = f"s0.{left_key} = {right_alias}.{right_key}"
            features.update(("join", "multi-stream"))
        else:
            features.add("single-stream")

        qualify = len(aliases) > 1

        def col(alias: str, name: str) -> str:
            return f"{alias}.{name}" if qualify else name

        all_cols = [
            (alias, name, atom)
            for alias in aliases
            for name, atom in (
                streams.get(alias) or tables[alias]["columns"]
            )
        ]
        int_cols = [(a, n) for a, n, t in all_cols if t == "int"]
        num_cols = [(a, n) for a, n, t in all_cols if t in ("int", "float")]
        str_cols = [(a, n) for a, n, t in all_cols if t == "str"]

        aggregate = focus in (
            "sum", "min", "max", "count", "avg", "group-by"
        ) or (focus not in ("project", "distinct") and rng.random() < 0.55)

        select_items: list[str] = []
        group_by: list[str] = []
        having: Optional[str] = None
        output_names: list[str] = []
        distinct = False

        if aggregate:
            n_keys = 0
            if focus == "group-by" or rng.random() < 0.6:
                n_keys = int(rng.integers(1, 3))
            key_pool = int_cols + str_cols
            rng.shuffle(key_pool)
            keys = key_pool[: min(n_keys, len(key_pool))]
            for index, (alias, name) in enumerate(keys):
                out = f"g{index}"
                group_by.append(col(alias, name))
                select_items.append(f"{col(alias, name)} AS {out}")
                output_names.append(out)
            if keys:
                features.add("group-by")
            funcs = self._agg_funcs(focus)
            for index, func in enumerate(funcs):
                features.add(func)
                out = f"a{index}"
                if func == "count" and rng.random() < 0.5:
                    select_items.append(f"count(*) AS {out}")
                else:
                    alias, name = num_cols[int(rng.integers(len(num_cols)))]
                    arg = col(alias, name)
                    if func in ("sum", "avg") and rng.random() < 0.3:
                        arg = f"{arg} * {int(rng.integers(2, 5))}"
                        features.add("project")
                    select_items.append(f"{func}({arg}) AS {out}")
                output_names.append(out)
            if rng.random() < 0.25:
                func = funcs[0]
                if func == "count":
                    having = f"count(*) >= {int(rng.integers(1, 3))}"
                else:
                    alias, name = num_cols[int(rng.integers(len(num_cols)))]
                    having = f"{func}({col(alias, name)}) > {int(rng.integers(0, 6))}"
            # DISTINCT over a bare aggregate output would dedupe float
            # noise differently per engine; with every group key in the
            # select list it is semantically a no-op yet still exercises
            # the operator in every engine.
            if rng.random() < 0.10 and keys:
                distinct = True
        else:
            n_items = int(rng.integers(1, 4))
            pool = [(a, n) for a, n, __ in all_cols]
            rng.shuffle(pool)
            force_expr = focus == "project"
            for index in range(min(n_items, len(pool))):
                alias, name = pool[index]
                out = f"o{index}"
                want_expr = force_expr or rng.random() < 0.35
                if (alias, name) in int_cols and want_expr:
                    op = "+" if rng.random() < 0.5 else "*"
                    expr = f"{col(alias, name)} {op} {int(rng.integers(1, 4))}"
                    select_items.append(f"{expr} AS {out}")
                    force_expr = False
                else:
                    select_items.append(f"{col(alias, name)} AS {out}")
                output_names.append(out)
            if force_expr:  # no int column drawn yet — append one
                alias, name = int_cols[int(rng.integers(len(int_cols)))]
                out = f"o{len(output_names)}"
                select_items.append(f"{col(alias, name)} + 1 AS {out}")
                output_names.append(out)
            if focus == "distinct" or rng.random() < 0.30:
                distinct = True

        if distinct:
            features.add("distinct")
        # every query carries a projection node (Figure 3's π)
        features.add("project")

        where: Optional[str] = None
        if focus == "select" or rng.random() < 0.60:
            where = self._predicate(rng, int_cols, str_cols, col)
        if where is not None or having is not None:
            features.add("select")  # Figure 3's σ (WHERE / HAVING filter)

        order_by: list[str] = []
        if focus == "order-by" or rng.random() < 0.40:
            candidates = list(output_names)
            rng.shuffle(candidates)
            for name in candidates[: int(rng.integers(1, len(candidates) + 1))]:
                suffix = " DESC" if rng.random() < 0.4 else ""
                order_by.append(f"{name}{suffix}")
            features.add("order-by")

        return FuzzQuery(
            select_items=select_items,
            distinct=distinct,
            aliases=aliases,
            windows=windows,
            join_cond=join_cond,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            streams=streams,
            tables=tables,
            features=frozenset(features),
        )

    # ------------------------------------------------------------------
    def _stream_schema(self, index: int) -> list[tuple[str, str]]:
        rng = self.rng
        columns = [("c0", "int"), ("c1", "int")]
        if rng.random() < 0.55:
            columns.append(("c2", "float"))
        if rng.random() < 0.35:
            columns.append(("c3", "str"))
        return columns

    def _table(self) -> dict:
        rng = self.rng
        columns = [("k0", "int"), ("v0", "int")]
        domain = int(rng.integers(3, 9))
        rows = [
            [int(rng.integers(0, domain)), int(rng.integers(0, 20))]
            for __ in range(int(rng.integers(2, 7)))
        ]
        return {"columns": columns, "rows": rows}

    def _window(self, time_based: bool, landmark: bool) -> WindowGeometry:
        rng = self.rng
        if landmark or rng.random() < 0.12:
            if time_based:
                step = int(_TIME_STEPS_MS[int(rng.integers(len(_TIME_STEPS_MS)))])
            else:
                step = int(rng.integers(2, 9))
            return WindowGeometry("landmark", None, step, time_based)
        if time_based:
            step = int(_TIME_STEPS_MS[int(rng.integers(len(_TIME_STEPS_MS)))])
            n = int(rng.integers(1, 5))
        else:
            step = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
        kind = "tumbling" if n == 1 else "sliding"
        return WindowGeometry(kind, n * step, step if n > 1 else n * step, time_based)

    def deepen(self, query: FuzzQuery) -> Optional[FuzzQuery]:
        """Maybe redraw a query's windows with many basic windows.

        Single-stream sliding windows get n ∈ [32, 160] (small steps), so
        running tables and flat merges run at depth; the non-landmark stream
        windows of a join get n ∈ [8, 40] each, so the batched join splits
        each run into many seq-tag pairs — ``_window`` never exceeds n = 6.

        Must be called *after* every other draw of an iteration: (seed,
        iteration) pairs that do not deepen then replay exactly as before
        this draw existed.  Returns None when the query is left as drawn.
        """
        if len(query.aliases) != 1:
            return self._deepen_join(query)
        alias = query.aliases[0]
        geometry = query.windows[alias]
        if geometry.kind == "landmark":
            return None
        rng = self.rng
        if rng.random() >= _DEEP_RATE:
            return None
        n = int(rng.integers(*_DEEP_BASIC_WINDOWS))
        if geometry.time_based:
            step = _TIME_STEPS_MS[0]
        else:
            step = int(rng.integers(1, 4))
        return self._validated(
            replace(
                query,
                windows={
                    alias: WindowGeometry("sliding", n * step, step, geometry.time_based)
                },
                features=query.features | {DEEP_WINDOW},
            )
        )

    def _deepen_join(self, query: FuzzQuery) -> Optional[FuzzQuery]:
        """The join half of :meth:`deepen`: each stream side keeps its
        step and kind of axis; landmark sides stay landmark."""
        sides = [a for a, g in query.windows.items() if g.kind != "landmark"]
        if not sides:
            return None
        rng = self.rng
        if rng.random() >= _DEEP_RATE:
            return None
        windows = dict(query.windows)
        for alias in sides:
            geometry = windows[alias]
            n = int(rng.integers(8, 41))
            windows[alias] = WindowGeometry(
                "sliding", n * geometry.step, geometry.step, geometry.time_based
            )
        return self._validated(
            replace(query, windows=windows, features=query.features | {JOIN_DEEP})
        )

    def widen(self, query: FuzzQuery, feed: Feed) -> Optional[tuple[FuzzQuery, Feed]]:
        """Maybe redraw int stream columns over a wide signed domain.

        Each int column of each stream is redrawn with probability
        ``_WIDE_RATE`` from one shared pool of 3-8 values in
        ``[-_WIDE_INT, _WIDE_INT)`` (shared, so wide join keys still
        match); row counts and every other column stay as drawn.  Must be
        the last draw of an iteration, after :meth:`deepen`, for the same
        replay reason.  Returns None when no column is redrawn.
        """
        rng = self.rng
        pool = rng.integers(-_WIDE_INT, _WIDE_INT, size=int(rng.integers(3, 9)))
        columns = {stream: dict(cols) for stream, cols in feed.columns.items()}
        widened = False
        for stream, schema in query.streams.items():
            for name, atom in schema:
                if atom != "int" or rng.random() >= _WIDE_RATE:
                    continue
                picks = rng.integers(0, len(pool), size=feed.row_count(stream))
                columns[stream][name] = [int(v) for v in pool[picks]]
                widened = True
        if not widened:
            return None
        return (
            replace(query, features=query.features | {KEYS_WIDE}),
            replace(feed, columns=columns),
        )

    def lengthen(self, query: FuzzQuery, focus: str) -> Optional[tuple[FuzzQuery, Feed]]:
        """Maybe redraw a single-stream query as an invertible one — int
        ``sum``/``count``/``avg`` over at most two int keys of 2-8 values,
        on a count window of 2-6 tuple steps — fed 24-64 slides past its
        first window, so most slides find every key of the new and the
        expired partial in the running table (its positional update).

        Keeps the stream's schema and carries ``focus``; a query an
        earlier draw redrew (deep windows, wide keys) keeps that draw.
        Must be the last draw of an iteration, for the same replay reason
        as :meth:`widen`.  Returns None when the query is left as drawn.
        """
        if (
            focus not in _LONG_FOCI
            or len(query.aliases) != 1
            or query.tables
            or query.features & {DEEP_WINDOW, KEYS_WIDE}
        ):
            return None
        rng = self.rng
        if rng.random() >= _LONG_RATE:
            return None
        stream = query.aliases[0]  # its first two columns are int
        keys = ["c0", "c1"][: 1 if focus == "group-by" else int(rng.choice([0, 1, 1, 1, 2]))]
        value = "c1" if keys == ["c0"] else "c0"
        funcs = ["sum", "count", "avg"]
        rng.shuffle(funcs)
        funcs = funcs[: int(rng.integers(1, 4))]
        if focus in ("sum", "count", "avg") and focus not in funcs:
            funcs[0] = focus
        where = f"{value} > {int(rng.integers(-20, 5))}" if rng.random() < 0.3 else None
        n, step = int(rng.integers(2, 13)), int(rng.integers(2, 7))
        features = {"single-stream", "window-count", "project", RUNNING_LONG, *funcs}
        features |= {"group-by"} if keys else set()
        features |= {"select"} if where else set()
        long = self._validated(
            replace(
                query,
                select_items=[f"{key} AS g{i}" for i, key in enumerate(keys)]
                + [f"{func}({value}) AS a{i}" for i, func in enumerate(funcs)],
                distinct=False,
                windows={stream: WindowGeometry("sliding", n * step, step, False)},
                where=where,
                group_by=keys,
                having=None,
                order_by=[],
                features=frozenset(features),
            )
        )
        if long is None:
            return None
        rows = (n + int(rng.integers(*_LONG_SLIDES))) * step
        columns = self._values(query.streams[stream], rows, int(rng.integers(2, 9)))
        if value not in keys:  # signed values: sums cancel and go negative
            columns[value] = [int(v) for v in rng.integers(-20, 21, size=rows)]
        return long, Feed(columns={stream: columns}, timestamps={stream: None})

    def _validated(self, query: FuzzQuery) -> Optional[FuzzQuery]:
        try:
            self._validate(query)
        except ReproError:
            return None
        return query

    def _pick_column(self, columns: list[tuple[str, str]], atom: str) -> str:
        pool = [name for name, t in columns if t == atom]
        return pool[int(self.rng.integers(len(pool)))]

    def _agg_funcs(self, focus: Optional[str]) -> list[str]:
        rng = self.rng
        pool = ["sum", "min", "max", "count", "avg"]
        count = int(rng.integers(1, 4))
        rng.shuffle(pool)
        funcs = pool[:count]
        if focus in pool and focus not in funcs:
            funcs[0] = focus
        return funcs

    def _predicate(self, rng, int_cols, str_cols, col) -> str:
        atoms = []
        for __ in range(int(rng.integers(1, 3))):
            if str_cols and rng.random() < 0.25:
                alias, name = str_cols[int(rng.integers(len(str_cols)))]
                atoms.append(f"{col(alias, name)} = 't{int(rng.integers(0, 3))}'")
                continue
            alias, name = int_cols[int(rng.integers(len(int_cols)))]
            op = ("<", "<=", ">", ">=", "=", "!=")[int(rng.integers(6))]
            atoms.append(f"{col(alias, name)} {op} {int(rng.integers(0, 7))}")
        glue = " AND " if rng.random() < 0.6 else " OR "
        predicate = glue.join(atoms)
        if rng.random() < 0.15:
            predicate = f"NOT ({predicate})"
        return predicate

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------
    def feed(self, query: FuzzQuery, rows_scale: float = 1.0) -> Feed:
        """A feed sized so every stream fires a handful of windows."""
        rng = self.rng
        columns: dict[str, dict[str, list]] = {}
        timestamps: dict[str, Optional[list[int]]] = {}
        punctuate: dict[str, int] = {}
        domain = int(rng.integers(3, 9))
        for alias in query.streams:
            geometry = query.windows[alias]
            if geometry.time_based:
                count = int(rng.integers(8, 32) * rows_scale) or 1
                target = int(rng.integers(2, 5))
                span = (geometry.size_us or geometry.step_us) + target * geometry.step_us
                origin = 1_000_000 + int(rng.integers(0, 10_000))
                ts = sorted(
                    int(v) for v in rng.integers(origin, origin + span, size=count)
                )
                timestamps[alias] = ts
                if rng.random() < 0.6:
                    punctuate[alias] = ts[-1] + geometry.step_us
            else:
                target = int(rng.integers(1, 5))
                base = geometry.size or geometry.step
                count = base + (target - 1) * geometry.step + int(
                    rng.integers(0, geometry.step + 1)
                )
                count = max(1, int(count * rows_scale))
                timestamps[alias] = None
            columns[alias] = self._values(query.streams[alias], count, domain)
        return Feed(columns=columns, timestamps=timestamps, punctuate=punctuate)

    def _values(
        self, schema: list[tuple[str, str]], count: int, domain: int
    ) -> dict[str, list]:
        rng = self.rng
        out: dict[str, list] = {}
        for name, atom in schema:
            if atom == "int":
                out[name] = [int(v) for v in rng.integers(0, domain, size=count)]
            elif atom == "float":
                # quarter-steps keep sums exactly representable, so only
                # genuinely order-sensitive float paths (avg) need the
                # oracle's tolerance
                out[name] = [float(v) / 4.0 for v in rng.integers(0, 40, size=count)]
            else:
                out[name] = [f"t{int(v)}" for v in rng.integers(0, 4, size=count)]
        return out


def build_engine(
    query: FuzzQuery,
    fragment_sharing: bool = True,
    verify_plans: bool = False,
    partitions: int = 1,
    data_dir: Optional[str] = None,
) -> DataCellEngine:
    """A fresh engine holding the query's streams and (loaded) tables.

    ``partitions > 1`` builds a sharded engine and declares every stream
    partitioned by its :attr:`FuzzQuery.partition_key` (the caller is
    responsible for only asking when :attr:`FuzzQuery.partition_ok`).
    ``data_dir`` makes the engine durable (the ``--crash`` axis).
    """
    engine = DataCellEngine(
        verify_plans=verify_plans,
        fragment_sharing=fragment_sharing,
        partitions=partitions,
        data_dir=data_dir,
    )
    for name, cols in query.streams.items():
        key = query.partition_key if partitions > 1 else None
        engine.create_stream(name, cols, partition_by=key)
    for name, table in query.tables.items():
        engine.create_table(name, table["columns"])
        if table["rows"]:
            engine.insert(name, [tuple(r) for r in table["rows"]])
    return engine
