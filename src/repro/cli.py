"""Interactive shell for the DataCell engine (``python -m repro``).

A small line-oriented console a downstream user can drive without writing
Python: declare streams/tables, register continuous queries, replay CSV
files into streams, and inspect results.

Commands (case-insensitive keywords; one per line)::

    CREATE STREAM name (col type, ...) [PARTITION BY col]
                                           declare a (partitioned) stream
    CREATE TABLE name (col type, ...)      create a stored table
    SUBMIT [REEVAL] <select ...>           register a continuous query
    FEED stream FROM path.csv [CHUNK n]    replay a CSV into a stream
    LOAD table FROM path.csv               bulk-load a stored table
    RUN                                    fire all ready factories
    RESULTS [query] [LAST]                 print window results
    EXPLAIN <select ...>                   show the optimized logical plan
    EXPLAIN CONTINUOUS <select ...>        show the incremental programs
    STATS                                  overload counters + factory stats
    TOP                                    live-style per-factory table
    TRACE [n]                              dump the last n firing spans
    METRICS [PROM|JSON]                    export the metrics snapshot
    <select ...>                           one-time query over tables
    QUERIES / STREAMS / HELP / QUIT

The console is a thin veneer: every command maps 1:1 onto a
:class:`repro.DataCellEngine` method, so scripts double as API examples.

``--capacity N`` bounds every stream the console creates to N parked
tuples (however many queries read it), and ``--overflow POLICY`` picks
what happens when producers outrun the engine (``fail`` or
``block[:timeout]`` — see docs/OPERATIONS.md).  The ``STATS`` command prints per-stream overload
counters and per-factory profiler snapshots.

``--partitions P`` enables key-partitioned streams: ``CREATE STREAM ...
PARTITION BY col`` then hash-routes arriving tuples across P partition
engines and merges each query's per-partition windows back exactly
(DESIGN.md §14).  With the default ``--partitions 1`` the ``PARTITION BY``
clause is accepted and the stream runs as an ordinary one.

``python -m repro lint [...]`` is a separate subcommand that statically
verifies rewritten plans (see :mod:`repro.analysis.lint`), and
``python -m repro fuzz [...]`` runs the differential fuzzing harness
(see :mod:`repro.testing.fuzz`).

``python -m repro serve --data-dir DIR`` runs the console against a
*durable* engine: every command is journaled to the data directory,
checkpoints are taken in the background (``--checkpoint-interval`` /
``--checkpoint-bytes``), and a crashed serve session is recovered —
snapshot restore plus journal replay — on the next start.  The console
gains a ``CHECKPOINT`` command to force one on demand (docs/OPERATIONS.md
§7).

Observability subcommands (docs/OPERATIONS.md §6)::

    python -m repro top [--once | --interval S --count N] [script...]
    python -m repro trace [--last N] [script...]

Both replay the given console scripts into a fresh engine first, then
render the observability views: ``top`` the per-factory table (repeating
every ``--interval`` seconds until ``--count`` frames, or a single frame
with ``--once``/when scripts are given), ``trace`` the recent firing
spans.
"""

from __future__ import annotations

import re
import shlex
import sys
from typing import Optional, TextIO

from repro.core.engine import DataCellEngine
from repro.core.overflow import OverflowPolicy, parse_overflow_spec
from repro.errors import ReproError
from repro.workloads.csvio import read_csv_chunks

_SCHEMA_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$", re.DOTALL)


def _parse_schema(text: str) -> tuple[str, list[tuple[str, str]]]:
    """Parse ``name (col type, col type, ...)``."""
    match = _SCHEMA_RE.match(text)
    if not match:
        raise ReproError(f"expected 'name (col type, ...)', got {text!r}")
    name = match.group(1)
    columns = []
    for part in match.group(2).split(","):
        pieces = part.split()
        if len(pieces) != 2:
            raise ReproError(f"bad column declaration {part.strip()!r}")
        columns.append((pieces[0], pieces[1]))
    if not columns:
        raise ReproError("at least one column is required")
    return name, columns


class Console:
    """The command interpreter; one instance owns one engine.

    ``capacity``/``overflow`` are the console-wide overload defaults
    applied to every ``CREATE STREAM``.
    """

    def __init__(
        self,
        out: Optional[TextIO] = None,
        capacity: Optional[int] = None,
        overflow: Optional[OverflowPolicy] = None,
        partitions: int = 1,
        engine: Optional[DataCellEngine] = None,
    ) -> None:
        self.engine = engine if engine is not None else DataCellEngine(
            partitions=partitions
        )
        self.capacity = capacity
        self.overflow = overflow
        self.out = out if out is not None else sys.stdout
        self._done = False

    # ------------------------------------------------------------------
    def println(self, text: str = "") -> None:
        print(text, file=self.out)

    def execute(self, line: str) -> bool:
        """Execute one command line; returns False once QUIT is seen."""
        line = line.strip()
        if not line or line.startswith("--"):
            return not self._done
        try:
            self._dispatch(line)
        except ReproError as exc:
            self.println(f"error: {exc}")
        except Exception as exc:  # surface, keep the console alive
            self.println(f"error: {type(exc).__name__}: {exc}")
        return not self._done

    def run(self, source: TextIO) -> None:
        """Drive the console from a file-like source of lines."""
        for line in source:
            if not self.execute(line):
                break

    # ------------------------------------------------------------------
    def _dispatch(self, line: str) -> None:
        upper = line.upper()
        if upper in ("QUIT", "EXIT"):
            self._done = True
            return
        if upper == "HELP":
            self.println(__doc__ or "")
            return
        if upper == "RUN":
            fired = self.engine.run_until_idle()
            self.println(f"fired {fired} window(s)")
            return
        if upper == "QUERIES":
            for name, query in self._all_queries().items():
                self.println(
                    f"{name}: [{query.mode}] {query.sql} "
                    f"({len(query.results())} windows)"
                )
            return
        if upper == "STREAMS":
            for stream in self.engine._logs:
                schema = self.engine.catalog.stream(stream).schema
                cols = ", ".join(f"{n} {a.value}" for n, a in schema.columns)
                self.println(f"{stream} ({cols})")
            return
        if upper == "STATS":
            self._stats()
            return
        if upper == "CHECKPOINT":
            stats = self.engine.checkpoint()
            self.println(
                f"checkpoint {stats['snapshot_id']}: {stats['bytes']} byte(s), "
                f"journal horizon seq {stats['horizon']}"
            )
            return
        if upper == "TOP":
            from repro.obs.console import render_top

            self.println(render_top(self.engine))
            return
        if upper == "TRACE" or upper.startswith("TRACE "):
            from repro.obs.console import render_trace

            rest = line[len("TRACE"):].strip() or "10"
            if not rest.isdigit() or int(rest) < 1:
                raise ReproError("usage: TRACE [n] with n >= 1")
            last = int(rest)
            self.println(render_trace(self.engine, last=last))
            return
        if upper == "METRICS" or upper.startswith("METRICS "):
            rest = line[len("METRICS"):].strip().upper()
            if rest in ("", "PROM", "PROMETHEUS"):
                self.println(self.engine.metrics(format="prometheus"))
            elif rest == "JSON":
                self.println(self.engine.metrics(format="json"))
            else:
                raise ReproError(f"METRICS takes PROM or JSON, got {rest!r}")
            return
        if upper.startswith("CREATE STREAM "):
            rest = line[len("CREATE STREAM "):]
            partition_by = None
            match = re.search(r"\)\s*PARTITION\s+BY\s+(\w+)\s*$", rest, re.I)
            if match:
                partition_by = match.group(1)
                rest = rest[: match.start() + 1]
            name, columns = _parse_schema(rest)
            self.engine.create_stream(
                name,
                columns,
                capacity=self.capacity,
                overflow=self.overflow,
                partition_by=partition_by,
            )
            suffix = ""
            if self.capacity is not None:
                policy = self.overflow.describe() if self.overflow else "fail"
                suffix = f" (capacity {self.capacity}, overflow {policy})"
            if partition_by is not None:
                suffix += (
                    f" (partitioned by {partition_by} across "
                    f"{self.engine.partitions} partition(s))"
                )
            self.println(f"stream {name} created{suffix}")
            return
        if upper.startswith("CREATE TABLE "):
            name, columns = _parse_schema(line[len("CREATE TABLE "):])
            self.engine.create_table(name, columns)
            self.println(f"table {name} created")
            return
        if upper.startswith("SUBMIT "):
            rest = line[len("SUBMIT "):].strip()
            mode = "incremental"
            if rest.upper().startswith("REEVAL "):
                mode = "reeval"
                rest = rest[len("REEVAL "):]
            query = self.engine.submit(rest, mode=mode)
            self.println(f"registered {query.name} [{mode}]")
            return
        if upper.startswith("FEED "):
            self._feed(line[len("FEED "):])
            return
        if upper.startswith("LOAD "):
            self._load(line[len("LOAD "):])
            return
        if upper.startswith("RESULTS"):
            self._results(line[len("RESULTS"):].strip())
            return
        if upper.startswith("EXPLAIN CONTINUOUS "):
            self.println(
                self.engine.explain_continuous(line[len("EXPLAIN CONTINUOUS "):])
            )
            return
        if upper.startswith("EXPLAIN "):
            self.println(self.engine.explain(line[len("EXPLAIN "):]))
            return
        if upper.startswith("SELECT"):
            result = self.engine.query_once(line)
            self._print_columns(result)
            return
        raise ReproError(f"unknown command {line.split()[0]!r} (try HELP)")

    # ------------------------------------------------------------------
    def _all_queries(self) -> dict:
        """Ordinary and partitioned query handles, by name."""
        queries: dict = dict(self.engine._queries)
        queries.update(self.engine._pqueries)
        return queries

    def _feed(self, rest: str) -> None:
        tokens = shlex.split(rest)
        if len(tokens) not in (3, 5) or tokens[1].upper() != "FROM":
            raise ReproError("usage: FEED stream FROM path.csv [CHUNK n]")
        stream, path = tokens[0], tokens[2]
        chunk = 4096
        if len(tokens) == 5:
            if tokens[3].upper() != "CHUNK":
                raise ReproError("usage: FEED stream FROM path.csv [CHUNK n]")
            chunk = int(tokens[4])
        schema = self.engine.catalog.stream(stream).schema
        total = 0
        for columns in read_csv_chunks(path, schema, chunk):
            total += self.engine.feed(stream, columns=columns)
            self.engine.run_until_idle()
        self.println(f"fed {total} tuple(s) into {stream}")

    def _load(self, rest: str) -> None:
        tokens = shlex.split(rest)
        if len(tokens) != 3 or tokens[1].upper() != "FROM":
            raise ReproError("usage: LOAD table FROM path.csv")
        table, path = tokens[0], tokens[2]
        schema = self.engine.catalog.table(table).schema
        total = 0
        for columns in read_csv_chunks(path, schema, 8192):
            total += self.engine.catalog.table(table).append_columns(columns)
        self.println(f"loaded {total} row(s) into {table}")

    def _results(self, rest: str) -> None:
        tokens = rest.split()
        last_only = bool(tokens) and tokens[-1].upper() == "LAST"
        if last_only:
            tokens = tokens[:-1]
        names = tokens if tokens else list(self._all_queries())
        for name in names:
            query = self.engine.query(name)
            batches = query.results()
            if last_only and batches:
                batches = batches[-1:]
            self.println(f"-- {name}: {len(query.results())} window(s)")
            for batch in batches:
                self.println(
                    f"window {batch.window_index} "
                    f"({batch.response_seconds * 1000:.3f} ms): {batch.rows()}"
                )

    def _stats(self) -> None:
        """Per-stream overload counters + per-factory profiler snapshots."""
        with self.engine.scheduler.scan_boundary():
            overload = self.engine.overload_stats()
            factories = self.engine.scheduler.factory_stats()
        if overload:
            self.println("-- streams")
            for stream, stats in overload.items():
                capacity = stats["capacity"] or "unbounded"
                self.println(
                    f"{stream}: capacity={capacity} readers={stats['baskets']} "
                    f"parked={stats['parked']} "
                    f"block_waits={stats['block_waits']} "
                    f"block_timeouts={stats['block_timeouts']}"
                )
        if factories:
            self.println("-- factories")
            for name, snapshot in factories.items():
                parts = [
                    f"{key}={value}"
                    for key, value in sorted(snapshot["counters"].items())
                ]
                parts.extend(
                    f"{tag}={seconds:g}s"
                    for tag, seconds in sorted(snapshot["tags"].items())
                )
                self.println(f"{name}: {' '.join(parts) or '(no firings yet)'}")

    def _print_columns(self, result: dict[str, list]) -> None:
        names = list(result)
        self.println(" | ".join(names))
        for row in zip(*result.values()):
            self.println(" | ".join(str(v) for v in row))
        if names:
            self.println(f"({len(result[names[0]])} row(s))")


def _run_obs_cli(command: str, argv: list[str]) -> int:
    """``python -m repro top`` / ``python -m repro trace``.

    Replays the given console scripts into a fresh engine, then renders
    the requested observability view.  ``top`` renders one frame per
    ``--interval`` seconds for ``--count`` frames (``--once`` = one
    frame; giving scripts also defaults to a single frame, since a
    replayed engine is static).  ``trace`` prints the last ``--last N``
    firing spans.
    """
    import time as _time

    from repro.obs.console import render_top, render_trace

    once = False
    interval = 2.0
    count: Optional[int] = None
    last = 10
    scripts: list[str] = []
    try:
        index = 0
        while index < len(argv):
            arg = argv[index]
            name, __, inline = arg.partition("=")
            if name == "--once":
                once = True
            elif name in ("--interval", "--count", "--last"):
                if inline:
                    value = inline
                else:
                    index += 1
                    if index >= len(argv):
                        raise ValueError(f"{name} needs a value")
                    value = argv[index]
                if name == "--interval":
                    interval = float(value)
                    if interval <= 0:
                        raise ValueError("--interval must be positive")
                elif name == "--count":
                    count = int(value)
                    if count < 1:
                        raise ValueError("--count must be >= 1")
                else:
                    last = int(value)
                    if last < 1:
                        raise ValueError("--last must be >= 1")
            elif name.startswith("--"):
                raise ValueError(f"unknown flag {name!r}")
            else:
                scripts.append(arg)
            index += 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    console = Console()
    for path in scripts:
        with open(path) as script:
            console.run(script)
    if command == "trace":
        print(render_trace(console.engine, last=last))
        return 0
    frames = 1 if (once or (count is None and scripts)) else (count or 1)
    try:
        for frame in range(frames):
            if frame:
                _time.sleep(interval)
            print(render_top(console.engine))
    except KeyboardInterrupt:
        pass
    return 0


def _run_serve_cli(argv: list[str]) -> int:
    """``python -m repro serve --data-dir DIR`` — durable console mode.

    Opens (or recovers) a durable engine rooted at ``--data-dir``: if the
    directory already holds a manifest or journal the engine is rebuilt
    with :meth:`DataCellEngine.restore` (snapshot + journal replay),
    otherwise a fresh journaling engine is created.  A background thread
    then takes a consistent checkpoint every ``--checkpoint-interval``
    seconds (default 30) or as soon as the live journal segment exceeds
    ``--checkpoint-bytes`` bytes (optional size trigger), whichever
    comes first.  Commands are read from the given script files and then
    stdin; on clean exit a final checkpoint is taken.  A crash (SIGKILL,
    power loss) at any point loses nothing: the next ``serve`` replays
    the journal past the last checkpoint horizon (docs/OPERATIONS.md §7).
    """
    import threading
    import time as _time

    from repro.core.durability import has_data

    data_dir: Optional[str] = None
    interval = 30.0
    checkpoint_bytes: Optional[int] = None
    partitions = 1
    capacity: Optional[int] = None
    overflow: Optional[OverflowPolicy] = None
    scripts: list[str] = []
    try:
        index = 0
        while index < len(argv):
            arg = argv[index]
            name, __, inline = arg.partition("=")
            if name in (
                "--data-dir", "--checkpoint-interval", "--checkpoint-bytes",
                "--partitions", "--capacity", "--overflow",
            ):
                if inline:
                    value = inline
                else:
                    index += 1
                    if index >= len(argv):
                        raise ValueError(f"{name} needs a value")
                    value = argv[index]
                if name == "--data-dir":
                    data_dir = value
                elif name == "--checkpoint-interval":
                    interval = float(value)
                    if interval <= 0:
                        raise ValueError("--checkpoint-interval must be positive")
                elif name == "--checkpoint-bytes":
                    checkpoint_bytes = int(value)
                    if checkpoint_bytes < 1:
                        raise ValueError("--checkpoint-bytes must be >= 1")
                elif name == "--partitions":
                    partitions = int(value)
                    if partitions < 1:
                        raise ValueError("--partitions must be >= 1")
                elif name == "--capacity":
                    capacity = int(value)
                    if capacity < 1:
                        raise ValueError("--capacity must be >= 1")
                else:
                    overflow = parse_overflow_spec(value)
            elif name.startswith("--"):
                raise ValueError(f"unknown flag {name!r}")
            else:
                scripts.append(arg)
            index += 1
        if data_dir is None:
            raise ValueError("serve requires --data-dir")
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        engine = DataCellEngine.restore(data_dir) if has_data(data_dir) else None
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if engine is not None:
        engine.run_until_idle()
        print(f"recovered engine from {data_dir}", file=sys.stderr)
    else:
        engine = DataCellEngine(partitions=partitions, data_dir=data_dir)
        print(f"created durable engine at {data_dir}", file=sys.stderr)
    console = Console(engine=engine, capacity=capacity, overflow=overflow)
    stop = threading.Event()

    def checkpointer() -> None:
        last = _time.monotonic()
        while not stop.wait(0.2):
            due = _time.monotonic() - last >= interval
            if checkpoint_bytes is not None and not due:
                stats = engine.durability_stats()
                due = stats.get("journal_bytes", 0) >= checkpoint_bytes
            if not due:
                continue
            try:
                engine.checkpoint()
            except ReproError:  # pragma: no cover - defensive
                pass
            last = _time.monotonic()

    thread = threading.Thread(target=checkpointer, name="checkpointer", daemon=True)
    thread.start()
    try:
        for path in scripts:
            with open(path) as script:
                console.run(script)
        console.run(sys.stdin)
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        thread.join(timeout=10)
        try:
            engine.checkpoint()
        except Exception:  # pragma: no cover - best effort at shutdown
            pass
        engine.close()
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point: interactive REPL, or replay script files given as args.

    ``python -m repro lint ...`` dispatches to the static plan verifier
    (see :mod:`repro.analysis.lint`).
    """
    argv = argv if argv is not None else sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.analysis.lint import run_lint_cli

        return run_lint_cli(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.testing.fuzz.runner import run_fuzz_cli

        return run_fuzz_cli(argv[1:])
    if argv and argv[0] in ("top", "trace"):
        return _run_obs_cli(argv[0], argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve_cli(argv[1:])
    capacity: Optional[int] = None
    overflow = None
    partitions = 1
    known = ("--capacity", "--overflow", "--partitions")
    while argv and argv[0].startswith("--"):
        flag = argv.pop(0)
        name, __, inline = flag.partition("=")
        if name not in known:
            print(f"error: unknown flag {name!r}", file=sys.stderr)
            return 2
        if inline:
            value = inline
        elif argv:
            value = argv.pop(0)
        else:
            print(f"error: {name} needs a value", file=sys.stderr)
            return 2
        try:
            if name == "--partitions":
                partitions = int(value)
                if partitions < 1:
                    raise ValueError
            elif name == "--capacity":
                capacity = int(value)
                if capacity < 1:
                    raise ValueError
            else:
                overflow = parse_overflow_spec(value)
        except ValueError:
            print(f"error: {name} needs a positive integer, got {value!r}",
                  file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if overflow is not None and capacity is None:
        print("error: --overflow needs --capacity", file=sys.stderr)
        return 2
    console = Console(capacity=capacity, overflow=overflow, partitions=partitions)
    try:
        if argv:
            for path in argv:
                with open(path) as script:
                    console.run(script)
            return 0
        console.println("DataCell console — HELP for commands, QUIT to leave")
        try:
            while True:
                line = input("datacell> ")
                if not console.execute(line):
                    break
        except (EOFError, KeyboardInterrupt):
            console.println()
        return 0
    finally:
        console.engine.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
