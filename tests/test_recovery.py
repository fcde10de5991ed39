"""Crash-recovery fault tests: kill the engine anywhere, restore, and
assert exactly-once emissions against the fuzzer's reference oracle.

The kill-anywhere sweep is the core property: a :class:`CrashPoint`
fault hook raises :class:`InjectedCrash` at hook ordinal ``at`` — every
ordinal in turn, so the engine dies mid-segment-append (torn frame on
disk), between the append halves, mid-checkpoint (snapshot written but
manifest not), and at every other durability hook point — the test
abandons the engine (no flush, like SIGKILL), restores the data dir,
resumes the workload from the *durable* input offsets, and compares the
final emission list window-by-window against
:class:`~repro.testing.fuzz.reference.ReferenceOracle`.  Equality of
window counts is the exactly-once assertion: a duplicated or lost
window shifts the count.

Workloads are drawn from the fuzz generator at pinned seeds so they
cover aggregation, grouping, time windows with punctuation, a sliding
two-stream join, and (for the partitioned sweep) a shard-mergeable shape.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

from repro.core.durability import DurabilityError, read_manifest, read_snapshot
from repro.core.engine import DataCellEngine
from repro.errors import BasketError, ReproError
from repro.testing.faults import CrashPoint, InjectedCrash
from repro.testing.fuzz.generator import QueryGenerator, build_engine
from repro.testing.fuzz.reference import ReferenceOracle, rows_equivalent

pytestmark = pytest.mark.recovery

#: Rows fed per stream per round; small enough that a workload spans
#: many journal appends (many distinct crash ordinals).
CHUNK = 7

#: Driver rounds after which a checkpoint is taken, so the sweep kills
#: both before the first snapshot exists and between snapshots.
CHECKPOINT_ROUNDS = (1, 3)


def _workload(seed: int, focus: str, rows_scale: float = 1.0):
    rng = np.random.default_rng([seed, 0])
    generator = QueryGenerator(rng)
    query = generator.query(focus)
    return query, generator.feed(query, rows_scale=rows_scale)


def _drive(engine, query, feed) -> None:
    """Feed the whole workload in rounds, resuming from durable offsets.

    ``engine._stream_fed`` counts the rows each stream has *applied* —
    journaled and fed, or replayed from the journal after a restore — so
    slicing every round at that offset makes the driver restartable: a
    crashed-and-restored engine continues exactly where the durable
    state ends, feeding each surviving row exactly once.
    """
    round_no = 0
    while True:
        progressed = False
        for name in query.streams:
            total = feed.row_count(name)
            lo = engine._stream_fed.get(name, 0)
            if lo >= total:
                continue
            hi = min(lo + CHUNK, total)
            columns = {
                col: values[lo:hi] for col, values in feed.columns[name].items()
            }
            ts = feed.timestamps.get(name)
            engine.feed(
                name,
                columns=columns,
                timestamps=ts[lo:hi] if ts is not None else None,
            )
            progressed = True
        if not progressed:
            break
        engine.run_until_idle()
        if round_no in CHECKPOINT_ROUNDS:
            engine.checkpoint()
        round_no += 1
    for name, watermark in feed.punctuate.items():
        engine.advance_time(name, watermark)  # idempotent across restarts
    engine.run_until_idle()


def _run_with_crash(
    data_dir, query, feed, at: int, partitions: int = 1, mode: str = "incremental"
):
    """One sweep iteration: run, crash at hook ordinal ``at``, recover."""
    engine = build_engine(query, partitions=partitions, data_dir=str(data_dir))
    handle = engine.submit(query.sql, mode=mode, name="q")
    crash = CrashPoint(at)
    engine.install_fault_hook(crash)
    try:
        try:
            _drive(engine, query, feed)
        except InjectedCrash:
            engine.abandon()  # die without flushing, like SIGKILL
            engine = DataCellEngine.restore(str(data_dir))
            engine.run_until_idle()
            try:
                handle = engine.query("q")
            except ReproError:
                handle = engine.submit(query.sql, mode=mode, name="q")
            _drive(engine, query, feed)
        return [batch.rows() for batch in handle.results()], crash.fired
    finally:
        engine.close()


def _assert_exactly_once(got, expected, float_tol: float = 1e-6) -> None:
    assert len(got) == len(expected), (
        f"{len(got)} windows emitted, oracle expects {len(expected)} "
        "(duplicate or lost windows after recovery)"
    )
    for index, (left, right) in enumerate(zip(got, expected)):
        assert rows_equivalent(left, right, float_tol), (index, left, right)


def _sweep(
    tmp_path,
    query,
    feed,
    partitions: int = 1,
    min_points: int = 5,
    mode: str = "incremental",
):
    expected = ReferenceOracle(query).windows(feed)
    fired_points = 0
    for at in itertools.count():
        result, fired = _run_with_crash(
            tmp_path / f"dd-{at}", query, feed, at, partitions=partitions, mode=mode
        )
        _assert_exactly_once(result, expected)
        if not fired:
            break
        fired_points += 1
    # The sweep must have actually exercised crash points, not run clean.
    assert fired_points >= min_points, fired_points
    return fired_points


def test_kill_anywhere_single_partition(tmp_path):
    query, feed = _workload(0, "sum")
    _sweep(tmp_path, query, feed)


def test_kill_anywhere_single_partition_reeval(tmp_path):
    """The same sweep in ``mode="reeval"``: restores read the window's
    prep bundles back from the snapshot."""
    query, feed = _workload(0, "sum")
    _sweep(tmp_path, query, feed, mode="reeval")


def test_kill_anywhere_time_windows_with_punctuation(tmp_path):
    query, feed = _workload(3, "window-time")
    assert feed.punctuate  # the workload must cover advance_time records
    _sweep(tmp_path, query, feed)


def _join_checkpoint(tmp_path, query, feed, mode: str) -> dict:
    """Drive ``query`` clean and return its state in the last snapshot,
    after checking that snapshot holds a half-consumed basic window and
    leaves windows to fire."""
    data_dir = tmp_path / "clean"
    engine = build_engine(query, data_dir=str(data_dir))
    try:
        engine.submit(query.sql, mode=mode, name="q")
        _drive(engine, query, feed)
    finally:
        engine.close()
    manifest = read_manifest(str(data_dir))
    state = read_snapshot(os.path.join(data_dir, "snapshots", manifest["snapshot"]))
    qstate = state["query_states"]["q"]
    assert qstate["watermark"] + 1 < len(ReferenceOracle(query).windows(feed))
    assert any(
        (state["stream_fed"][alias] - position) % query.windows[alias].step
        for alias, position in qstate["cursors"].items()
    )
    return qstate["factory"]


def _join_workload():
    query, feed = _workload(18, "join", rows_scale=2)
    assert len(query.streams) == 2 and not query.tables
    assert all(w.kind == "sliding" for w in query.windows.values())
    return query, feed


def test_kill_anywhere_join(tmp_path):
    """A sliding two-stream equi-join, checkpointed with live basic-window
    pairs and a half-consumed basic window, and windows left to fire after
    that checkpoint (twice the default feed): restores read the join's
    tagged pair tables back from the snapshot and merge them again."""
    query, feed = _join_workload()
    factory = _join_checkpoint(tmp_path, query, feed, "incremental")
    assert len(factory["pairs"]["index"][0]) > 0
    _sweep(tmp_path, query, feed)


def test_kill_anywhere_join_reeval(tmp_path):
    """The same join in ``mode="reeval"``: the snapshot holds each
    stream's live prep bundles (its window's tuples) and no pair table;
    restores concatenate them again."""
    query, feed = _join_workload()
    factory = _join_checkpoint(tmp_path, query, feed, "reeval")
    assert "pairs" not in factory
    assert set(factory["prep_stores"]) == set(query.streams)
    assert all(store["bundles"] for store in factory["prep_stores"].values())
    _sweep(tmp_path, query, feed, mode="reeval")


@pytest.mark.partition
def test_kill_anywhere_partitioned(tmp_path):
    query, feed = _workload(0, "group-by")
    assert query.partition_ok
    _sweep(tmp_path, query, feed, partitions=2)


@pytest.mark.partition
def test_partitioned_restore_matches_unkilled_single_partition(tmp_path):
    """A killed-and-restored P=2 run equals a never-killed P=1 run."""
    query, feed = _workload(0, "group-by")
    assert query.partition_ok

    baseline = build_engine(query)
    try:
        handle = baseline.submit(query.sql, name="q")
        _drive_plain(baseline, query, feed)
        reference = [batch.rows() for batch in handle.results()]
    finally:
        baseline.close()

    # Kill the partitioned run mid-checkpoint (ordinal inside the first
    # checkpoint's hook window) and once mid-append.
    for label, at in (("mid-append", 4), ("mid-checkpoint", None)):
        data_dir = tmp_path / f"p2-{label}"
        if at is None:
            at = _first_checkpoint_ordinal(query, feed)
        result, fired = _run_with_crash(
            data_dir, query, feed, at, partitions=2
        )
        assert fired, f"{label}: crash ordinal {at} never reached"
        _assert_exactly_once(result, reference)


def _drive_plain(engine, query, feed) -> None:
    """The `_drive` loop without checkpoints, for non-durable baselines."""
    offsets = {name: 0 for name in query.streams}
    while True:
        progressed = False
        for name in query.streams:
            total = feed.row_count(name)
            lo = offsets[name]
            if lo >= total:
                continue
            hi = min(lo + CHUNK, total)
            offsets[name] = hi
            columns = {
                col: values[lo:hi] for col, values in feed.columns[name].items()
            }
            ts = feed.timestamps.get(name)
            engine.feed(
                name,
                columns=columns,
                timestamps=ts[lo:hi] if ts is not None else None,
            )
            progressed = True
        if not progressed:
            break
        engine.run_until_idle()
    for name, watermark in feed.punctuate.items():
        engine.advance_time(name, watermark)
    engine.run_until_idle()


def _first_checkpoint_ordinal(query, feed) -> int:
    """Hook ordinal of the first `checkpoint.snapshot_written` point.

    Counted by a dry run with a recording hook, so the mid-checkpoint
    kill lands between the snapshot write and the manifest rename — the
    half-committed-checkpoint state — wherever the workload puts it.
    """
    from repro.core.durability import HOOK_SNAPSHOT_WRITTEN

    seen: list[str] = []

    class Recorder:
        def __call__(self, point: str) -> None:
            seen.append(point)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        engine = build_engine(query, data_dir=os.path.join(tmp, "dd"))
        try:
            engine.submit(query.sql, name="q")
            engine.install_fault_hook(Recorder())
            _drive(engine, query, feed)
        finally:
            engine.close()
    return seen.index(HOOK_SNAPSHOT_WRITTEN)


def test_crash_between_feed_and_fire(tmp_path):
    """Mid-firing crash: input journaled, factories never ran."""
    query, feed = _workload(0, "sum")
    expected = ReferenceOracle(query).windows(feed)
    data_dir = tmp_path / "dd"
    engine = build_engine(query, data_dir=str(data_dir))
    try:
        engine.submit(query.sql, name="q")
        name = next(iter(query.streams))
        total = feed.row_count(name)
        half = total // 2
        columns = {c: v[:half] for c, v in feed.columns[name].items()}
        ts = feed.timestamps.get(name)
        engine.feed(
            name,
            columns=columns,
            timestamps=ts[:half] if ts is not None else None,
        )
        # No run_until_idle: the crash hits with every window unfired.
        engine.abandon()

        engine = DataCellEngine.restore(str(data_dir))
        engine.run_until_idle()
        _drive(engine, query, feed)
        handle = engine.query("q")
        _assert_exactly_once(
            [batch.rows() for batch in handle.results()], expected
        )
    finally:
        engine.close()


def test_reset_landmark_is_journaled(tmp_path):
    """Regression: ``reset_landmark`` must write a journal record.

    It mutates query state outside the feed path, so without a record
    a crash after the reset replays the feeds with the reset missing —
    recovery resurrects the discarded cumulative partials and re-emits
    post-reset windows with pre-reset totals.
    """
    data_dir = tmp_path / "dd"
    engine = DataCellEngine(data_dir=str(data_dir))
    try:
        engine.create_stream("s", [("v", "int")])
        handle = engine.submit(
            "SELECT sum(v) AS t FROM s [LANDMARK SLIDE 4]", name="q"
        )
        engine.feed("s", columns={"v": np.arange(12, dtype=np.int64)})
        engine.run_until_idle()
        engine.reset_landmark("q")
        engine.feed(
            "s", columns={"v": np.asarray([10, 20, 30, 40], dtype=np.int64)}
        )
        engine.run_until_idle()
        expected = [batch.rows() for batch in handle.results()]
        # Window 4 covers only post-reset tuples: 10+20+30+40, not the
        # cumulative 66+100 an unreset landmark would report.
        assert expected[-1] == [(100,)]
        engine.abandon()  # die without flushing, like SIGKILL

        engine = DataCellEngine.restore(str(data_dir))
        engine.run_until_idle()
        got = [batch.rows() for batch in engine.query("q").results()]
        assert got == expected
    finally:
        engine.close()


def test_reset_landmark_crash_sweep(tmp_path):
    """Kill-anywhere over a workload that resets mid-stream.

    Every durability hook ordinal in turn, with a ``reset_landmark``
    issued halfway through the feed: the restored engine must replay
    the reset at the same consumption point and converge on the same
    emission list as an unkilled run.
    """
    _reset_landmark_sweep(tmp_path, "incremental")


def test_reset_landmark_crash_sweep_reeval(tmp_path):
    """The same sweep in ``mode="reeval"``, against the unkilled
    incremental run: the reset empties the landmark's prep store."""
    _reset_landmark_sweep(tmp_path, "reeval")


def _reset_landmark_sweep(tmp_path, mode: str) -> None:
    sql = "SELECT sum(v) AS t FROM s [LANDMARK SLIDE 4]"
    values = np.arange(28, dtype=np.int64)

    def drive(engine) -> None:
        total = len(values)
        while True:
            lo = engine._stream_fed.get("s", 0)
            if lo == total // 2:
                # Issued at a round boundary so a crashed run resuming
                # at this offset re-issues it: the reset pins itself at
                # a quiescent point, making the re-issue an idempotent
                # no-op when the journal already replayed it, while a
                # run whose reset record never became durable gets the
                # reset applied on the retry.
                engine.reset_landmark("q")
                engine.checkpoint()
            if lo >= total:
                break
            hi = min(lo + CHUNK, total)
            engine.feed("s", columns={"v": values[lo:hi]})
            engine.run_until_idle()
        engine.run_until_idle()

    # Reference emissions from an unkilled incremental run.
    ref_dir = tmp_path / "ref"
    engine = DataCellEngine(data_dir=str(ref_dir))
    try:
        engine.create_stream("s", [("v", "int")])
        handle = engine.submit(sql, name="q")
        drive(engine)
        expected = [batch.rows() for batch in handle.results()]
    finally:
        engine.close()
    assert len(expected) == 7

    fired_points = 0
    for at in itertools.count():
        data_dir = tmp_path / f"dd-{at}"
        engine = DataCellEngine(data_dir=str(data_dir))
        engine.create_stream("s", [("v", "int")])
        handle = engine.submit(sql, mode=mode, name="q")
        crash = CrashPoint(at)
        engine.install_fault_hook(crash)
        try:
            try:
                drive(engine)
            except InjectedCrash:
                engine.abandon()
                engine = DataCellEngine.restore(str(data_dir))
                engine.run_until_idle()
                handle = engine.query("q")
                drive(engine)
            got = [batch.rows() for batch in handle.results()]
        finally:
            engine.close()
        _assert_exactly_once(got, expected)
        if not crash.fired:
            break
        fired_points += 1
    assert fired_points >= 5, fired_points


def test_reset_landmark_rejects_landmark_sliding_join(tmp_path):
    """Regression: reset on a landmark ⋈ sliding join must be refused.

    The reset used to clear *both* sides' partials, silently corrupting
    the sliding side — windows that had not expired stopped
    contributing.  The factory now rejects the shape up front, and the
    refused reset must leave emissions untouched.
    """
    sql = (
        "SELECT count(*) FROM s a [LANDMARK SLIDE 8], s2 b [RANGE 8 SLIDE 8] "
        "WHERE a.v = b.v"
    )
    data_dir = tmp_path / "dd"
    engine = DataCellEngine(data_dir=str(data_dir))
    try:
        engine.create_stream("s", [("v", "int")])
        engine.create_stream("s2", [("v", "int")])
        handle = engine.submit(sql, name="q")
        check = engine.submit(sql, mode="reeval", name="check")
        rng = np.random.default_rng(7)
        for stream in ("s", "s2"):
            engine.feed(
                stream, columns={"v": rng.integers(0, 6, 16).astype(np.int64)}
            )
        engine.run_until_idle()
        assert handle.results()  # the join actually emitted

        with pytest.raises(ReproError, match="sliding"):
            engine.reset_landmark("q")

        # The refused reset must not have touched any partials: feeding
        # more input continues the join from unbroken state, matching
        # the never-reset reevaluation twin on the same workload.
        for stream in ("s", "s2"):
            engine.feed(
                stream, columns={"v": rng.integers(0, 6, 16).astype(np.int64)}
            )
        engine.run_until_idle()
        assert handle.result_rows() == check.result_rows()
        engine.abandon()

        # The raised reset must not have written a journal record either:
        # replay is the same never-reset workload.
        engine = DataCellEngine.restore(str(data_dir))
        engine.run_until_idle()
        assert (
            engine.query("q").result_rows() == engine.query("check").result_rows()
        )
    finally:
        engine.close()


def test_no_leaked_segments_or_temp_files(tmp_path):
    """After checkpoints + GC the data dir holds only live artifacts."""
    query, feed = _workload(0, "sum")
    data_dir = tmp_path / "dd"
    engine = build_engine(query, data_dir=str(data_dir))
    try:
        engine.submit(query.sql, name="q")
        # A landmark query alongside the workload: its state lives in
        # the snapshot, never in files of its own.
        stream = next(iter(query.streams))
        col = next(iter(feed.columns[stream]))
        engine.submit(
            f"SELECT {col} FROM {stream} [LANDMARK SLIDE 5]", name="lm"
        )
        _drive(engine, query, feed)  # takes two checkpoints
        engine.checkpoint()
    finally:
        engine.close()
    found = sorted(
        os.path.relpath(os.path.join(root, f), data_dir)
        for root, __, files in os.walk(data_dir)
        for f in files
    )
    assert not [f for f in found if f.endswith(".tmp")], found
    snapshots = [f for f in found if f.startswith("snapshots/")]
    assert len(snapshots) == 1, found  # GC keeps only the live snapshot
    for name in found:
        assert (
            name == "MANIFEST.json"
            or name.startswith("segments/segment-")
            or name.startswith("snapshots/snapshot-")
        ), found


def test_fresh_engine_refuses_existing_data_dir(tmp_path):
    data_dir = tmp_path / "dd"
    engine = DataCellEngine(data_dir=str(data_dir))
    engine.create_stream("s", [("v", "int")])
    engine.close()
    with pytest.raises(DurabilityError):
        DataCellEngine(data_dir=str(data_dir))
    restored = DataCellEngine.restore(str(data_dir))
    assert restored.catalog.has_stream("s")
    restored.close()


def _dir_listing(data_dir) -> list:
    """(path, size) of every file under ``data_dir``."""
    paths = [
        os.path.join(root, name)
        for root, __, names in os.walk(data_dir)
        for name in names
    ]
    return sorted((os.path.relpath(p, data_dir), os.path.getsize(p)) for p in paths)


@pytest.mark.parametrize("checkpointed", [False, True], ids=["journal-only", "checkpointed"])
@pytest.mark.parametrize(
    "format_, named",
    [(None, "no format number"), (1, "format 1"), (2, "format 2")],
    ids=["missing", "format-1", "format-2"],
)
def test_restore_refuses_a_dir_in_another_format(
    tmp_path, monkeypatch, format_, named, checkpointed
):
    """The engine meta — the journal's first record and every snapshot's
    ``meta`` — carries the data-dir format.  A dir whose meta has no
    format, or another number, is refused with an error naming what it
    found, before anything is applied: the dir is left as it was."""
    current_meta = DataCellEngine._meta

    def meta(self):
        out = {key: value for key, value in current_meta(self).items() if key != "format"}
        if format_ is not None:
            out["format"] = format_
        return out

    monkeypatch.setattr(DataCellEngine, "_meta", meta)
    data_dir = tmp_path / "dd"
    engine = DataCellEngine(data_dir=str(data_dir))
    engine.create_stream("s", [("v", "int")])
    engine.submit("SELECT sum(v) AS t FROM s [RANGE 8 SLIDE 4]", name="q")
    engine.feed("s", columns={"v": np.arange(20, dtype=np.int64)})
    engine.run_until_idle()
    if checkpointed:
        engine.checkpoint()
    engine.feed("s", columns={"v": np.arange(20, 32, dtype=np.int64)})
    engine.abandon()
    monkeypatch.undo()

    before = _dir_listing(data_dir)
    with pytest.raises(DurabilityError, match=named):
        DataCellEngine.restore(str(data_dir))
    assert _dir_listing(data_dir) == before


@pytest.mark.parametrize(
    "bad",
    [
        {"columns": {"v": [1, 2]}},
        {"columns": {"v": [1, 2, 3], "w": [1, 2]}},
        {"columns": {"v": [1, 2], "w": [3, 4]}, "timestamps": [5]},
    ],
    ids=["missing-column", "ragged", "timestamps-length"],
)
def test_rejected_feed_leaves_the_data_dir_restorable(tmp_path, bad):
    """Regression: a batch the basket rejects used to be journaled
    first, so every restore replayed it, raised again, and the data dir
    could no longer be recovered."""
    data_dir = tmp_path / "dd"
    engine = DataCellEngine(data_dir=str(data_dir))
    try:
        engine.create_stream("s", [("v", "int"), ("w", "int")])
        handle = engine.submit(
            "SELECT sum(v) AS t, count(*) AS n FROM s [RANGE 4 SLIDE 2]", name="q"
        )
        with pytest.raises(BasketError):
            engine.feed("s", **bad)
        values = np.arange(8, dtype=np.int64)
        engine.feed("s", columns={"v": values, "w": values})
        engine.run_until_idle()
        expected = [batch.rows() for batch in handle.results()]
        assert len(expected) == 3
        engine.abandon()

        engine = DataCellEngine.restore(str(data_dir))
        engine.run_until_idle()
        got = [batch.rows() for batch in engine.query("q").results()]
        assert got == expected
    finally:
        engine.close()


def test_auto_names_never_collide(tmp_path):
    """Regression: a failed submit used up an auto-name number that
    journal replay never saw, so a restored engine handed out a name
    the live one already had (``factory 'q2' already registered``); an
    explicit ``name="q<n>"`` collided with the next auto-name the same
    way on a live engine."""
    sql = "SELECT sum(v) AS t FROM s [RANGE 4 SLIDE 2]"
    data_dir = tmp_path / "dd"
    engine = DataCellEngine(data_dir=str(data_dir))
    try:
        engine.create_stream("s", [("v", "int")])
        with pytest.raises(ReproError):
            engine.submit("SELECT missing FROM s [RANGE 4 SLIDE 2]")
        assert engine.submit(sql).name == "q1"
        engine.abandon()

        engine = DataCellEngine.restore(str(data_dir))
        assert engine.submit(sql).name == "q2"
        engine.submit(sql, name="q3")
        named = [engine.submit(sql).name for __ in range(2)]
        assert len({"q1", "q2", "q3", *named}) == 5
        live_next = engine._auto_name()
        engine.abandon()

        engine = DataCellEngine.restore(str(data_dir))
        assert engine.submit(sql).name == live_next
    finally:
        engine.close()


def test_removed_landmark_query_stays_removed(tmp_path):
    """``remove`` on a landmark query is journaled: a restore neither
    resurrects it nor disturbs the query still running beside it."""
    data_dir = tmp_path / "dd"
    engine = DataCellEngine(data_dir=str(data_dir))
    try:
        engine.create_stream("s", [("v", "int")])
        engine.submit("SELECT v FROM s [LANDMARK SLIDE 4] WHERE v > 2", name="lm")
        handle = engine.submit("SELECT sum(v) AS t FROM s [LANDMARK SLIDE 4]", name="q")
        engine.feed("s", columns={"v": np.arange(8, dtype=np.int64)})
        engine.run_until_idle()
        engine.checkpoint()
        engine.remove("lm")
        engine.feed("s", columns={"v": np.arange(8, 16, dtype=np.int64)})
        engine.run_until_idle()
        expected = [batch.rows() for batch in handle.results()]
        assert expected[-1] == [(120,)]
        engine.abandon()

        engine = DataCellEngine.restore(str(data_dir))
        engine.run_until_idle()
        with pytest.raises(KeyError):
            engine.query("lm")
        assert [batch.rows() for batch in engine.query("q").results()] == expected
    finally:
        engine.close()


def test_kill_anywhere_landmark_selection(tmp_path):
    """Crash at every durability hook ordinal while a non-compacting
    landmark query accumulates; each restore must converge on the
    unkilled run's windows, exactly once."""
    sql = "SELECT v FROM s [LANDMARK SLIDE 4] WHERE v >= 0"
    values = np.arange(36, dtype=np.int64)

    def drive(engine) -> None:
        round_no = 0
        while (lo := engine._stream_fed.get("s", 0)) < len(values):
            engine.feed("s", columns={"v": values[lo : lo + 9]})
            engine.run_until_idle()
            if round_no == 1:
                engine.checkpoint()
            round_no += 1
        engine.run_until_idle()

    expected = [[(v,) for v in range(4 * (k + 1))] for k in range(9)]
    fired_points = 0
    for at in itertools.count():
        data_dir = tmp_path / f"dd-{at}"
        engine = DataCellEngine(data_dir=str(data_dir))
        engine.create_stream("s", [("v", "int")])
        handle = engine.submit(sql, name="q")
        crash = CrashPoint(at)
        engine.install_fault_hook(crash)
        try:
            try:
                drive(engine)
            except InjectedCrash:
                engine.abandon()  # die without flushing, like SIGKILL
                engine = DataCellEngine.restore(str(data_dir))
                engine.run_until_idle()
                handle = engine.query("q")
                drive(engine)
            got = [batch.rows() for batch in handle.results()]
        finally:
            engine.close()
        assert got == expected, f"ordinal {at}"
        if not crash.fired:
            break
        fired_points += 1
    assert fired_points >= 5, fired_points
