"""Torn reads and scheduler lifecycle races, each pinned by a regression test.

The observability exporters once read multi-field state in several loads
(``SpanRecorder.stats``, ``LogHistogram.export``/``snapshot``), and
``Scheduler.start``/``stop`` tested and set the loop handle without the
lock.  Each test here targets one of those seams: a torn snapshot fails
deterministically, a race within a few hundred iterations.  The
observability structures are single-writer, without locks; the torn-read
tests hold them to their invariants with a lock-free reader.
"""

import math
import sys
import threading

import pytest

from repro.core.engine import DataCellEngine
from repro.core.scheduler import Scheduler, SchedulerError
from repro.errors import ReproError
from repro.obs.hist import LogHistogram
from repro.obs.spans import FiringSpan, SpanRecorder

# Every test here runs threads against the firing thread's structures.
pytestmark = pytest.mark.concurrency


def span(seq):
    return FiringSpan("q", seq, 0.0, 0.001, 1, 1, 0.0, {})


def hammer(threads):
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_span_recorder_stats_snapshot_is_internally_consistent():
    """collect_metrics/render_trace used to read _next and dropped as two
    separate unguarded loads; a concurrent record() between them produced
    dropped > total - capacity (an impossible combination)."""
    recorder = SpanRecorder(capacity=8)
    stop = threading.Event()
    snapshots = []

    def writer():
        seq = 0
        while not stop.is_set():
            seq += 1
            recorder.record(span(seq))

    def reader():
        for _ in range(2000):
            snapshots.append(recorder.stats())
        stop.set()

    hammer([threading.Thread(target=writer), threading.Thread(target=reader)])
    for stats in snapshots:
        assert stats["dropped"] == max(0, stats["total"] - stats["capacity"])
        assert stats["recorded"] == min(stats["total"], stats["capacity"])


def test_histogram_export_is_atomic():
    """_render_histogram used to iterate buckets() then read .sum/.count
    unguarded; observes in between broke the Prometheus invariant that
    the +Inf cumulative bucket equals _count."""
    hist = LogHistogram()
    stop = threading.Event()
    exports = []

    def writer():
        value = 1
        while not stop.is_set():
            hist.observe(value)
            value = value % 4096 + 1

    def reader():
        for _ in range(2000):
            exports.append(hist.export())
        stop.set()

    hammer([threading.Thread(target=writer), threading.Thread(target=reader)])
    for buckets, total, count in exports:
        assert buckets[-1][1] == count  # cumulative top == count
        assert count == 0 or total > 0


def test_histogram_snapshot_quantiles_stay_inside_min_max():
    """snapshot() used to read count/sum/min/max under one lock and each
    quantile under another; a writer observing ever larger values in
    between pushed p99 past the max it had already returned."""
    hist = LogHistogram()
    stop = threading.Event()
    torn = []

    def writer():
        value = 1e-6
        while not stop.is_set():
            hist.observe(value)
            value += 1e-6

    def reader():
        for _ in range(20000):
            snap = hist.snapshot()
            if snap["count"] and not (
                snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
            ):
                torn.append(snap)
        stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        hammer([threading.Thread(target=writer), threading.Thread(target=reader)])
    finally:
        sys.setswitchinterval(interval)
    assert not torn, torn[:3]


def test_opcode_histograms_count_every_profiled_call():
    """Per-opcode histograms are fed on the one firing thread, without a
    lock: after a background run with four producers, each histogram
    counts exactly the calls the engine profiler recorded for its opcode
    and sums exactly its seconds (each firing folds in its mean
    instruction time, weighted by its calls)."""
    engine = DataCellEngine()
    engine.create_stream("s", [("a", "int")])
    engine.submit("SELECT sum(a) AS x FROM s [RANGE 8 SLIDE 4]")
    engine.submit("SELECT a FROM s [RANGE 8 SLIDE 4] WHERE a > 3")

    def producer(base):
        for i in range(100):
            engine.feed("s", [(base + i,)])

    engine.start(poll_interval=0.0005)
    try:
        hammer([threading.Thread(target=producer, args=(1000 * k,)) for k in range(4)])
    finally:
        engine.stop(drain=True)
    profiled = engine.profiler.snapshot()
    calls = profiled["calls"]
    hists = engine.obs.opcode_histograms()
    counts = {op: hist.count for op, hist in hists.items()}
    assert sum(calls.values()) > 0
    assert counts == calls
    for op, hist in hists.items():
        assert math.isclose(hist.sum, profiled["opcodes"][op], rel_tol=1e-9), op


def test_prometheus_histogram_inf_bucket_matches_count_under_load():
    engine = DataCellEngine()
    engine.create_stream("s", [("a", "int")])
    engine.submit("SELECT sum(a) AS x FROM s [RANGE 8 SLIDE 4]")
    from repro.obs.metrics import collect_metrics, render_prometheus

    stop = threading.Event()

    def feeder():
        i = 0
        while not stop.is_set():
            engine.feed("s", [(i,)])
            engine.run_until_idle()
            i += 1

    thread = threading.Thread(target=feeder)
    thread.start()
    try:
        for _ in range(50):
            text = render_prometheus(collect_metrics(engine), engine.obs)
            counts = {}
            infs = {}
            for line in text.splitlines():
                if line.startswith("#") or not line:
                    continue
                name, value = line.rsplit(" ", 1)
                if 'le="+Inf"' in name:
                    infs[name.split("{")[0].removesuffix("_bucket")] = value
                elif name.endswith("_count"):
                    counts[name.removesuffix("_count")] = value
            for metric, count in counts.items():
                assert infs.get(metric, count) == count, text
    finally:
        stop.set()
        thread.join()


def test_scheduler_double_start_races_to_exactly_one_winner():
    """start() used to test-then-set _thread without the lock: two
    concurrent start() calls could both pass the None check and spawn
    two scheduler loops over the same registrations."""
    for _ in range(100):
        scheduler = Scheduler()
        outcomes = []
        barrier = threading.Barrier(2)

        def starter():
            barrier.wait()
            try:
                scheduler.start()
                outcomes.append("ok")
            except SchedulerError:
                outcomes.append("refused")

        hammer([threading.Thread(target=starter) for _ in range(2)])
        try:
            assert sorted(outcomes) == ["ok", "refused"]
        finally:
            scheduler.stop()


def test_scheduler_stop_joins_outside_the_lock():
    """stop() joins the loop thread after releasing _lock — the loop's
    scans take _lock themselves, so joining under it deadlocks.  A
    simple start/feed/stop cycle must terminate promptly."""
    engine = DataCellEngine()
    engine.create_stream("s", [("a", "int")])
    handle = engine.submit("SELECT sum(a) AS x FROM s [RANGE 8 SLIDE 4]")
    engine.scheduler.start()
    for i in range(32):
        engine.feed("s", [(i,)])
    done = threading.Event()

    def stopper():
        engine.scheduler.stop()
        done.set()

    thread = threading.Thread(target=stopper)
    thread.start()
    thread.join(timeout=10)
    assert done.is_set(), "scheduler.stop() deadlocked"
    assert handle.results()


def test_worker_error_is_reported_via_the_lock():
    scheduler = Scheduler()

    class Boom(Exception):
        pass

    class BadFactory:
        name = "bad"

        def ready(self):
            return True

        def step(self, profiler=None):
            raise Boom("factory exploded")

        def baskets(self):
            return []

    class NullEmitter:
        def emit(self, batch):  # pragma: no cover - never reached
            pass

    scheduler.register(BadFactory(), NullEmitter())
    scheduler.start()
    try:
        scheduler.stop()
        raise AssertionError("worker error was swallowed")
    except (Boom, ReproError, SchedulerError):
        pass
