"""Tests for the Petri-net scheduler and emitters.

Includes the threading-model invariant (DESIGN.md §6): one factory fires
at a time per process, whichever threads pump the scheduler.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core.emitter import CallbackEmitter, CollectingEmitter
from repro.core.factory import FactoryBase, ResultBatch
from repro.core.partials import FragmentCache
from repro.core.scheduler import Scheduler
from repro.errors import ReproError, SchedulerError
from repro.kernel.execution.profiler import Profiler


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    return e


def feed(engine, count, seed=0):
    rng = np.random.default_rng(seed)
    engine.feed(
        "s",
        columns={
            "x1": rng.integers(0, 10, count),
            "x2": rng.integers(0, 50, count),
        },
    )


SQL = "SELECT count(*) FROM s [RANGE 40 SLIDE 20]"


class TestSynchronousScheduling:
    def test_run_once_fires_ready_factories(self, engine):
        q1 = engine.submit(SQL)
        q2 = engine.submit(SQL)
        feed(engine, 40)
        fired = engine.scheduler.run_once()
        assert fired == 2
        assert len(q1.results()) == len(q2.results()) == 1

    def test_run_until_idle_drains_backlog(self, engine):
        query = engine.submit(SQL)
        feed(engine, 40 + 20 * 9)
        fired = engine.scheduler.run_until_idle()
        assert fired == 10
        assert len(query.results()) == 10

    def test_idle_when_nothing_ready(self, engine):
        engine.submit(SQL)
        assert engine.scheduler.run_until_idle() == 0

    def test_duplicate_registration_rejected(self, engine):
        query = engine.submit(SQL)
        with pytest.raises(SchedulerError):
            engine.scheduler.register(query.factory)

    def test_unregister_stops_firing(self, engine):
        query = engine.submit(SQL)
        engine.scheduler.unregister(query.name)
        feed(engine, 100)
        assert engine.scheduler.run_until_idle() == 0

    def test_multiple_queries_independent_windows(self, engine):
        fast = engine.submit("SELECT count(*) FROM s [RANGE 20 SLIDE 10]")
        slow = engine.submit("SELECT count(*) FROM s [RANGE 80 SLIDE 40]")
        feed(engine, 80)
        engine.run_until_idle()
        assert len(fast.results()) == 7
        assert len(slow.results()) == 1


class TestEmitters:
    def test_collecting_emitter_counts(self, engine):
        query = engine.submit(SQL)
        feed(engine, 80)
        engine.run_until_idle()
        assert query.emitter.total_batches == 3
        assert query.last() is not None

    def test_keep_last_bound(self):
        emitter = CollectingEmitter(keep_last=2)
        for i in range(5):
            emitter("f", ResultBatch([], {}, i, 0.0))
        assert emitter.total_batches == 5
        assert len(emitter.batches()) == 2

    def test_callback_emitter(self, engine):
        seen = []
        query = engine.submit(SQL)
        engine.scheduler.add_sink(query.name, CallbackEmitter(seen.append))
        feed(engine, 60)
        engine.run_until_idle()
        assert len(seen) == 2

    def test_clear(self):
        emitter = CollectingEmitter()
        emitter("f", ResultBatch([], {}, 0, 0.0))
        emitter.clear()
        assert emitter.batches() == []
        assert emitter.last() is None


class TestBackgroundScheduling:
    def test_background_loop_processes_arrivals(self, engine):
        query = engine.submit(SQL)
        engine.start()
        try:
            feed(engine, 120)
            deadline = time.time() + 5.0
            while time.time() < deadline and len(query.results()) < 5:
                time.sleep(0.01)
        finally:
            engine.stop()
        assert len(query.results()) == 5

    def test_double_start_rejected(self, engine):
        engine.start()
        try:
            with pytest.raises(SchedulerError):
                engine.start()
        finally:
            engine.stop()

    def test_stop_drains(self, engine):
        query = engine.submit(SQL)
        engine.start()
        feed(engine, 40)
        engine.stop(drain=True)
        assert len(query.results()) == 1

    @pytest.mark.concurrency
    def test_background_loop_with_feeder_threads(self, engine):
        sql = "SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 20] WHERE x1 > 3 GROUP BY x1"
        queries = [engine.submit(sql) for __ in range(4)]
        engine.start()
        try:
            for chunk in range(10):
                feed(engine, 40, seed=100 + chunk)
                time.sleep(0.002)
            deadline = time.time() + 5.0
            while time.time() < deadline and any(
                len(q.results()) < 19 for q in queries
            ):
                time.sleep(0.01)
        finally:
            engine.stop(drain=True)
            engine.close()
        rows = [q.result_rows() for q in queries]
        assert all(len(r) == 19 for r in rows)
        assert all(r == rows[0] for r in rows)


def test_scheduler_matches_direct_factory_driving():
    """The scheduler path equals stepping the factories by hand (the
    benchmark-harness idiom), on the Figure-4/6/7 query shapes."""
    queries = [
        "SELECT x1, sum(x2) FROM s [RANGE 80 SLIDE 20] WHERE x1 > 3 GROUP BY x1",
        "SELECT min(x1), max(x2), count(*) FROM s [RANGE 40 SLIDE 10]",
        "SELECT max(x1), sum(x2) FROM s [LANDMARK SLIDE 25]",
        "SELECT avg(x2) FROM s [RANGE 60 SLIDE 20] WHERE x2 > 10",
    ]

    def run(pump, **kwargs):
        engine = DataCellEngine(**kwargs)
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        handles = [engine.submit(sql) for sql in queries]
        for chunk in range(8):
            feed(engine, 50, seed=11 + chunk)
            pump(engine, handles)
        return [handle.result_rows() for handle in handles]

    def by_hand(engine, handles):
        for handle in handles:
            while (batch := handle.factory.step(Profiler())) is not None:
                handle.emitter(handle.name, batch)

    via_scheduler = run(lambda engine, handles: engine.run_until_idle())
    assert via_scheduler == run(by_hand, fragment_sharing=False)


class _Flight:
    """In-flight gauge shared by a fleet of instrumented factories."""

    def __init__(self):
        self._lock = threading.Lock()
        self.inside = 0
        self.max_inside = 0

    def __enter__(self):
        with self._lock:
            self.inside += 1
            self.max_inside = max(self.max_inside, self.inside)

    def __exit__(self, *exc):
        with self._lock:
            self.inside -= 1


class _TracingFactory(FactoryBase):
    """Fires ``results`` times; every firing passes through ``flight``."""

    def __init__(self, name, results, flight):
        self.name = name
        self.flight = flight
        self._remaining = results
        self.steps = 0

    def ready(self):
        return self._remaining > 0

    def step(self, profiler=None):
        with self.flight:
            time.sleep(0.0005)  # widen the race window
            self._remaining -= 1
            self.steps += 1
        return ResultBatch([], {}, 0, 0.0)


class _GatedFactory(FactoryBase):
    """One firing that parks inside ``step`` until released."""

    name = "gated"

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._fired = False

    def ready(self):
        return not self._fired

    def step(self, profiler=None):
        self.entered.set()
        assert self.release.wait(5.0)
        self._fired = True
        return ResultBatch([], {}, 0, 0.0)


class _ExplodingFactory(FactoryBase):
    name = "boom"

    def ready(self):
        return True

    def step(self, profiler=None):
        raise RuntimeError("kernel exploded")


def _join_all(threads, timeout=10.0):
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)


class TestOneFiringThread:
    @pytest.mark.concurrency
    def test_no_two_factories_ever_fire_at_once(self):
        """Background loop + 4 threads hammering run_once(): firings of
        *different* factories never overlap either."""
        scheduler = Scheduler()
        flight = _Flight()
        fleet = [_TracingFactory(f"t{i}", 40, flight) for i in range(6)]
        for factory in fleet:
            scheduler.register(factory)

        def hammer():
            while any(factory.ready() for factory in fleet):
                scheduler.run_once()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        scheduler.start(poll_interval=0.0001)
        try:
            threads = [threading.Thread(target=hammer) for __ in range(4)]
            for thread in threads:
                thread.start()
            _join_all(threads, timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            scheduler.stop(drain=True)
        assert flight.max_inside == 1
        assert [factory.steps for factory in fleet] == [40] * 6

    @pytest.mark.concurrency
    def test_run_until_idle_waits_for_the_firing_in_progress(self):
        scheduler = Scheduler()
        gated = _GatedFactory()
        order = []
        scheduler.register(gated, lambda name, batch: order.append("dispatched"))
        scheduler.start(poll_interval=0.0001)
        try:
            assert gated.entered.wait(5.0)

            def pump():
                scheduler.run_until_idle()
                order.append("returned")

            caller = threading.Thread(target=pump)
            caller.start()
            caller.join(0.05)
            assert caller.is_alive()  # parked behind the scan in progress
            gated.release.set()
            _join_all([caller])
        finally:
            gated.release.set()
            scheduler.stop()
        assert order == ["dispatched", "returned"]

    def test_reentrant_pump_from_a_sink_is_refused(self):
        scheduler = Scheduler()
        flight = _Flight()
        scheduler.register(
            _TracingFactory("t", 2, flight), lambda name, batch: scheduler.run_once()
        )
        with pytest.raises(SchedulerError, match="inside a firing"):
            scheduler.run_once()
        assert scheduler.profiler.counter("worker_errors") == 1
        # The refusal did not wedge the scheduler for ordinary callers.
        scheduler.unregister("t")
        assert scheduler.run_once() == 0

    @pytest.mark.concurrency
    def test_checkpoint_snapshots_between_firings(self, tmp_path, monkeypatch):
        """quiesced() on the scan lock: checkpoint() under a running
        background loop never gathers state while a firing (here: its
        sink) is still in progress."""
        engine = DataCellEngine(data_dir=str(tmp_path / "dd"))
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        query = engine.submit("SELECT count(*) FROM s [RANGE 4 SLIDE 2]")
        flight = _Flight()

        def slow_sink(name, batch):
            with flight:
                time.sleep(0.001)

        engine.scheduler.add_sink(query.name, slow_sink)
        seen = []
        gather = engine._gather_state
        monkeypatch.setattr(
            engine, "_gather_state", lambda: (seen.append(flight.inside), gather())[1]
        )
        engine.start(poll_interval=0.0001)
        try:
            for chunk in range(20):
                feed(engine, 10, seed=chunk)
                engine.checkpoint()
        finally:
            engine.stop(drain=True)
            engine.close()
        assert flight.max_inside == 1  # firings did happen ...
        assert seen == [0] * 20  # ... and no snapshot ever saw one mid-flight
        assert len(query.results()) == 99

    def test_quiesce_from_a_sink_is_refused(self):
        scheduler = Scheduler()

        def sink(name, batch):
            with scheduler.quiesced():
                pass

        scheduler.register(_TracingFactory("t", 1, _Flight()), sink)
        with pytest.raises(SchedulerError, match="inside a firing"):
            scheduler.run_once()

    def test_workers_keyword_accepts_only_one(self):
        DataCellEngine(workers=1).close()
        with pytest.raises(ReproError, match="thread-pool scheduler mode was removed"):
            DataCellEngine(workers=2)

    def test_workers_cli_flag_is_unknown(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "session.dcl"
        script.write_text("QUIT\n")
        assert main(["--workers", "2", str(script)]) == 2
        assert "unknown flag '--workers'" in capsys.readouterr().err


class TestBackgroundErrors:
    def _crashed_scheduler(self):
        scheduler = Scheduler()
        scheduler.register(_ExplodingFactory())
        scheduler.start(poll_interval=0.0001)
        deadline = time.time() + 5.0
        while time.time() < deadline and scheduler._thread.is_alive():
            time.sleep(0.005)
        return scheduler

    def test_stop_reraises_background_error(self):
        scheduler = self._crashed_scheduler()
        with pytest.raises(RuntimeError, match="kernel exploded"):
            scheduler.stop(drain=True)
        # The error is surfaced once, not resurfaced forever.
        scheduler.stop()

    def test_run_until_idle_reraises_background_error(self):
        scheduler = self._crashed_scheduler()
        scheduler._stop_event.set()
        scheduler._thread.join()
        scheduler._thread = None
        with pytest.raises(RuntimeError, match="kernel exploded"):
            scheduler.run_until_idle()

    def test_failed_firing_counts_worker_error(self):
        scheduler = Scheduler()
        scheduler.register(_ExplodingFactory())
        with pytest.raises(RuntimeError, match="kernel exploded"):
            scheduler.run_once()
        assert scheduler.profiler.counter("worker_errors") == 1


class TestFragmentCacheFailure:
    def test_failed_compute_leaves_nothing_behind(self):
        cache = FragmentCache()
        cache.register("k", capacity=4)

        def explode():
            raise RuntimeError("fragment exploded")

        with pytest.raises(RuntimeError, match="fragment exploded"):
            cache.get_or_compute("k", (0, 10), explode)
        stats = cache.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)
        assert set(vars(cache._groups["k"])) == {"capacity", "bundles"}
        bundle = {"flow": object()}
        assert cache.get_or_compute("k", (0, 10), lambda: bundle) is bundle
        assert cache.get_or_compute("k", (0, 10), explode) is bundle
        stats = cache.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)


class TestProfilerSnapshot:
    """Regression: snapshot() used to flatten tags ∪ counters into one
    dict, type-punning int counters into the float timing view (and
    letting a counter silently shadow a tag of the same name)."""

    def test_structured_snapshot_separates_kinds(self):
        profiler = Profiler()
        profiler.record("main", "algebra.select", 0.25)
        profiler.count("firings", 3)
        snap = profiler.snapshot()
        assert snap["tags"] == {"main": 0.25}
        assert snap["counters"] == {"firings": 3}
        assert snap["opcodes"] == {"algebra.select": 0.25}
        assert snap["calls"] == {"algebra.select": 1}

    def test_name_collision_keeps_both_values(self):
        profiler = Profiler()
        profiler.record("main", "op", 0.5)       # tag "main": 0.5 s
        profiler.count("main", 7)                # counter "main": 7
        snap = profiler.snapshot()
        assert snap["tags"]["main"] == 0.5
        assert snap["counters"]["main"] == 7

    def test_factory_stats_counters(self, engine):
        engine.submit(SQL)
        engine.submit(SQL)
        feed(engine, 100, seed=3)
        engine.run_until_idle()
        stats = engine.scheduler.factory_stats()
        assert stats["q1"]["counters"]["firings"] == 4
        assert stats["q2"]["counters"]["firings"] == 4
        # q2 reuses every basic window q1 computed.
        assert stats["q2"]["counters"].get("fragment_cache_hits", 0) == 5
        assert engine.scheduler.profiler.counter("firings") == 8

    @pytest.mark.concurrency
    def test_concurrent_record_and_merge(self):
        shared = Profiler()
        gate = threading.Barrier(8)

        def hammer(i):
            gate.wait()
            local = Profiler()
            for __ in range(500):
                local.record("main", f"op{i}", 0.001)
                local.count("firings")
            shared.merge_from(local)
            for __ in range(500):
                shared.record("merge", f"op{i}", 0.001)
                shared.count("firings")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        _join_all(threads)
        assert shared.counter("firings") == 8 * 1000
        assert shared.calls["op3"] == 1000
        assert abs(shared.tag_seconds("main") - 8 * 0.5) < 1e-9
        assert abs(shared.tag_seconds("merge") - 8 * 0.5) < 1e-9
