"""Runtime lock-order conformance: ObservedLock, instrument(), fuzz axis."""

import threading

import pytest

from repro.core.engine import DataCellEngine
from repro.testing.fuzz.oracle import OracleConfig
from repro.testing.lockcheck import (
    LockObserver,
    LockOrderViolation,
    ObservedLock,
    instrument,
)


def observed_pair():
    observer = LockObserver()
    high = ObservedLock(threading.Lock(), "Scheduler._lock", observer)
    low = ObservedLock(threading.Lock(), "Basket._lock", observer)
    return observer, high, low


def test_edges_record_held_to_acquired():
    observer, high, low = observed_pair()
    with high:
        with low:
            pass
    [edge] = observer.edges()
    assert (edge.src, edge.dst) == ("Scheduler._lock", "Basket._lock")
    assert observer.violations() == []
    observer.assert_conforms()


def test_inverted_order_is_a_violation():
    observer, high, low = observed_pair()
    with low:
        with high:
            pass
    assert observer.violations()
    with pytest.raises(LockOrderViolation, match="Basket._lock -> Scheduler._lock"):
        observer.assert_conforms()


def test_same_node_nesting_is_a_violation():
    observer = LockObserver()
    a = ObservedLock(threading.Lock(), "Basket._lock", observer)
    b = ObservedLock(threading.Lock(), "Basket._lock", observer)
    with a:
        with b:
            pass
    [message] = observer.violations()
    assert "same node" in message


def test_reentrant_acquire_records_no_edge():
    observer = LockObserver()
    lock = ObservedLock(threading.RLock(), "Basket._lock", observer)
    with lock:
        with lock:
            pass
    assert observer.edges() == []
    # The stack unwound fully: a later acquire starts fresh.
    assert observer._stack() == []


def test_non_lifo_release_keeps_the_stack_consistent():
    observer, high, low = observed_pair()
    high.acquire()
    low.acquire()
    high.release()
    low.release()
    assert observer._stack() == []


def test_unranked_locks_are_ignored_by_violations():
    observer = LockObserver()
    odd = ObservedLock(threading.Lock(), "Mystery._lock", observer)
    high = ObservedLock(threading.Lock(), "Scheduler._lock", observer)
    with odd:
        with high:
            pass
    assert observer.edges()  # recorded ...
    assert observer.violations() == []  # ... but not judged


def test_instrument_live_engine_conforms():
    """End-to-end: a background-loop run never escapes the static order."""
    engine = DataCellEngine()
    engine.create_stream("s", [("a", "int"), ("b", "int")])
    handle = engine.submit("SELECT sum(a) AS x FROM s [RANGE 40 SLIDE 10]")
    engine.submit("SELECT a, b FROM s [RANGE 20 SLIDE 10] WHERE a > 5")
    observer = instrument(engine)
    try:
        engine.scheduler.start()
        for i in range(200):
            engine.feed("s", [(i, i + 1)])
    finally:
        engine.scheduler.stop()
    assert observer.acquisitions > 0
    observer.assert_conforms()
    assert handle.results()  # the instrumented engine still computes
    # Firing takes the basket lock under the scheduler's scan lock.
    assert any(
        (e.src, e.dst) == ("Scheduler._scan_lock", "Basket._lock")
        for e in observer.edges()
    )


def test_instrument_is_idempotent():
    engine = DataCellEngine()
    engine.create_stream("s", [("a", "int")])
    engine.submit("SELECT sum(a) AS x FROM s [RANGE 4 SLIDE 2]")
    observer = instrument(engine)
    again = instrument(engine, observer)
    assert again is observer
    assert isinstance(engine.scheduler._lock, ObservedLock)
    assert engine.scheduler._lock._raw is not None
    # No double wrapping: the raw lock is a real lock, not another proxy.
    assert not isinstance(engine.scheduler._lock._raw, ObservedLock)


def test_oracle_config_lockcheck_roundtrip():
    config = OracleConfig(lockcheck=True)
    assert OracleConfig.from_json(config.to_json()).lockcheck is True
    assert "lockcheck" in config.describe()
    assert OracleConfig.from_json({}).lockcheck is False


def test_run_oracle_under_lockcheck_is_clean():
    from repro.testing.fuzz.generator import QueryGenerator
    import numpy as np

    from repro.testing.fuzz.oracle import run_oracle

    generator = QueryGenerator(np.random.default_rng([11, 3]))
    query = generator.query("sum")
    feed = generator.feed(query, rows_scale=0.5)
    result = run_oracle(query, feed, OracleConfig(lockcheck=True))
    assert result.ok, result.divergence and result.divergence.describe()
