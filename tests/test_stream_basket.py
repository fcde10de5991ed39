"""One basket per stream, one read cursor per query.

Pins the cursor mechanics on a bare basket, the basket/cursor invariants
the engine keeps under random interleavings of submit, remove, feed, pump
and ``advance_time`` (Hypothesis), on unbounded, ``Fail`` and ``Block``
streams.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro import DataCellEngine
from repro.core.basket import Basket
from repro.core.overflow import Block, Fail
from repro.errors import BasketOverflowError, ReproError
from repro.kernel.atoms import Atom
from repro.kernel.storage import Schema

SCHEMA = Schema.of(("x", Atom.INT))


def rows(*values):
    return [(v,) for v in values]


class TestCursors:
    def test_head_follows_the_slowest_cursor(self):
        basket = Basket("s", SCHEMA)
        early = basket.cursor()
        basket.append_rows(rows(*range(5)))
        late = basket.cursor()  # starts at the tail: sees 5.. only
        basket.append_rows(rows(5, 6, 7))
        assert (len(early), len(late)) == (8, 3)
        assert late.head_slice(3, ["x"])["x"].to_list() == [5, 6, 7]
        early.delete_head(6)
        assert (basket.hseq, len(basket)) == (5, 3)  # late is slowest now
        late.delete_head(3)
        assert (basket.hseq, len(basket)) == (6, 2)
        early.close()
        assert len(basket) == 0 and basket.readers == 1
        late.close()
        assert len(late) == 0 and basket.readers == 0

    def test_closing_the_last_cursor_empties_the_basket(self):
        basket = Basket("s", SCHEMA)
        cursor = basket.cursor()
        basket.append_rows(rows(1, 2, 3))
        cursor.close()
        cursor.close()  # idempotent
        assert len(basket) == 0 and basket.appended_total == 3

    def test_fail_admits_nothing_for_anyone(self):
        basket = Basket("s", SCHEMA, capacity=4, overflow=Fail())
        fast, slow = basket.cursor(), basket.cursor()
        basket.append_rows(rows(0, 1, 2))
        fast.delete_head(3)
        with pytest.raises(BasketOverflowError):
            basket.append_rows(rows(3, 4))
        assert (len(fast), len(slow), basket.appended_total) == (0, 3, 3)

    def test_time_reads_start_at_the_cursor(self):
        basket = Basket("s", SCHEMA)
        early = basket.cursor()
        basket.append_rows(rows(1, 2), timestamps=[10, 20])
        late = basket.cursor()
        assert late.max_timestamp() is None
        basket.append_rows(rows(3), timestamps=[30])
        assert late.timestamps().to_list() == [30]
        assert early.count_before(25) == 2 and late.count_before(25) == 0
        basket.advance_watermark(50)
        assert late.max_timestamp() == 50

    def test_arrival_marks_are_taken_per_cursor(self):
        basket = Basket("s", SCHEMA)
        basket.enable_arrival_tracking()
        a, b = basket.cursor(), basket.cursor()
        basket.append_rows(rows(1, 2))
        a.delete_head(2)
        assert a.take_consumed_arrival() is not None
        assert a.take_consumed_arrival() is None
        assert b.take_consumed_arrival() is None  # has not read it yet
        b.delete_head(2)
        assert b.take_consumed_arrival() is not None


# ----------------------------------------------------------------------
# engine-level invariants under random interleavings
# ----------------------------------------------------------------------
US = 1_000_000

#: Count, landmark, time-based and re-evaluated queries; the first two
#: are alpha-equivalent, so fragment sharing is exercised too.
QUERY_POOL = [
    ("SELECT x1, sum(x2) AS t FROM s [RANGE 8 SLIDE 4] GROUP BY x1 ORDER BY x1",
     "incremental"),
    ("SELECT a.x1, sum(a.x2) AS t FROM s a [RANGE 12 SLIDE 4] GROUP BY a.x1 "
     "ORDER BY a.x1", "incremental"),
    ("SELECT count(*) AS n, max(x2) AS m FROM s [RANGE 6 SLIDE 3]", "incremental"),
    ("SELECT x1, count(*) AS n FROM s [LANDMARK SLIDE 5] GROUP BY x1 ORDER BY x1",
     "incremental"),
    ("SELECT sum(x2) AS t FROM s [RANGE 4 SECONDS SLIDE 2 SECONDS]", "incremental"),
    ("SELECT count(*) AS n FROM s [RANGE 10 SLIDE 5]", "reeval"),
]

POLICIES = {
    "unbounded": lambda: {},
    "fail": lambda: {"capacity": 24, "overflow": Fail()},
    "block": lambda: {"capacity": 24, "overflow": Block(timeout=0.0)},
}

submits = st.tuples(st.just("submit"), st.integers(0, len(QUERY_POOL) - 1))
feeds = st.tuples(st.just("feed"), st.integers(1, 20))
operations = st.lists(
    st.one_of(
        submits,
        feeds,
        feeds,
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(st.just("pump"), st.booleans()),
        st.tuples(st.just("advance"), st.integers(0, 3)),
    ),
    min_size=4,
    max_size=40,
)


def _stream_engine(**limits) -> DataCellEngine:
    engine = DataCellEngine()
    engine.create_stream("s", [("x1", "int"), ("x2", "int")], **limits)
    return engine


def _check_basket(engine: DataCellEngine, capacity) -> None:
    log = engine._logs["s"]
    # Handles of one shared factory hold the same cursor: count it once.
    cursors = list({
        id(c): c for h in engine._queries.values() for c in h.baskets.values() if c.basket is log
    }.values())
    assert log.readers == len(cursors)
    tail = log.appended_total
    assert all(log.hseq <= c.position <= tail for c in cursors)
    if cursors:
        assert log.hseq == min(c.position for c in cursors)
        assert len(log) == max(len(c) for c in cursors)
    else:
        assert len(log) == 0
    if capacity is not None:
        assert len(log) <= capacity


def _solo_windows(sql: str, mode: str, events: list) -> list:
    """The query's windows run alone over exactly the events it saw."""
    engine = _stream_engine()
    query = engine.submit(sql, mode=mode)
    for kind, payload in events:
        if kind == "feed":
            columns, ts = payload
            engine.feed("s", columns=columns, timestamps=ts)
        elif kind == "advance":
            engine.advance_time("s", payload)
        elif payload:
            engine.run_until_idle()
        else:
            engine.scheduler.run_once()
    return query.result_rows()


@given(
    policy=st.sampled_from(sorted(POLICIES)),
    ops=st.tuples(submits, submits).map(list).flatmap(
        lambda first: operations.map(lambda rest: first + rest)
    ),
    seed=st.integers(0, 99),
)
def test_basket_and_cursor_invariants(policy, ops, seed):
    limits = POLICIES[policy]()
    capacity = limits.get("capacity")
    engine = _stream_engine(**limits)
    rng = np.random.default_rng(seed)
    clock = 0
    events: list = []  # what every query bound at that point saw, in order
    spans: dict[str, list] = {}  # name -> [handle, first event, last event]
    for kind, arg in ops:
        if kind == "submit":
            sql, mode = QUERY_POOL[arg]
            handle = engine.submit(sql, mode=mode)
            spans[handle.name] = [handle, len(events), None]
        elif kind == "remove" and engine._queries:
            names = sorted(engine._queries)
            name = names[arg % len(names)]
            engine.remove(name)
            spans[name][2] = len(events)
        elif kind == "feed":
            columns = {"x1": rng.integers(0, 3, arg), "x2": rng.integers(0, 50, arg)}
            ts = clock + np.sort(rng.integers(0, US, arg))
            clock = int(ts[-1])
            try:
                engine.feed("s", columns=columns, timestamps=ts)
            except BasketOverflowError:
                assert policy in ("fail", "block")  # nothing was admitted
            else:
                events.append(("feed", (columns, ts)))
            if policy == "unbounded":
                assert engine._logs["s"].appended_total == engine._stream_fed["s"]
        elif kind == "pump":
            if arg:
                engine.run_until_idle()
            else:
                engine.scheduler.run_once()
            events.append(("pump", arg))
        elif kind == "advance":
            clock += arg * US
            engine.advance_time("s", clock)
            events.append(("advance", clock))
        _check_basket(engine, capacity)
    engine.run_until_idle()
    events.append(("pump", True))
    _check_basket(engine, capacity)
    for name, (handle, first, last) in spans.items():
        solo = _solo_windows(handle.sql, handle.mode, events[first:last])
        assert handle.result_rows() == solo, name
        if solo:
            event("windows compared")

def test_removing_the_slowest_query_trims_to_the_next_cursor():
    engine = _stream_engine()
    slow = engine.submit("SELECT count(*) AS n FROM s [RANGE 40 SLIDE 10]")
    fast = engine.submit("SELECT count(*) AS n FROM s [RANGE 10 SLIDE 5]")
    engine.feed("s", rows=[(i, i) for i in range(30)])
    engine.run_until_idle()
    log = engine._logs["s"]
    assert len(log) == 30 and len(fast.baskets["s"]) == 0
    engine.remove(slow.name)
    assert len(log) == 0 and log.hseq == fast.baskets["s"].position == 30
    engine.remove(fast.name)
    engine.feed("s", rows=[(1, 1)] * 7)
    assert len(log) == 0 and log.appended_total == engine._stream_fed["s"] == 37


def test_dropped_engine_frees_its_baskets_without_cyclic_gc():
    """Cursors and baskets form no reference cycle: a dropped engine's
    basket buffers go with its last reference, not at the next gc."""
    engine = _stream_engine()
    engine.submit("SELECT count(*) AS n FROM s [RANGE 40 SLIDE 10]")
    engine.feed("s", rows=[(i, i) for i in range(30)])
    log = weakref.ref(engine._logs["s"])
    gc.disable()
    try:
        del engine
        assert log() is None
    finally:
        gc.enable()


SHARED = "SELECT x1, sum(x2) AS t FROM s [RANGE 20 SLIDE 10] GROUP BY x1 ORDER BY x1"


@pytest.mark.concurrency
def test_threaded_producers_share_one_stream_consistently():
    """Four producers and the background loop on one basket: every query
    reads the same interleaving, so identical queries emit identical
    windows, every tuple is counted once, and the head ends at the
    slowest cursor (a lost cursor or trim update breaks one of these)."""
    engine = _stream_engine()
    twins = [engine.submit(SHARED) for __ in range(2)]
    total = engine.submit("SELECT count(*) AS n FROM s [RANGE 50 SLIDE 50]")
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        engine.start(poll_interval=0.0005)

        def produce(seed):
            rng = np.random.default_rng(seed)
            for __ in range(25):
                engine.feed(
                    "s",
                    columns={"x1": rng.integers(0, 4, 20), "x2": rng.integers(0, 99, 20)},
                )

        threads = [threading.Thread(target=produce, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        engine.stop(drain=True)
    finally:
        sys.setswitchinterval(switch)
    assert twins[0].result_rows() == twins[1].result_rows()
    assert len(twins[0].results()) == (4 * 25 * 20 - 20) // 10 + 1
    assert [rows for rows in total.result_rows()] == [[(50,)]] * 40
    _check_basket(engine, None)


def test_failed_submit_leaves_no_cursor():
    """A submit that fails after its cursors were opened closes them, even
    while the caller still holds the error (and so its frames)."""
    engine = _stream_engine()
    engine.submit("SELECT count(*) FROM s [RANGE 4 SLIDE 2]", name="dup")
    kept = []
    for sql, mode, name in (
        ("SELECT count(*) FROM s", "reeval", None),  # no window clause
        ("SELECT count(*) FROM s [RANGE 4 SLIDE 2]", "incremental", "dup"),
    ):
        try:
            engine.submit(sql, mode=mode, name=name)
        except ReproError as exc:
            kept.append(exc)
    assert len(kept) == 2
    assert engine._logs["s"].readers == 1  # the first "dup" only
