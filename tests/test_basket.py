"""Unit tests for baskets (stream buffers)."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import DataCellEngine
from repro.core.basket import Basket
from repro.core.receptor import Receptor
from repro.core.windows import TS_COLUMN
from repro.errors import BasketError
from repro.kernel.atoms import Atom
from repro.kernel.storage import Schema


@pytest.fixture
def basket():
    return Basket("b", Schema.of(("x1", Atom.INT), ("x2", Atom.FLT)))


class TestAppend:
    def test_append_rows(self, basket):
        assert basket.append_rows([(1, 1.5), (2, 2.5)]) == 2
        assert basket.count == 2
        assert basket.column("x1").to_list() == [1, 2]

    def test_append_rows_bad_arity(self, basket):
        with pytest.raises(BasketError):
            basket.append_rows([(1,)])

    def test_append_columns(self, basket):
        basket.append_columns({"x1": [1, 2, 3], "x2": [0.1, 0.2, 0.3]})
        assert basket.count == 3

    def test_append_columns_validation(self, basket):
        with pytest.raises(BasketError):
            basket.append_columns({"x1": [1]})
        with pytest.raises(BasketError):
            basket.append_columns({"x1": [1], "x2": [1.0, 2.0]})

    def test_appended_total_monotonic(self, basket):
        basket.append_rows([(1, 1.0)])
        basket.delete_head(1)
        basket.append_rows([(2, 2.0)])
        assert basket.appended_total == 2
        assert basket.count == 1


class TestTimestamps:
    def test_logical_clock_default(self, basket):
        basket.append_rows([(1, 1.0), (2, 2.0)])
        basket.append_columns({"x1": [3], "x2": [3.0]})
        assert basket.timestamps().to_list() == [0, 1, 2]

    def test_explicit_timestamps(self, basket):
        basket.append_columns(
            {"x1": [1, 2], "x2": [0.0, 0.0]}, timestamps=[100, 200]
        )
        assert basket.timestamps().to_list() == [100, 200]
        assert basket.max_timestamp() == 200

    def test_timestamp_length_mismatch(self, basket):
        with pytest.raises(BasketError):
            basket.append_columns({"x1": [1], "x2": [0.0]}, timestamps=[1, 2])

    def test_count_before(self, basket):
        basket.append_columns(
            {"x1": [1, 2, 3], "x2": [0.0] * 3}, timestamps=[10, 20, 30]
        )
        assert basket.count_before(25) == 2
        assert basket.count_before(5) == 0
        assert basket.count_before(31) == 3

    def test_rows_and_columns_share_one_time_frontier(self, basket):
        basket.append_rows([(1, 0.0), (2, 0.0)], timestamps=[10, 20])
        with pytest.raises(BasketError, match="before 20"):
            basket.append_columns({"x1": [3], "x2": [0.0]}, timestamps=[15])
        with pytest.raises(BasketError, match="must not decrease"):
            basket.append_rows([(3, 0.0), (4, 0.0)], timestamps=[30, 25])
        basket.append_columns({"x1": [3], "x2": [0.0]}, timestamps=[30])
        with pytest.raises(BasketError, match="before 30"):
            basket.append_rows([(4, 0.0)], timestamps=[25])
        assert basket.timestamps().to_list() == [10, 20, 30]

    def test_no_timestamp_basket(self):
        bare = Basket("raw", Schema.of(("x", Atom.INT)), with_timestamps=False)
        bare.append_rows([(1,)])
        with pytest.raises(BasketError):
            bare.timestamps()

    def test_max_timestamp_empty(self, basket):
        assert basket.max_timestamp() is None


class TestSlicesAndExpiry:
    def test_head_slice(self, basket):
        basket.append_columns({"x1": [1, 2, 3], "x2": [1.0, 2.0, 3.0]})
        cols = basket.head_slice(2, ["x1"])
        assert cols["x1"].to_list() == [1, 2]

    def test_head_slice_too_many(self, basket):
        basket.append_rows([(1, 1.0)])
        with pytest.raises(BasketError):
            basket.head_slice(5, ["x1"])

    def test_unknown_column(self, basket):
        with pytest.raises(BasketError):
            basket.column("ghost")

    def test_delete_head_advances_hseq(self, basket):
        basket.append_columns({"x1": [1, 2, 3], "x2": [0.0] * 3})
        basket.delete_head(2)
        assert basket.count == 1
        assert basket.hseq == 2
        assert basket.column("x1").to_list() == [3]
        assert basket.column(TS_COLUMN).to_list() == [2]

    def test_concurrent_appends(self, basket):
        def writer(start):
            for i in range(100):
                basket.append_rows([(start + i, float(i))])

        threads = [threading.Thread(target=writer, args=(k * 1000,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert basket.count == 400
        assert basket.appended_total == 400


class TestAtomicRows:
    """A batch lands whole or not at all: a bad row leaves nothing behind."""

    @pytest.fixture
    def pair(self):
        return Basket("p", Schema.of(("a", Atom.INT), ("b", Atom.INT)))

    def test_bad_arity_mid_batch_leaves_no_orphan_row(self, pair):
        with pytest.raises(BasketError, match="arity"):
            pair.append_rows([(1, 2), (3,)])
        assert len(pair) == 0 and pair.appended_total == 0
        pair.append_rows([(7, 8)])
        assert len(pair) == 1
        cols = pair.head_slice(1, ["a", "b"])
        assert (cols["a"].to_list(), cols["b"].to_list()) == ([7], [8])
        assert pair.column("a").to_list() == [7]
        assert pair.timestamps().to_list() == [0]

    def test_receptor_on_a_bare_basket(self, pair):
        receptor = Receptor(pair)
        with pytest.raises(BasketError, match="arity"):
            receptor.push_rows([(1, 2), (3,)])
        assert receptor.delivered == 0
        assert receptor.push_rows([(7, 8)]) == 1
        assert pair.column("a").to_list() == [7]
        assert pair.column("b").to_list() == [8]


class TestChunks:
    """One chunk per batch: reads inside a chunk are views of it, and
    trims drop whole chunks without moving a value."""

    def test_slice_inside_one_chunk_is_a_view(self, basket):
        basket.append_columns({"x1": np.arange(100), "x2": np.zeros(100)})
        chunk = basket.column("x1").tail
        inside = basket.head_slice(40, ["x1"])["x1"]
        assert np.shares_memory(inside.tail, chunk)
        basket.delete_head(40)
        assert np.shares_memory(basket.head_slice(60, ["x1"])["x1"].tail, chunk)

    def test_slice_across_chunks_is_one_copy(self, basket):
        basket.append_columns({"x1": [1, 2], "x2": [0.0, 0.0]})
        basket.append_columns({"x1": [3, 4], "x2": [0.0, 0.0]})
        first = basket.head_slice(1, ["x1"])["x1"]
        across = basket.head_slice(3, ["x1"])["x1"]
        assert across.to_list() == [1, 2, 3] and across.hseq == 0
        assert not np.shares_memory(across.tail, first.tail)

    def test_append_copies_the_batch(self, basket):
        values = np.arange(5)
        basket.append_columns({"x1": values, "x2": np.zeros(5)})
        values[:] = -1
        assert basket.column("x1").to_list() == [0, 1, 2, 3, 4]

    def test_counter_stamps_are_lazy_and_exact(self, basket):
        basket.append_columns({"x1": np.arange(6), "x2": np.zeros(6)})
        basket.append_columns({"x1": [9], "x2": [0.0]}, timestamps=[40])
        basket.delete_head(2)
        assert basket.timestamps().to_list() == [2, 3, 4, 5, 40]
        assert basket.count_before(4) == 2
        assert basket.count_before(41) == 5
        assert basket.max_timestamp() == 40

    def test_draining_a_join_backlog_makes_no_copy(self, monkeypatch):
        """200 slides of 1 024 tuples queued on each of two streams before
        one pump (a ``q2_join``-shaped backlog): every ``delete_head``
        moves the head and drops chunks, allocating nothing the size of
        a slide, and the chunks' values never move."""
        slide, slides = 1024, 200
        engine = DataCellEngine()
        for name in ("s1", "s2"):
            engine.create_stream(name, [("x1", "int"), ("x2", "int")])
        query = engine.submit(
            "SELECT max(a.x1), avg(b.x1) FROM s1 a [RANGE 4096 SLIDE 1024], "
            "s2 b [RANGE 4096 SLIDE 1024] WHERE a.x2 = b.x2"
        )
        rng = np.random.default_rng(7)
        for __ in range(3 + slides):
            for name in ("s1", "s2"):
                engine.feed(
                    name,
                    columns={
                        "x1": rng.integers(0, 100, slide),
                        "x2": rng.integers(0, 10_000, slide),
                    },
                )
        chunks = [c for name in ("s1", "s2") for c in engine._logs[name]._chunks]
        assert len(chunks) == 2 * (3 + slides)
        for chunk in chunks:
            for array in chunk.columns.values():
                array.flags.writeable = False  # an in-place compaction raises
        kept = [(c.columns["x1"], c.columns["x1"].copy()) for c in chunks]
        peaks = []
        delete_head = Basket.delete_head

        def traced(self, count):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            delete_head(self, count)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(Basket, "delete_head", traced)
        tracemalloc.start()
        try:
            engine.run_until_idle()
        finally:
            tracemalloc.stop()
        assert len(query.results()) == slides
        assert len(peaks) >= 2 * slides and max(peaks) < slide * 8
        assert all(np.array_equal(array, copy) for array, copy in kept)
        assert all(len(engine._logs[name]) == 0 for name in ("s1", "s2"))


# -- model test: the basket against a plain list of arrival offsets ----------
#
# Row k of the stream (its arrival offset) holds (k, k / 2), so the model
# only keeps each row's timestamp, the head, the counter and the readers.


def _rows(low: int, high: int) -> dict[str, list]:
    return {"x1": list(range(low, high)), "x2": [k / 2 for k in range(low, high)]}


class _Model:
    def __init__(self) -> None:
        self.ts: list[int] = []
        self.head = 0
        self.clock = 0
        self.newest: int | None = None
        self.watermark: int | None = None
        self.cursors: dict = {}  # Cursor -> position

    @property
    def total(self) -> int:
        return len(self.ts)

    def frontier(self) -> int | None:
        known = [t for t in (self.newest, self.watermark) if t is not None]
        return max(known) if known else None

    def trim(self) -> None:
        low = min(self.cursors.values(), default=self.total)
        self.head = max(self.head, low)


def _check_reader(reader, position: int, model: _Model, bound: int) -> None:
    unread = model.ts[position:]
    assert len(reader) == len(unread)
    cols = reader.head_slice(len(unread), ["x1", "x2"])
    assert {name: bat.to_list() for name, bat in cols.items()} == _rows(position, model.total)
    assert all(bat.hseq == position for bat in cols.values())
    assert reader.timestamps().to_list() == unread
    assert reader.count_before(bound) == sum(t < bound for t in unread)
    newest = [t for t in (unread[-1] if unread else None, model.watermark) if t is not None]
    assert reader.max_timestamp() == (max(newest) if newest else None)


def _check(basket: Basket, model: _Model, views: list, bound: int) -> None:
    for reader, position in [(basket, model.head), *model.cursors.items()]:
        _check_reader(reader, position, model, bound)
    assert basket.hseq == model.head and basket.appended_total == model.total
    assert basket.column("x1").to_list() == _rows(model.head, model.total)["x1"]
    state = basket.snapshot_state()
    image = {name: (bat.hseq, bat.to_list()) for name, bat in state["columns"].items()}
    rows = _rows(model.head, model.total)
    assert image == {
        "x1": (model.head, rows["x1"]),
        "x2": (model.head, rows["x2"]),
        TS_COLUMN: (model.head, model.ts[model.head :]),
    }
    assert (state["appended_total"], state["clock"], state["watermark"], state["newest_ts"]) == (
        model.total,
        model.clock,
        model.watermark,
        model.newest,
    )
    for bats, low in views:
        assert {name: bat.to_list() for name, bat in bats.items()} == _rows(
            low, low + len(bats["x1"])
        )


_OPS = st.sampled_from(
    ["columns", "rows", "cursor", "slice", "delete", "close", "watermark", "restore"]
)


@given(st.data())
def test_basket_matches_a_list_model(data):
    """Random appends (row or column batches of 0-300 tuples, explicit or
    counter stamps), cursors opened mid-stream, reads, deletes, closes,
    watermarks and snapshot → restore: after every step every reader,
    the column, the snapshot image and every view taken earlier match
    the model."""
    schema = Schema.of(("x1", Atom.INT), ("x2", Atom.FLT))
    basket = Basket("m", schema)
    model = _Model()
    views: list = []
    for __ in range(data.draw(st.integers(1, 25), label="steps")):
        op = data.draw(_OPS, label="op")
        readers = list(model.cursors) or [basket]
        if op in ("columns", "rows"):
            n = data.draw(st.integers(0, 300), label="n")
            explicit = data.draw(st.booleans(), label="explicit")
            rows = _rows(model.total, model.total + n)
            ts = None
            if explicit:
                start = (model.frontier() or 0) + data.draw(st.integers(-2, 5), label="start")
                steps = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
                ts = list(itertools.accumulate(steps, initial=start))[1:]
            first = ts[0] if ts else model.clock
            refused = n and model.frontier() is not None and first < model.frontier()
            append = (
                (lambda: basket.append_columns(rows, timestamps=ts))
                if op == "columns"
                else (lambda: basket.append_rows(list(zip(rows["x1"], rows["x2"])), ts))
            )
            if refused:
                with pytest.raises(BasketError, match="must not decrease"):
                    append()
                continue
            assert append() == n
            if n:
                stamps = ts if ts is not None else list(range(model.clock, model.clock + n))
                if ts is None:
                    model.clock += n
                model.ts += stamps
                model.newest = stamps[-1]
        elif op == "cursor":
            at = data.draw(st.integers(model.head, model.total), label="at")
            model.cursors[basket.cursor(at=at)] = at
        elif op in ("slice", "delete"):
            reader = data.draw(st.sampled_from(readers), label="reader")
            position = model.cursors.get(reader, model.head)
            count = data.draw(st.integers(0, model.total - position), label="count")
            if op == "slice":
                views.append((reader.head_slice(count, ["x1", "x2"]), position))
                views = views[-8:]
            else:
                reader.delete_head(count)
                if reader is basket:
                    model.head += count
                else:
                    model.cursors[reader] += count
                    model.trim()
        elif op == "close" and model.cursors:
            cursor = data.draw(st.sampled_from(list(model.cursors)), label="cursor")
            cursor.close()
            del model.cursors[cursor]
            model.trim()
        elif op == "watermark":
            ts = data.draw(st.integers(0, (model.frontier() or 0) + 10), label="wm")
            basket.advance_watermark(ts)
            model.watermark = ts if model.watermark is None else max(ts, model.watermark)
        elif op == "restore":
            restored = Basket("m", schema)
            restored.restore_state(basket.snapshot_state())
            _check(restored, _clone(model), [], 0)
            if not model.cursors:
                basket = restored
        bound = data.draw(st.integers(-1, (model.frontier() or 0) + 2), label="bound")
        _check(basket, model, views, bound)


def _clone(model: _Model) -> _Model:
    """``model`` without its cursors (a restored basket has none)."""
    twin = _Model()
    twin.ts, twin.head, twin.clock = model.ts, model.head, model.clock
    twin.newest, twin.watermark = model.newest, model.watermark
    return twin


@pytest.mark.concurrency
def test_views_survive_concurrent_appends_and_trims():
    """A producer thread appends batches while two consumer threads (two
    factories' firing threads) read basic windows through their own
    cursors, trimming the basket behind the slower one, and keep every
    view they took: each view must hold its tuples whenever it is looked
    at, and at the end."""
    basket = Basket("c", Schema.of(("x1", Atom.INT), ("x2", Atom.FLT)))
    cursors = [basket.cursor(), basket.cursor()]
    sizes = np.random.default_rng(11).integers(1, 700, 400)
    total = int(sizes.sum())
    errors: list[BaseException] = []
    kept: list[list] = [[], []]

    def produce():
        offset = 0
        for size in sizes:
            basket.append_columns(_rows(offset, offset + int(size)))
            offset += int(size)

    def consume(index):
        cursor, views = cursors[index], kept[index]
        rng = np.random.default_rng(index)
        read = 0
        while read < total:
            with cursor.locked():
                count = min(len(cursor), int(rng.integers(1, 1500)))
                cols = cursor.head_slice(count, ["x1", "x2"])
                cursor.delete_head(count)
            if count:
                views.append((cols, read))
                read += count
                old, low = views[int(rng.integers(0, len(views)))]
                assert old["x1"].to_list() == list(range(low, low + len(old["x1"])))

    def guarded(work, *args):
        try:
            work(*args)
        except BaseException as exc:  # re-raised on the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(produce,))] + [
            threading.Thread(target=guarded, args=(consume, i)) for i in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    for views in kept:
        assert sum(len(cols["x1"]) for cols, __ in views) == total
        for cols, low in views:
            assert {name: bat.to_list() for name, bat in cols.items()} == _rows(
                low, low + len(cols["x1"])
            )
    assert len(basket) == 0 and basket.hseq == total
