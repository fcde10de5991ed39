"""Unit tests for partial-result stores (the transition machinery)."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DataCellEngine
from repro.errors import SchedulerError
from repro.core import factory as factory_module
from repro.core.factory import TAGGED_RUN_TUPLES
from repro.core.durability import pack_state, unpack_state
from repro.core.partials import (
    PairStore,
    PartialStore,
    RunningTable,
    WindowStore,
    _pair_codes,
)
from repro.core.rewriter.flows import Flow
from repro.core.rewriter.incremental import _build_combine, packed
from repro.kernel.algebra.setops import concat
from repro.kernel.execution import InterpreterBackend

from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT
from repro.kernel.execution.profiler import Profiler
from repro.testing.fuzz.oracle import OracleConfig
from repro.testing.fuzz.reference import _values_close as values_close, rows_equivalent


def bundle(value):
    return {"flow": BAT.from_values([value], Atom.INT)}


class TestPartialStore:
    def test_add_and_live(self):
        store = PartialStore(capacity=3)
        for i in range(3):
            assert store.add(bundle(i)) == i
        assert [seq for seq, __ in store.live()] == [0, 1, 2]

    def test_eviction_is_the_transition(self):
        """Adding past capacity drops the oldest — Algorithm 2 lines 20-21."""
        store = PartialStore(capacity=3)
        for i in range(5):
            store.add(bundle(i))
        live = store.live()
        assert [seq for seq, __ in live] == [2, 3, 4]
        assert [b["flow"].to_list()[0] for __, b in live] == [2, 3, 4]

    def test_unbounded(self):
        store = PartialStore(capacity=0)
        for i in range(10):
            store.add(bundle(i))
        assert len(store) == 10

    def test_bundle_lookup(self):
        store = PartialStore(capacity=2)
        store.add(bundle(0))
        store.add(bundle(1))
        assert store.bundle(1)["flow"].to_list() == [1]
        store.add(bundle(2))
        with pytest.raises(SchedulerError):
            store.bundle(0)

    def test_replace_all_keeps_newest_seq(self):
        store = PartialStore(capacity=0)
        store.add(bundle(0))
        store.add(bundle(1))
        store.replace_all(bundle(99))
        assert len(store) == 1
        assert store.newest_seq == 1
        next_seq = store.add(bundle(2))
        assert next_seq == 2

    def test_replace_all_empty_raises(self):
        with pytest.raises(SchedulerError):
            PartialStore(capacity=1).replace_all(bundle(0))

    def test_newest_seq_empty(self):
        assert PartialStore(capacity=1).newest_seq is None

    def test_cover_is_the_live_singles_across_slides_and_a_restore(self):
        """Algorithm 2's merge input: every live bundle, oldest first,
        after each slide, and the same from a store restored mid-stream."""
        store = PartialStore(capacity=100)
        for i in range(150):
            store.add(bundle(i))
        assert [b["flow"].to_list()[0] for b in store.cover()] == list(range(50, 150))
        assert store.cover_len == 100
        twin = PartialStore(capacity=100)
        twin.restore_state(store.snapshot_state())
        for i in range(150, 190):
            store.add(bundle(i))
            twin.add(bundle(i))
            cover = twin.cover()
            assert cover == store.cover()
            assert [b["flow"].to_list()[0] for b in cover] == list(range(i - 99, i + 1))
            assert twin.cover_len == 100


# ----------------------------------------------------------------------
# running tables (invertible plans, DESIGN.md §17)
# ----------------------------------------------------------------------
GROUPED_FLOWS = [Flow("key_0", "gkey"), Flow("s", "gsum"), Flow("c", "gcount")]
GLOBAL_FLOWS = [Flow("s", "sum"), Flow("c", "count")]
#: Partial values: small ones of both signs (and sums that cancel to 0),
#: and ones big enough that a few of them wrap int64.
SMALL = np.arange(-3, 4, dtype=np.int64)
HUGE = np.array([2**62, 2**63 - 1, -(2**63), -(2**62) - 7], dtype=np.int64)


def random_partial(rng, grouped, domain):
    """One basic window's partial: ascending distinct keys, some windows
    empty; a global sum has no row for an empty basic window."""
    values = SMALL if rng.random() < 0.7 else HUGE
    if grouped:
        rows = rng.integers(0, min(domain, 6) + 1)
        keys = np.sort(rng.choice(domain, rows, replace=False)).astype(np.int64) - 2
        return {
            "key_0": BAT(keys, Atom.INT),
            "s": BAT(rng.choice(values, rows), Atom.INT),
            "c": BAT(rng.integers(1, 5, rows).astype(np.int64), Atom.INT),
        }
    empty = rng.random() < 0.3
    return {
        "s": BAT(rng.choice(values, 0 if empty else 1), Atom.INT),
        "c": BAT(np.array([0 if empty else rng.integers(1, 9)], np.int64), Atom.INT),
    }


def flat_fold(flows, bundles):
    """The plan's own combine program over the packed partials: what the
    paper's flat merge makes of the window."""
    program = _build_combine(flows, flows[0].kind == "gkey")
    packed_cols = {
        packed(flow.name): concat([b[flow.name] for b in bundles]) for flow in flows
    }
    out = InterpreterBackend().run(program, packed_cols, Profiler())
    return {flow.name: out[flow.name] for flow in flows}


def model_weights(flows, bundles):
    """How many partials hold each row of the fold."""
    if flows[0].kind != "gkey":
        return [sum(len(b[flow.name]) for b in bundles) for flow in flows]
    held: dict[int, int] = {}
    for b in bundles:
        for key in b["key_0"].to_list():
            held[key] = held.get(key, 0) + 1
    return [held[key] for key in sorted(held)]


class TestRunningTable:
    """The tiling property's twin: after every add (and the expiry it
    brings) or restore, the running table is, byte for byte, the flat
    fold of the live partials, and each row's weight is the number of
    live partials holding it."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 4, 31, 32, 512]),
        grouped=st.booleans(),
        domain=st.integers(1, 40),
        extra=st.integers(0, 40),
        restore_at=st.integers(-1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_is_the_fold_of_the_live_partials(
        self, n, grouped, domain, extra, restore_at, seed
    ):
        rng = np.random.default_rng(seed)
        flows = GROUPED_FLOWS if grouped else GLOBAL_FLOWS
        store = PartialStore(capacity=n)
        table = None
        handed = []

        def fold(bundles):
            return flat_fold(flows, bundles)

        for step in range(n + extra):
            bundle = random_partial(rng, grouped, domain)
            __, expired = store.slide(bundle)
            live = [b for __, b in store.live()]
            if step == restore_at:
                twin = PartialStore(capacity=n)
                twin.restore_state(unpack_state(*pack_state(store.snapshot_state())))
                store, table = twin, None
            if table is None:
                table = RunningTable.fold(flows, live, fold)
                assert table.folded == len(live)
            else:
                table.update(bundle, expired, fold)
                assert table.folded == 1 + len(expired)
            expected = flat_fold(flows, live)
            assert list(table.bundle) == list(expected)
            for name, bat in expected.items():
                assert table.bundle[name].atom == bat.atom
                assert table.bundle[name].tail.tobytes() == bat.tail.tobytes()
            assert table.weights.tolist() == model_weights(flows, live)
            handed += [(bat.tail, bat.tail.copy()) for bat in table.bundle.values()]
        # No update wrote to an array the table had handed out.
        for tail, copy in handed:
            assert tail.tobytes() == copy.tobytes()

    def test_a_group_summing_to_zero_stays_and_a_vanished_one_goes(self):
        flows = GROUPED_FLOWS
        store = PartialStore(capacity=2)

        def partial(keys, sums):
            return {
                "key_0": BAT(np.array(keys, np.int64), Atom.INT),
                "s": BAT(np.array(sums, np.int64), Atom.INT),
                "c": BAT(np.ones(len(keys), np.int64), Atom.INT),
            }

        store.add(partial([1, 2], [5, 7]))
        store.add(partial([2], [-7]))
        def fold(bundles):
            return flat_fold(flows, bundles)

        table = RunningTable.fold(flows, [b for __, b in store.live()], fold)
        assert table.bundle["key_0"].to_list() == [1, 2]
        assert table.bundle["s"].to_list() == [5, 0]
        assert table.weights.tolist() == [1, 2]
        new = partial([3], [4])
        table.update(new, store.slide(new)[1], fold)  # expires keys 1 and 2
        assert table.bundle["key_0"].to_list() == [2, 3]  # 2 sums to -7
        assert table.bundle["s"].to_list() == [-7, 4]
        assert table.weights.tolist() == [1, 1]


class TestWindowStore:
    """A prep store (a join side, a re-evaluation window): the window and
    every contiguous run of live bundles are one view each, and no view
    it handed out ever changes."""

    @given(
        capacity=st.integers(0, 6),
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=40),
        restore_at=st.integers(0, 40),
    )
    def test_window_is_the_live_concatenation(self, capacity, sizes, restore_at):
        store = WindowStore(capacity)
        handed: list[tuple[np.ndarray, list]] = []
        next_value = 0
        for index, size in enumerate(sizes):
            values = np.arange(next_value, next_value + size, dtype=np.int64)
            next_value += size
            store.add({"a": BAT(values, Atom.INT), "b": BAT(-values, Atom.INT)})
            if index == restore_at:
                twin = WindowStore(capacity)
                twin.restore_state(unpack_state(*pack_state(store.snapshot_state())))
                store = twin
            live = [bundle for __, bundle in store.live()]
            window = store.window()
            assert window["a"].to_list() == [v for b in live for v in b["a"].to_list()]
            assert window["b"].to_list() == [-v for v in window["a"].to_list()]
            handed.append((window["a"].tail, window["a"].to_list()))
            # Every contiguous live seq range reads as one view: a join
            # run's side.
            seqs = store.live_seqs()
            for i, first in enumerate(seqs):
                for j in range(i, len(seqs)):
                    view = store.view(first, seqs[j])
                    run = live[i : j + 1]
                    assert view["a"].to_list() == [v for b in run for v in b["a"].to_list()]
                    assert view["b"].to_list() == [-v for v in view["a"].to_list()]
                    assert view["a"].hseq == run[0]["a"].hseq
                    handed.append((view["a"].tail, view["a"].to_list()))
        for tail, values in handed:
            assert tail.tolist() == values

    def test_landmark_collapses_to_its_window(self):
        store = WindowStore(0)
        for start in range(0, 12, 3):
            store.add({"a": BAT(np.arange(start, start + 3, dtype=np.int64), Atom.INT)})
            store.replace_all(store.window())
            assert len(store) == 1
        store.add({"a": BAT(np.arange(12, 14, dtype=np.int64), Atom.INT)})
        assert store.window()["a"].to_list() == list(range(14))


def pair_view(store):
    """A :class:`PairStore`'s live pairs with their rows as one bundle
    each, ordered by (left seq, right seq): the per-pair store the tagged
    tables replaced, cut back out of them."""
    index = store._index
    lefts, rights = np.unique(index.left), np.unique(index.right)
    keys = _pair_codes(index.left, index.right, lefts, rights)
    cuts = {
        name: np.searchsorted(
            _pair_codes(table.left, table.right, lefts, rights), keys
        ).tolist()
        + [len(table)]
        for name, table in store._flows.items()
    }
    return [
        (
            (left, right),
            {
                name: BAT(
                    table.values.tail[cuts[name][i] : cuts[name][i + 1]],
                    table.values.atom,
                )
                for name, table in store._flows.items()
            },
        )
        for i, (left, right) in enumerate(
            zip(index.left.tolist(), index.right.tolist())
        )
    ]


def add_pair(store, left, right, value):
    """A join run of the single pair (left, right) yielding one row."""
    store.add(
        [left], [right], bundle(value), np.array([left]), np.array([right]), dict
    )


class TestPairStore:
    def test_expire_either_side(self):
        store = PairStore(left_capacity=2, right_capacity=2)
        for left in range(3):
            for right in range(3):
                add_pair(store, left, right, left * 10 + right)
        store.expire(newest_left=2, newest_right=2)
        live_keys = [key for key, __ in pair_view(store)]
        assert live_keys == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert store.table()["flow"].to_list() == [11, 12, 21, 22]

    def test_unbounded_side_never_expires(self):
        store = PairStore(left_capacity=2, right_capacity=0)
        add_pair(store, 0, 0, 0)
        add_pair(store, 5, 0, 1)
        store.expire(newest_left=5, newest_right=0)
        assert [key for key, __ in pair_view(store)] == [(5, 0)]

    def test_live_sorted(self):
        store = PairStore(left_capacity=0, right_capacity=0)
        add_pair(store, 1, 0, 0)
        add_pair(store, 0, 1, 1)
        assert [key for key, __ in pair_view(store)] == [(0, 1), (1, 0)]
        assert store.table()["flow"].to_list() == [1, 0]

    def test_replace_all(self):
        store = PairStore(left_capacity=0, right_capacity=0)
        add_pair(store, 0, 0, 1)
        add_pair(store, 0, 1, 2)
        store.replace_all(bundle(9), key=(0, 1))
        assert len(store) == 1
        assert pair_view(store)[0][0] == (0, 1)

    def test_a_pair_not_newer_on_the_right_is_refused(self):
        store = PairStore(left_capacity=0, right_capacity=0)
        add_pair(store, 0, 5, 0)
        for right in (5, 3):
            with pytest.raises(SchedulerError):
                add_pair(store, 0, right, 1)
        add_pair(store, 1, 3, 1)  # another left seq's block


class PairModel:
    """The per-pair store the tagged table replaced: a dict of dicts of
    bundles, read in (left, right) order."""

    def __init__(self, left_capacity, right_capacity):
        self.left_capacity = left_capacity
        self.right_capacity = right_capacity
        self.rows = {}

    def add(self, left, right, bundle):
        self.rows.setdefault(left, {})[right] = bundle

    def expire(self, newest_left, newest_right):
        self.rows = {
            left: {
                right: bundle
                for right, bundle in row.items()
                if not self.right_capacity
                or right > newest_right - self.right_capacity
            }
            for left, row in self.rows.items()
            if not self.left_capacity or left > newest_left - self.left_capacity
        }
        self.rows = {left: row for left, row in self.rows.items() if row}

    def live(self):
        return [
            ((left, right), self.rows[left][right])
            for left in sorted(self.rows)
            for right in sorted(self.rows[left])
        ]

    def column(self, name):
        return [value for __, bundle in self.live() for value in bundle[name]]

    def replace_all(self, key):
        merged = {name: self.column(name) for name in ("v", "n")}
        self.rows = {key[0]: {key[1]: merged}}


def table_bundle(values):
    return {
        "v": BAT.from_values(values["v"], Atom.FLT),
        "n": BAT.from_values(values["n"], Atom.INT),
    }


#: A pair without joined rows: no ``v`` row, a 0 in ``n`` (a count).
EMPTY_PAIR = {"v": [], "n": [0]}


def assert_store_matches(store, model):
    assert len(store) == sum(len(row) for row in model.rows.values())
    table = store.table()
    for name in ("v", "n"):
        assert table[name].to_list() == model.column(name), name
    live = [
        (key, {name: bat.to_list() for name, bat in bundle.items()})
        for key, bundle in pair_view(store)
    ]
    assert live == [(key, dict(bundle)) for key, bundle in model.live()]


class TestPairTableProperty:
    @given(
        left_capacity=st.integers(0, 3),
        right_capacity=st.integers(0, 3),
        data=st.data(),
    )
    def test_table_is_the_per_pair_model_concatenated(
        self, left_capacity, right_capacity, data
    ):
        """Random slides of bilinear delta runs — new left × live right,
        older left × new right, with unequal per-pair row counts, empty
        pairs, expiry on either side, landmark sides and compaction
        followed by out-of-order adds: each flow's table is the model's
        row-major concatenation, and the per-pair view, ``len`` and a
        serialized snapshot agree."""
        store = PairStore(left_capacity, right_capacity)
        model = PairModel(left_capacity, right_capacity)
        seqs = {"left": [], "right": []}
        capacity = {"left": left_capacity, "right": right_capacity}
        value = 0

        def new_seqs(side, count):
            start = seqs[side][-1] + 1 if seqs[side] else 0
            fresh = list(range(start, start + count))
            seqs[side] = seqs[side] + fresh
            if capacity[side]:
                seqs[side] = seqs[side][-capacity[side]:]
            return fresh

        def run(lefts, rights):
            nonlocal value
            grid = [(left, right) for left in lefts for right in rights]
            rows = data.draw(
                st.lists(st.sampled_from(grid), max_size=3 * len(grid)), "rows"
            )
            rows = data.draw(st.permutations(rows), "order")
            values = {"v": [], "n": []}
            per_pair = {}
            for pair in rows:
                value += 1
                values["v"].append(float(value))
                values["n"].append(value)
                got = per_pair.setdefault(pair, {"v": [], "n": []})
                got["v"].append(float(value))
                got["n"].append(value)
            for pair in grid:
                model.add(*pair, per_pair.get(pair, EMPTY_PAIR))
            store.add(
                lefts,
                rights,
                table_bundle(values),
                np.array([left for left, __ in rows], dtype=np.int64),
                np.array([right for __, right in rows], dtype=np.int64),
                lambda: table_bundle(EMPTY_PAIR),
            )

        for step in range(data.draw(st.integers(1, 8), "slides")):
            first = step == 0
            new_left = new_seqs("left", data.draw(st.integers(1, 2), "new left"))
            new_right = new_seqs(
                "right", data.draw(st.integers(1 if first else 0, 2), "new right")
            )
            run(new_left, seqs["right"])
            older_left = [seq for seq in seqs["left"] if seq < new_left[0]]
            if new_right and older_left:
                run(older_left, new_right)
            store.expire(seqs["left"][-1], seqs["right"][-1])
            model.expire(seqs["left"][-1], seqs["right"][-1])
            assert_store_matches(store, model)
            twin = PairStore(left_capacity, right_capacity)
            twin.restore_state(unpack_state(*pack_state(store.snapshot_state())))
            assert_store_matches(twin, model)
            if not (left_capacity or right_capacity) and data.draw(
                st.booleans(), "compact"
            ):
                key = (seqs["left"][-1], seqs["right"][-1])
                model.replace_all(key)
                store.replace_all(table_bundle(model.rows[key[0]][key[1]]), key)
                assert_store_matches(store, model)


# ----------------------------------------------------------------------
# tagged fragment runs (the first window's fill)
# ----------------------------------------------------------------------
#: The Figure-3 taxonomy over one stream: select-only (with and without a
#: filter), grouped and global sum/count/min/max, AVG, and DISTINCT /
#: ORDER BY (finalize-only, so the fragment matches the plain shapes).
TAGGED_SHAPES = [
    "SELECT x1, x2 FROM s [RANGE 8 SLIDE 2] WHERE x1 > 0",
    "SELECT x1 + 1 AS y, x2 FROM s [RANGE 8 SLIDE 2]",
    "SELECT x1, sum(x2), count(*), min(x2), max(x2) FROM s [RANGE 8 SLIDE 2] "
    "WHERE x1 > 0 GROUP BY x1",
    "SELECT sum(x2), count(*), min(x1), max(x2) FROM s [RANGE 8 SLIDE 2] WHERE x1 > 0",
    "SELECT sum(x1), count(*) FROM s [RANGE 8 SLIDE 2]",
    "SELECT count(*) FROM s [RANGE 8 SLIDE 2] WHERE x1 > 0",
    "SELECT x1, avg(x2) FROM s [RANGE 8 SLIDE 2] GROUP BY x1",
    "SELECT avg(x1) FROM s [RANGE 8 SLIDE 2] WHERE x2 > 0.5",
    "SELECT DISTINCT x1 FROM s [RANGE 8 SLIDE 2] WHERE x1 > 0",
    "SELECT x1, x2 FROM s [RANGE 8 SLIDE 2] WHERE x1 > 0 ORDER BY x2 DESC",
]

#: The tolerance the fuzz oracle compares FLT results with.
FLOAT_TOL = OracleConfig().float_tol


def assert_same_bundle(tagged, plain):
    """INT/STR flows bit-equal, FLT flows within the fuzz oracle's rule."""
    assert tagged.keys() == plain.keys()
    for name, want in plain.items():
        got = tagged[name]
        assert got.atom == want.atom and got.tail.dtype == want.tail.dtype, name
        if want.atom == Atom.FLT:
            assert len(got) == len(want), name
            assert all(
                values_close(a, b, FLOAT_TOL)
                for a, b in zip(got.to_list(), want.to_list())
            ), name
        else:
            assert np.array_equal(got.tail, want.tail), name


def fed_factory(sql, x1, x2, **engine_kwargs):
    engine = DataCellEngine(**engine_kwargs)
    engine.create_stream("s", [("x1", "int"), ("x2", "float")])
    handle = engine.submit(sql)
    engine.feed(
        "s", columns={"x1": np.asarray(x1, dtype=np.int64), "x2": np.asarray(x2)}
    )
    return engine, handle.factory


class TestTaggedRuns:
    @given(
        sql=st.sampled_from(TAGGED_SHAPES),
        counts=st.lists(st.integers(0, 12), min_size=2, max_size=10),
        cap=st.integers(0, 48),
        fewest=st.integers(1, 5),
        data=st.data(),
    )
    def test_one_tagged_run_equals_plain_runs(self, sql, counts, cap, fewest, data):
        """Bundle for bundle, the tagged runs of k basic windows equal k
        plain fragment runs — also for empty basic windows, fully
        filtered ones, and a cap that splits the slices into several
        runs (and runs shorter than ``fewest``, which run plain)."""
        total = sum(counts)
        x1 = data.draw(st.lists(st.integers(-3, 3), min_size=total, max_size=total))
        x2 = data.draw(
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False, width=32),
                min_size=total,
                max_size=total,
            )
        )
        __, factory = fed_factory(sql, x1, x2, fragment_sharing=False)
        with (
            patch.object(factory_module, "TAGGED_RUN_TUPLES", cap),
            patch.object(factory_module, "TAGGED_RUN_MIN_WINDOWS", fewest),
        ):
            slices = factory._take_slices("s", counts)
            tagged = factory._bundles("s", slices, Profiler())
        plain = [
            factory._run("s", slices.cut(i, i + 1), Profiler())
            for i in range(len(counts))
        ]
        assert len(tagged) == len(plain) == len(counts)
        for got, want in zip(tagged, plain):
            assert_same_bundle(got, want)

    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("sql", TAGGED_SHAPES)
    def test_time_windows_with_empty_and_filtered_basic_windows(self, sql, filtered):
        """A first time window whose basic windows are empty or fully
        filtered out (``filtered``: all of them): the tagged fill and the
        plain fill (cap 0) give the same windows, and both match
        re-evaluation."""
        sql = sql.replace("[RANGE 8 SLIDE 2]", "[RANGE 8 SECONDS SLIDE 1 SECONDS]")
        # seconds 1, 3 and 4 are empty; second 5 holds only x1 <= 0
        seconds = [0, 0, 2, 2, 2, 5, 5, 6, 7, 7, 9, 10, 12]
        x1 = [1, 2, 3, -1, 2, -2, 0, 3, 1, 1, 2, -3, 1]
        if filtered:  # nothing passes x1 > 0 before second 10
            x1 = [-abs(v) if t < 10 else v for v, t in zip(x1, seconds)]
        x2 = [0.25 * i for i in range(len(seconds))]
        runs = {}
        for mode, cap in (("incremental", TAGGED_RUN_TUPLES), ("plain", 0), ("reeval", 0)):
            engine = DataCellEngine()
            engine.create_stream("s", [("x1", "int"), ("x2", "float")])
            handle = engine.submit(sql, mode="reeval" if mode == "reeval" else "incremental")
            with patch.object(factory_module, "TAGGED_RUN_TUPLES", cap):
                engine.feed(
                    "s",
                    columns={"x1": np.asarray(x1), "x2": np.asarray(x2)},
                    timestamps=np.asarray(seconds, dtype=np.int64) * 1_000_000,
                )
                engine.run_until_idle()
            runs[mode] = [batch.rows() for batch in handle.results()]
        assert len(runs["incremental"]) == 5
        for got, plain, reeval in zip(*runs.values()):
            assert rows_equivalent(got, plain, FLOAT_TOL)
            assert rows_equivalent(got, reeval, FLOAT_TOL)

    def test_cache_counts_match_the_plain_fill(self):
        """Two sharing queries of different |W|: the tagged fill looks up
        and stores one cache entry per basic window, with the hits and
        misses of the plain fill, and the same windows."""
        sqls = [
            "SELECT x1, sum(x2) FROM s [RANGE 24 SLIDE 3] WHERE x1 > 0 GROUP BY x1",
            "SELECT x1, sum(x2) AS t FROM s [RANGE 12 SLIDE 3] WHERE x1 > 0 GROUP BY x1",
        ]
        rng = np.random.default_rng(7)
        x1, x2 = rng.integers(-3, 4, 90), rng.random(90)
        outcomes = []
        for cap in (TAGGED_RUN_TUPLES, 0):
            engine = DataCellEngine()
            engine.create_stream("s", [("x1", "int"), ("x2", "float")])
            handles = [engine.submit(sql) for sql in sqls]
            with patch.object(factory_module, "TAGGED_RUN_TUPLES", cap):
                for start in range(0, 90, 15):  # the short window fills first
                    engine.feed(
                        "s", columns={"x1": x1[start : start + 15], "x2": x2[start : start + 15]}
                    )
                    engine.run_until_idle()
            stats = engine.fragment_cache.stats()
            windows = [[b.rows() for b in h.results()] for h in handles]
            outcomes.append((stats["hits"], stats["misses"], stats["entries"], windows))
        assert outcomes[0][:3] == outcomes[1][:3]
        assert outcomes[0][0] > 0  # the long window's fill hit the short one's
        for got, want in zip(outcomes[0][3], outcomes[1][3]):
            assert len(got) == len(want) > 0
            for a, b in zip(got, want):
                assert rows_equivalent(a, b, FLOAT_TOL)

    @pytest.mark.parametrize("sql", TAGGED_SHAPES[1:3])
    def test_retained_bundles_do_not_alias_the_basket(self, sql):
        """The bundles the fill keeps must not alias the basket's
        buffers.  The fill's delete compacts the basket, moving the unread
        rows over the sliced ones, and later feeds write over them again:
        every window still equals re-evaluation."""
        rng = np.random.default_rng(3)
        x1, x2 = rng.integers(-3, 4, 14), rng.random(14)
        windows = {}
        for mode in ("incremental", "reeval"):
            engine = DataCellEngine()
            engine.create_stream("s", [("x1", "int"), ("x2", "float")])
            handle = engine.submit(sql, mode=mode)
            for rows in (slice(0, 11), slice(11, 14)):
                engine.feed("s", columns={"x1": x1[rows], "x2": x2[rows]})
                engine.run_until_idle()
            windows[mode] = [batch.rows() for batch in handle.results()]
        assert len(windows["incremental"]) == len(windows["reeval"]) == 4
        for got, want in zip(windows["incremental"], windows["reeval"]):
            assert rows_equivalent(got, want, FLOAT_TOL)
