"""Behavioural tests for two-stream (and hybrid) join factories."""

from unittest.mock import patch

import numpy as np
import pytest

from repro import DataCellEngine
from repro.core import factory as factory_module
from repro.core.basket import Basket
from repro.core.rewriter.incremental import new_slot, seq_slot

from conftest import assert_rows_equal, ref_q2


@pytest.fixture
def engine():
    e = DataCellEngine()
    e.create_stream("s", [("x1", "int"), ("x2", "int")])
    e.create_stream("s2", [("x1", "int"), ("x2", "int")])
    table = e.create_table("dim", [("x2", "int"), ("weight", "int")])
    table.append_rows([(k, k * 10) for k in range(8)])
    return e


def feed_both(engine, count, seed=0, domain=12):
    rng = np.random.default_rng(seed)
    a1 = rng.integers(0, 10, count).astype(np.int64)
    a2 = rng.integers(0, domain, count).astype(np.int64)
    b1 = rng.integers(0, 10, count).astype(np.int64)
    b2 = rng.integers(0, domain, count).astype(np.int64)
    engine.feed("s", columns={"x1": a1, "x2": a2})
    engine.feed("s2", columns={"x1": b1, "x2": b2})
    return a1, a2, b1, b2


Q2 = (
    "SELECT max(s1.x1), avg(s2.x1) FROM s s1 [RANGE 40 SLIDE 10], "
    "s2 [RANGE 40 SLIDE 10] WHERE s1.x2 = s2.x2 AND s1.x1 > 2"
)


class TestJoinFactory:
    def test_requires_both_streams(self, engine):
        query = engine.submit(Q2)
        rng = np.random.default_rng(0)
        engine.feed("s", columns={
            "x1": rng.integers(0, 10, 100), "x2": rng.integers(0, 12, 100)
        })
        engine.run_until_idle()
        assert query.results() == []  # right stream empty

    def test_matches_reference(self, engine):
        query = engine.submit(Q2)
        a1, a2, b1, b2 = feed_both(engine, 140, seed=1)
        engine.run_until_idle()
        results = query.results()
        assert len(results) == 11
        for k, batch in enumerate(results):
            lo, hi = k * 10, k * 10 + 40
            expected = ref_q2(a1[lo:hi], a2[lo:hi], b1[lo:hi], b2[lo:hi], 2)
            assert_rows_equal(batch.rows(), expected, float_tol=1e-9)

    def test_matches_reevaluation(self, engine):
        qi = engine.submit(Q2, mode="incremental")
        qr = engine.submit(Q2, mode="reeval")
        feed_both(engine, 200, seed=2)
        engine.run_until_idle()
        for a, b in zip(qi.results(), qr.results()):
            assert_rows_equal(a.rows(), b.rows())

    def test_select_only_join(self, engine):
        sql = (
            "SELECT s1.x1, s2.x1 FROM s s1 [RANGE 20 SLIDE 10], "
            "s2 [RANGE 20 SLIDE 10] WHERE s1.x2 = s2.x2 ORDER BY s1.x1, s2.x1"
        )
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        feed_both(engine, 80, seed=3, domain=6)
        engine.run_until_idle()
        assert len(qi.results()) == 7
        for a, b in zip(qi.results(), qr.results()):
            assert sorted(a.rows()) == sorted(b.rows())

    def test_grouped_join_aggregate(self, engine):
        sql = (
            "SELECT s1.x1, count(*) FROM s s1 [RANGE 30 SLIDE 10], "
            "s2 [RANGE 30 SLIDE 10] WHERE s1.x2 = s2.x2 GROUP BY s1.x1 ORDER BY s1.x1"
        )
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        feed_both(engine, 90, seed=4, domain=5)
        engine.run_until_idle()
        assert qi.result_rows() == qr.result_rows()
        assert len(qi.results()) == 7

    def test_residual_predicate(self, engine):
        sql = (
            "SELECT count(*) FROM s s1 [RANGE 30 SLIDE 15], "
            "s2 [RANGE 30 SLIDE 15] WHERE s1.x2 = s2.x2 AND s1.x1 > s2.x1"
        )
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        feed_both(engine, 120, seed=5, domain=5)
        engine.run_until_idle()
        assert qi.result_rows() == qr.result_rows()

    def test_asymmetric_windows(self, engine):
        sql = (
            "SELECT count(*) FROM s s1 [RANGE 40 SLIDE 20], "
            "s2 [RANGE 20 SLIDE 10] WHERE s1.x2 = s2.x2"
        )
        qi = engine.submit(sql)
        qr = engine.submit(sql, mode="reeval")
        rng = np.random.default_rng(6)
        engine.feed("s", columns={
            "x1": rng.integers(0, 10, 200), "x2": rng.integers(0, 6, 200)
        })
        engine.feed("s2", columns={
            "x1": rng.integers(0, 10, 100), "x2": rng.integers(0, 6, 100)
        })
        engine.run_until_idle()
        assert len(qi.results()) > 2
        assert qi.result_rows() == qr.result_rows()


class TestHybridJoin:
    SQL = (
        "SELECT s1.x2, count(*) FROM s s1 [RANGE 30 SLIDE 10], dim "
        "WHERE s1.x2 = dim.x2 GROUP BY s1.x2 ORDER BY s1.x2"
    )

    def test_stream_table_join(self, engine):
        qi = engine.submit(self.SQL)
        qr = engine.submit(self.SQL, mode="reeval")
        rng = np.random.default_rng(7)
        x1 = rng.integers(0, 10, 90).astype(np.int64)
        x2 = rng.integers(0, 10, 90).astype(np.int64)  # keys 8,9 miss the table
        engine.feed("s", columns={"x1": x1, "x2": x2})
        engine.run_until_idle()
        assert len(qi.results()) == 7
        assert qi.result_rows() == qr.result_rows()
        # reference for the first window
        expected = {}
        for v in x2[:30]:
            if v < 8:
                expected[int(v)] = expected.get(int(v), 0) + 1
        assert qi.results()[0].rows() == sorted(expected.items())


class TestUnsupported:
    def test_self_join_rejected(self, engine):
        from repro.errors import UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError):
            engine.submit(
                "SELECT count(*) FROM s a [RANGE 10 SLIDE 5], s b [RANGE 10 SLIDE 5] "
                "WHERE a.x1 = b.x1"
            )


# ----------------------------------------------------------------------
# batched joins: differential suite against the reference oracle and
# re-evaluation.  Integer, count, min and max results compare exactly;
# float sums and averages within the float tolerance of DESIGN.md §10
# (a pair's float sum is one grouped, sequential reduction).
# ----------------------------------------------------------------------
FLOAT_TOL = 1e-9

JOIN_STREAMS = {
    "s": [("k", "int"), ("v", "int"), ("f", "float")],
    "s2": [("k", "int"), ("v", "int"), ("f", "float")],
}
DIM = {"columns": [("k", "int"), ("w", "int")], "rows": [[k, 7 * k + 1] for k in range(0, 30, 3)]}


def join_feed(rows=200, seed=11, dry_after=None):
    """Columns per stream; with ``dry_after`` the two streams' keys move to
    disjoint ranges after that many rows, so later windows join nothing."""
    rng = np.random.default_rng(seed)
    columns = {}
    for index, name in enumerate(("s", "s2")):
        keys = rng.integers(0, 30, rows)
        if dry_after is not None:
            keys[dry_after[index]:] += 1000 * (index + 1)
        columns[name] = {
            "k": keys.tolist(),
            "v": rng.integers(-50, 50, rows).tolist(),
            "f": rng.random(rows).tolist(),
        }
    return columns


def run_join(sql, columns, timestamps=None, punctuate=None, chunk=10, table=False):
    """Feed ``columns`` in rounds to an incremental and a re-evaluation
    twin of ``sql``; returns (incremental, reeval, oracle) windows and the
    incremental handle."""
    from types import SimpleNamespace

    from repro.testing.fuzz.generator import Feed
    from repro.testing.fuzz.reference import ReferenceOracle

    timestamps = timestamps or {}
    engine = DataCellEngine()
    for name, schema in JOIN_STREAMS.items():
        engine.create_stream(name, schema)
    tables = {"dim": DIM} if table else {}
    for name, spec in tables.items():
        engine.create_table(name, spec["columns"]).append_rows(
            [tuple(row) for row in spec["rows"]]
        )
    inc = engine.submit(sql, name="inc")
    ree = engine.submit(sql, name="ree", mode="reeval")
    total = max(len(cols["k"]) for cols in columns.values())
    for lo in range(0, total, chunk):
        for name, cols in columns.items():
            if lo >= len(cols["k"]):
                continue
            ts = timestamps.get(name)
            engine.feed(
                name,
                columns={col: values[lo:lo + chunk] for col, values in cols.items()},
                timestamps=ts[lo:lo + chunk] if ts is not None else None,
            )
        engine.run_until_idle()
    for name, watermark in (punctuate or {}).items():
        engine.advance_time(name, watermark)
    engine.run_until_idle()
    case = SimpleNamespace(sql=sql, streams=JOIN_STREAMS, tables=tables)
    feed = Feed(
        columns=columns,
        timestamps={name: timestamps.get(name) for name in columns},
        punctuate=dict(punctuate or {}),
    )
    oracle = ReferenceOracle(case).windows(feed)
    return inc.result_rows(), ree.result_rows(), oracle, inc


def assert_same_windows(inc, ree, oracle, floats=False, ordered=True):
    """``ordered``: aggregate windows match re-evaluation row for row;
    select-only ones concatenate pair bundles, so only as multisets."""
    from repro.testing.fuzz.reference import rows_equivalent

    assert inc, "no window fired"
    assert len(inc) == len(ree) == len(oracle)
    for index, (a, b, c) in enumerate(zip(inc, ree, oracle)):
        if floats:
            assert rows_equivalent(a, b, FLOAT_TOL), (index, a, b)
            assert rows_equivalent(a, c, FLOAT_TOL), (index, a, c)
        else:
            assert (a if ordered else sorted(a)) == (b if ordered else sorted(b)), (
                index, a, b
            )
            assert sorted(a) == sorted(c), (index, a, c)


def count_pair_runs(handle):
    """Record every run of the pair fragment: per side (left, right), its
    rows and its first new row."""
    factory = handle.factory
    runs = []
    real = factory._interp.run

    def run(program, inputs, profiler=None):
        if program is factory.plan.pair_fragment:
            runs.append(
                tuple(
                    (len(inputs[seq_slot(alias)]), inputs[new_slot(alias)])
                    for alias in factory.plan.pair_aliases
                )
            )
        return real(program, inputs, profiler)

    factory._interp.run = run
    return runs


def pair_ordered_rows(columns, window, size, step, left_cols, right_cols, cond):
    """A select-only join window the way per-pair bundles concatenate:
    (left basic window, right basic window), then left row, right row."""
    lo = window * step
    left, right = columns["s"], columns["s2"]
    rows = []
    for lb in range(lo, lo + size, step):
        for rb in range(lo, lo + size, step):
            for i in range(lb, lb + step):
                for j in range(rb, rb + step):
                    if left["k"][i] == right["k"][j] and cond(i, j):
                        rows.append(
                            tuple(left[c][i] for c in left_cols)
                            + tuple(right[c][j] for c in right_cols)
                        )
    return rows


class TestBatchedJoinDifferential:
    def test_global_aggregates_with_empty_pairs_and_windows(self):
        sql = (
            "SELECT count(*) AS n, max(s1.v) AS m, min(s2.v) AS lo, sum(s1.v) AS t "
            "FROM s s1 [RANGE 40 SLIDE 10], s2 [RANGE 40 SLIDE 10] WHERE s1.k = s2.k"
        )
        columns = join_feed(dry_after=(100, 60))
        inc, ree, oracle, handle = run_join(sql, columns)
        assert_same_windows(inc, ree, oracle)
        assert any(window == [] for window in inc)  # no match: no row
        assert any(window != [] for window in inc)
        # Every live pair holds a bundle, matched or not.
        assert len(handle.factory._pairs) == 16

    def test_count_alone_reports_zero_for_a_window_without_matches(self):
        sql = (
            "SELECT count(*) AS n FROM s s1 [RANGE 40 SLIDE 10], "
            "s2 [RANGE 40 SLIDE 10] WHERE s1.k = s2.k"
        )
        inc, ree, oracle, __ = run_join(sql, join_feed(dry_after=(100, 60)))
        assert_same_windows(inc, ree, oracle)
        assert [(0,)] in inc

    def test_float_sum_and_avg(self):
        sql = (
            "SELECT sum(s1.f) AS t, avg(s2.f) AS a, count(*) AS n "
            "FROM s s1 [RANGE 40 SLIDE 10], s2 [RANGE 40 SLIDE 10] WHERE s1.k = s2.k"
        )
        inc, ree, oracle, __ = run_join(sql, join_feed(seed=3))
        assert_same_windows(inc, ree, oracle, floats=True)

    def test_grouped(self):
        sql = (
            "SELECT s1.v % 3 AS g, count(*) AS n, max(s2.v) AS m, min(s1.v) AS lo "
            "FROM s s1 [RANGE 30 SLIDE 10], s2 [RANGE 30 SLIDE 10] "
            "WHERE s1.k = s2.k GROUP BY s1.v % 3"
        )
        inc, ree, oracle, __ = run_join(sql, join_feed(seed=4, dry_after=(120, 150)))
        assert_same_windows(inc, ree, oracle)

    def test_select_only_keeps_pair_order(self):
        sql = (
            "SELECT s1.v, s2.v, s2.k FROM s s1 [RANGE 30 SLIDE 10], "
            "s2 [RANGE 30 SLIDE 10] WHERE s1.k = s2.k"
        )
        columns = join_feed(rows=120, seed=5)
        inc, ree, oracle, __ = run_join(sql, columns)
        assert len(inc) == len(ree) == len(oracle) == 10
        for index, window in enumerate(inc):
            expected = pair_ordered_rows(
                columns, index, 30, 10, ["v"], ["v", "k"], lambda i, j: True
            )
            assert window == expected, index
            assert sorted(window) == sorted(ree[index]) == sorted(oracle[index])

    def test_residual_predicate(self):
        sql = (
            "SELECT s1.v, s2.v FROM s s1 [RANGE 20 SLIDE 10], s2 [RANGE 20 SLIDE 10] "
            "WHERE s1.k = s2.k AND s1.v > s2.v"
        )
        columns = join_feed(rows=100, seed=6)
        inc, ree, oracle, __ = run_join(sql, columns)
        left, right = columns["s"], columns["s2"]
        for index, window in enumerate(inc):
            expected = pair_ordered_rows(
                columns, index, 20, 10, ["v"], ["v"],
                lambda i, j: left["v"][i] > right["v"][j],
            )
            assert window == expected, index
            assert sorted(window) == sorted(ree[index]) == sorted(oracle[index])
        sql = (
            "SELECT count(*) AS n, sum(s2.v) AS t FROM s s1 [RANGE 40 SLIDE 10], "
            "s2 [RANGE 40 SLIDE 10] WHERE s1.k = s2.k AND s1.v + s2.v > 10"
        )
        assert_same_windows(*run_join(sql, join_feed(seed=7))[:3])

    def test_asymmetric_basic_window_counts(self):
        sql = (
            "SELECT count(*) AS n, max(s2.v) AS m FROM s s1 [RANGE 60 SLIDE 10], "
            "s2 [RANGE 20 SLIDE 10] WHERE s1.k = s2.k"
        )
        inc, ree, oracle, handle = run_join(sql, join_feed(seed=8))
        assert_same_windows(inc, ree, oracle)
        assert len(handle.factory._pairs) == 6 * 2

    def test_stream_table_join(self):
        for sql in (
            "SELECT s1.k, count(*) AS n, sum(dim.w) AS w FROM s s1 "
            "[RANGE 30 SLIDE 10], dim WHERE s1.k = dim.k GROUP BY s1.k",
            "SELECT count(*) AS n, max(dim.w) AS m FROM dim, s s1 "
            "[RANGE 30 SLIDE 10] WHERE dim.k = s1.k",
            "SELECT dim.w, s1.v FROM dim, s s1 [RANGE 30 SLIDE 10] "
            "WHERE dim.k = s1.k AND s1.v > 0",
        ):
            inc, ree, oracle, handle = run_join(sql, join_feed(seed=9), table=True)
            assert_same_windows(inc, ree, oracle, ordered="count" in sql)
            assert len(handle.factory._pairs) == 3  # one per live basic window

    def test_landmark_joins(self):
        for sql in (
            "SELECT count(*) AS n, max(s1.v) AS m FROM s s1 [LANDMARK SLIDE 10], "
            "s2 [LANDMARK SLIDE 10] WHERE s1.k = s2.k",
            "SELECT s1.v, s2.v FROM s s1 [LANDMARK SLIDE 20], "
            "s2 [LANDMARK SLIDE 20] WHERE s1.k = s2.k AND s1.v > 20",
            "SELECT count(*) AS n, min(s2.v) AS lo FROM s s1 [LANDMARK SLIDE 10], "
            "s2 [RANGE 30 SLIDE 10] WHERE s1.k = s2.k",
            "SELECT s2.k, count(*) AS n FROM s s1 [RANGE 20 SLIDE 10], "
            "s2 [LANDMARK SLIDE 10] WHERE s1.k = s2.k GROUP BY s2.k",
        ):
            inc, ree, oracle, __ = run_join(sql, join_feed(rows=120, seed=10))
            assert_same_windows(inc, ree, oracle, ordered="count" in sql)

    def test_nan_keys_match_nothing(self):
        """NaN, the in-band NULL, equals no key: incremental and
        re-evaluation windows agree with the oracle's ``==``."""
        sql = "SELECT count(*) AS n FROM s s1 [RANGE 2], s2 [RANGE 2] WHERE s1.f = s2.f"
        columns = {
            name: {"k": [0, 1], "v": [0, 0], "f": [float("nan"), key]}
            for name, key in (("s", 1.0), ("s2", 2.0))
        }
        inc, ree, oracle, __ = run_join(sql, columns)
        assert inc == ree == oracle == [[(0,)]]
        sql = (
            "SELECT count(*) AS n, sum(s2.v) AS t FROM s s1 [RANGE 30 SLIDE 10], "
            "s2 [RANGE 30 SLIDE 10] WHERE s1.f = s2.f"
        )
        rng = np.random.default_rng(15)
        columns = join_feed(rows=90, seed=15)
        for cols in columns.values():
            keys = rng.integers(0, 4, 90).astype(float)
            keys[rng.random(90) < 0.3] = np.nan
            cols["f"] = keys.tolist()
        inc, ree, oracle, __ = run_join(sql, columns)
        assert_same_windows(inc, ree, oracle)
        assert len(inc) == 7

    def test_time_windows_with_empty_basic_windows(self):
        sql = (
            "SELECT count(*) AS n, max(s1.v) AS m, avg(s2.f) AS a FROM "
            "s s1 [RANGE 40 MILLISECONDS SLIDE 10 MILLISECONDS], "
            "s2 [RANGE 40 MILLISECONDS SLIDE 10 MILLISECONDS] WHERE s1.k = s2.k"
        )
        rows = 120
        columns = join_feed(rows=rows, seed=12)
        timestamps = {}
        for index, name in enumerate(("s", "s2")):
            # 1 ms apart, with a 35 ms gap in each stream: empty basic
            # windows on each side, at different slides.
            gap_at = 30 + 40 * index
            timestamps[name] = [
                1_000 * (i + (35 if i >= gap_at else 0)) for i in range(rows)
            ]
        punctuate = {name: ts[-1] + 50_000 for name, ts in timestamps.items()}
        inc, ree, oracle, __ = run_join(
            sql, columns, timestamps=timestamps, punctuate=punctuate
        )
        assert_same_windows(inc, ree, oracle, floats=True)

    def test_one_run_per_slide(self):
        sql = (
            "SELECT count(*) AS n FROM s s1 [RANGE 40 SLIDE 10], "
            "s2 [RANGE 40 SLIDE 10] WHERE s1.k = s2.k"
        )
        engine = DataCellEngine()
        for name, schema in JOIN_STREAMS.items():
            engine.create_stream(name, schema)
        handle = engine.submit(sql)
        runs = count_pair_runs(handle)
        columns = join_feed(rows=60, seed=13)
        for name, cols in columns.items():
            engine.feed(name, columns={c: v[:40] for c, v in cols.items()})
        engine.run_until_idle()
        # First firing: one run over all 4 x 4 pairs, every row new, plus
        # at most one run on empty inputs for the empty-pair bundle.
        full = ((40, 0), (40, 0))
        assert [run for run in runs if run[0][0]] == [full]
        assert len(runs) <= 2
        for name, cols in columns.items():
            engine.feed(name, columns={c: v[40:60] for c, v in cols.items()})
        engine.run_until_idle()
        # Then one run per slide over both live sides, each side's newest
        # basic window from row 30 on: new left x every live right and
        # older left x new right.
        slide = ((40, 30), (40, 30))
        assert [run for run in runs if run[0][0]] == [full, slide, slide]
        assert len(runs) <= 4

    def test_stream_table_slide_reads_only_the_new_left_rows(self):
        sql = (
            "SELECT count(*) AS n, sum(dim.w) AS w FROM s s1 [RANGE 30 SLIDE 10], "
            "dim WHERE s1.k = dim.k"
        )
        engine = DataCellEngine()
        for name, schema in JOIN_STREAMS.items():
            engine.create_stream(name, schema)
        engine.create_table("dim", DIM["columns"]).append_rows(
            [tuple(row) for row in DIM["rows"]]
        )
        handle = engine.submit(sql)
        runs = count_pair_runs(handle)
        engine.feed("s", columns=join_feed(rows=50, seed=14)["s"])
        engine.run_until_idle()
        # The table has no new rows: the stream side is read from its
        # first new basic window on, every row of it new.
        table = (len(DIM["rows"]), len(DIM["rows"]))
        assert [run for run in runs if run[0][0]] == [
            ((30, 0), table), ((10, 0), table), ((10, 0), table)
        ]


class TestTaggedPreps:
    def test_first_firing_deletes_once_per_stream(self, engine, monkeypatch):
        calls = []
        original = Basket.delete_head
        monkeypatch.setattr(
            Basket, "delete_head", lambda b, n: calls.append(b.name) or original(b, n)
        )
        query = engine.submit(Q2)
        feed_both(engine, 40, seed=2)
        engine.run_until_idle()
        assert len(query.results()) == 1
        assert sorted(calls) == ["s", "s2"]

    @pytest.mark.parametrize("cap", [0, 7, 25])
    def test_tagged_preps_equal_plain_preps(self, engine, cap):
        """The prep bundles of a first window from tagged prep runs (split
        by tag, any cap) equal one plain prep run per basic window, and
        so do the windows."""
        query = engine.submit(Q2)
        feed_both(engine, 40, seed=3)
        with patch.object(factory_module, "TAGGED_RUN_TUPLES", cap):
            engine.run_until_idle()
        plain = DataCellEngine()
        plain.create_stream("s", [("x1", "int"), ("x2", "int")])
        plain.create_stream("s2", [("x1", "int"), ("x2", "int")])
        reference = plain.submit(Q2)
        feed_both(plain, 40, seed=3)
        with patch.object(factory_module, "TAGGED_RUN_TUPLES", 0):
            plain.run_until_idle()
        for alias in ("s1", "s2"):
            got = query.factory._stores[alias].live()
            want = reference.factory._stores[alias].live()
            assert [seq for seq, __ in got] == [seq for seq, __ in want]
            for (__, a), (__, b) in zip(got, want):
                assert a.keys() == b.keys()
                for column in a:
                    assert a[column].atom == b[column].atom
                    assert np.array_equal(a[column].tail, b[column].tail)
            assert len(got) == 4
        assert [b.rows() for b in query.results()] == [
            b.rows() for b in reference.results()
        ]
