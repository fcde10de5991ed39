"""Property-based cross-engine equivalence (the DESIGN.md invariant).

For random streams and window geometries, at every slide the results of

1. the incremental DataCell factory (plan rewriting),
2. full re-evaluation (DataCellR),
3. the SystemX tuple-at-a-time engine, and
4. a naive Python reference

must agree.  This is the strongest end-to-end guarantee in the suite: it
exercises the rewriter's split/replicate/merge/transition machinery against
three independent implementations.
"""

import collections

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DataCellEngine
from repro.dsms import SystemX
from repro.kernel.atoms import Atom
from repro.kernel.storage import Schema

from conftest import assert_rows_equal


def make_engines():
    engine = DataCellEngine()
    engine.create_stream("s", [("x1", "int"), ("x2", "int")])
    engine.create_stream("s2", [("x1", "int"), ("x2", "int")])
    systemx = SystemX()
    systemx.create_stream("s", Schema.of(("x1", Atom.INT), ("x2", Atom.INT)))
    systemx.create_stream("s2", Schema.of(("x1", Atom.INT), ("x2", Atom.INT)))
    return engine, systemx


def run_all_engines(sql, feeds, float_tol=1e-7):
    """Returns the per-window rows from all three engines, asserted equal."""
    engine, systemx = make_engines()
    qi = engine.submit(sql, mode="incremental")
    qr = engine.submit(sql, mode="reeval")
    xq = systemx.submit(sql)
    for stream, (x1, x2) in feeds:
        engine.feed("s" if stream == "s" else "s2", columns={"x1": x1, "x2": x2})
        systemx.push_many(stream, zip(x1.tolist(), x2.tolist()))
    engine.run_until_idle()
    incr = [[tuple(r) for r in batch.rows()] for batch in qi.results()]
    reev = [[tuple(r) for r in batch.rows()] for batch in qr.results()]
    sysx = [[tuple(r) for r in rows] for rows in xq.results]
    assert len(incr) == len(reev) == len(sysx)
    for a, b in zip(incr, reev):
        assert_rows_equal(a, b, float_tol)
    for a, c in zip(incr, sysx):
        assert_rows_equal(a, c, float_tol)
    return incr


window_geometry = st.sampled_from(
    [(10, 5), (12, 3), (20, 4), (8, 8), (30, 10), (16, 2)]
)

stream_data = st.integers(30, 120).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, 2**31 - 1),
        st.integers(2, 12),  # x1 domain
        st.integers(2, 10),  # x2 domain
    )
)


def columns_from(spec):
    count, seed, domain1, domain2 = spec
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, domain1, count).astype(np.int64),
        rng.integers(0, domain2, count).astype(np.int64),
    )


common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSingleStreamEquivalence:
    @common
    @given(window_geometry, stream_data, st.integers(0, 8))
    def test_grouped_sum(self, geometry, spec, threshold):
        size, step = geometry
        x1, x2 = columns_from(spec)
        sql = (
            f"SELECT x1, sum(x2) FROM s [RANGE {size} SLIDE {step}] "
            f"WHERE x1 > {threshold} GROUP BY x1 ORDER BY x1"
        )
        windows = run_all_engines(sql, [("s", (x1, x2))])
        # also check against the Python reference
        for k, rows in enumerate(windows):
            lo, hi = k * step, k * step + size
            expected: dict[int, int] = collections.defaultdict(int)
            for a, b in zip(x1[lo:hi], x2[lo:hi]):
                if a > threshold:
                    expected[int(a)] += int(b)
            assert rows == sorted(expected.items())

    @common
    @given(window_geometry, stream_data)
    def test_global_aggregates(self, geometry, spec):
        size, step = geometry
        x1, x2 = columns_from(spec)
        sql = (
            f"SELECT min(x1), max(x1), count(*), avg(x2) "
            f"FROM s [RANGE {size} SLIDE {step}] WHERE x1 > 3"
        )
        run_all_engines(sql, [("s", (x1, x2))])

    @common
    @given(window_geometry, stream_data)
    def test_select_only(self, geometry, spec):
        size, step = geometry
        x1, x2 = columns_from(spec)
        sql = f"SELECT x1, x2 FROM s [RANGE {size} SLIDE {step}] WHERE x1 > 6"
        run_all_engines(sql, [("s", (x1, x2))])

    @common
    @given(st.integers(3, 20), stream_data)
    def test_landmark_sum(self, step, spec):
        x1, x2 = columns_from(spec)
        sql = f"SELECT sum(x2), count(*) FROM s [LANDMARK SLIDE {step}] WHERE x1 > 2"
        run_all_engines(sql, [("s", (x1, x2))])


class TestJoinEquivalence:
    @common
    @given(
        st.sampled_from([(10, 5), (20, 4), (12, 6)]),
        stream_data,
        stream_data,
        st.integers(0, 6),
    )
    def test_join_aggregates(self, geometry, left_spec, right_spec, threshold):
        size, step = geometry
        a1, a2 = columns_from(left_spec)
        b1, b2 = columns_from(right_spec)
        sql = (
            f"SELECT max(s1.x1), avg(s2.x1), count(*) "
            f"FROM s s1 [RANGE {size} SLIDE {step}], s2 [RANGE {size} SLIDE {step}] "
            f"WHERE s1.x2 = s2.x2 AND s1.x1 > {threshold}"
        )
        run_all_engines(sql, [("s", (a1, a2)), ("s2", (b1, b2))])

    @common
    @given(st.sampled_from([(10, 5), (16, 4)]), stream_data, stream_data)
    def test_join_grouped(self, geometry, left_spec, right_spec):
        size, step = geometry
        a1, a2 = columns_from(left_spec)
        b1, b2 = columns_from(right_spec)
        sql = (
            f"SELECT s1.x1, count(*), sum(s2.x1) "
            f"FROM s s1 [RANGE {size} SLIDE {step}], s2 [RANGE {size} SLIDE {step}] "
            f"WHERE s1.x2 = s2.x2 GROUP BY s1.x1 ORDER BY s1.x1"
        )
        run_all_engines(sql, [("s", (a1, a2)), ("s2", (b1, b2))])


class TestChunkedEquivalence:
    @common
    @given(
        st.sampled_from([(12, 6), (20, 10), (16, 8)]),
        stream_data,
        st.integers(1, 10),
    )
    def test_chunked_stepping_equals_plain(self, geometry, spec, m):
        size, step = geometry
        x1, x2 = columns_from(spec)
        sql = (
            f"SELECT x1, sum(x2) FROM s [RANGE {size} SLIDE {step}] "
            f"GROUP BY x1 ORDER BY x1"
        )
        # Two engines: the same query on one would share one factory,
        # and each factory is stepped by hand here.
        engine, __ = make_engines()
        other, __ = make_engines()
        q_plain = engine.submit(sql)
        q_chunk = other.submit(sql)
        engine.feed("s", columns={"x1": x1, "x2": x2})
        other.feed("s", columns={"x1": x1, "x2": x2})
        plain, chunked = [], []
        while q_plain.factory.ready():
            plain.append(q_plain.factory.step().rows())
        while q_chunk.factory.ready():
            chunked.append(q_chunk.factory.step_chunked(m).rows())
        assert plain == chunked
