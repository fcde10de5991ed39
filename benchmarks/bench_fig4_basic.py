"""Figure 4 — basic performance: response time per window, DataCell vs
DataCellR, for the single-stream Q1 and the multi-stream Q2.

Paper parameters (Q1 scaled ÷50, Q2 at paper scale; ratios preserved):
  Q1: |W| = 1.024e7 → 204800 tuples, 512 basic windows, selectivity 20 %
  Q2: |W| = 1.024e5 = 102400 tuples, 64 basic windows, join sel. 1e-4

Expected shape (paper): window 1 roughly equal (both process |W|);
windows 2+ DataCell flat and much lower than DataCellR.
"""

import pytest

from repro.bench import drive_join, drive_single, report
from repro.workloads import join_streams, selection_stream

from conftest import fresh_engine, q1_sql, q2_sql

WINDOWS = 20

Q1_WINDOW, Q1_BW = 204_800, 512
Q1_STEP = Q1_WINDOW // Q1_BW

Q2_WINDOW, Q2_BW = 102_400, 64
Q2_STEP = Q2_WINDOW // Q2_BW


def _q1_timings(mode):
    workload = selection_stream(
        Q1_WINDOW + WINDOWS * Q1_STEP, selectivity=0.2, seed=4, domain=100
    )
    engine = fresh_engine()
    query = engine.submit(q1_sql(Q1_WINDOW, Q1_STEP, workload.threshold), mode=mode)
    return drive_single(
        engine, query, "stream", workload.columns(), Q1_WINDOW, Q1_STEP, WINDOWS
    )


def _q2_timings(mode):
    workload = join_streams(
        Q2_WINDOW + WINDOWS * Q2_STEP, join_selectivity=1e-4, seed=5
    )
    engine = fresh_engine()
    query = engine.submit(q2_sql(Q2_WINDOW, Q2_STEP), mode=mode)
    return drive_join(
        engine,
        query,
        "stream1",
        workload.left_columns(),
        "stream2",
        workload.right_columns(),
        Q2_WINDOW,
        Q2_STEP,
        WINDOWS,
    )


class TestFig4a:
    def test_fig4a_single_stream(self, benchmark):
        incremental = _q1_timings("incremental")
        reevaluation = _q1_timings("reeval")
        rows = [
            (k + 1, reevaluation.response_seconds[k], incremental.response_seconds[k])
            for k in range(WINDOWS)
        ]
        report(
            "fig4a",
            "Figure 4(a) — Q1 response time per window (seconds)",
            ["window", "DataCellR", "DataCell"],
            rows,
        )
        # paper shape: steady-state incremental beats re-evaluation clearly
        incr_steady = incremental.mean_response(skip_first=1)
        reev_steady = reevaluation.mean_response(skip_first=1)
        assert incr_steady < reev_steady / 2, (incr_steady, reev_steady)
        # benchmark one steady-state incremental slide
        engine = fresh_engine()
        workload = selection_stream(
            Q1_WINDOW + 200 * Q1_STEP, selectivity=0.2, seed=6, domain=100
        )
        query = engine.submit(q1_sql(Q1_WINDOW, Q1_STEP, workload.threshold))
        engine.feed("stream", columns=workload.columns())
        query.factory.step()
        state = {"offset": 0}

        def one_slide():
            query.factory.step()

        benchmark.pedantic(one_slide, rounds=10, iterations=1)


class TestFig4b:
    def test_fig4b_multi_stream(self, benchmark):
        incremental = _q2_timings("incremental")
        reevaluation = _q2_timings("reeval")
        rows = [
            (k + 1, reevaluation.response_seconds[k], incremental.response_seconds[k])
            for k in range(WINDOWS)
        ]
        report(
            "fig4b",
            "Figure 4(b) — Q2 (join) response time per window (seconds)",
            ["window", "DataCellR", "DataCell"],
            rows,
        )
        incr_steady = incremental.mean_response(skip_first=1)
        reev_steady = reevaluation.mean_response(skip_first=1)
        # Directional check: incremental wins in steady state (EXPERIMENTS.md
        # has the measured factor).
        assert incr_steady < reev_steady, (incr_steady, reev_steady)

        workload = join_streams(Q2_WINDOW + 200 * Q2_STEP, 1e-4, seed=7)
        engine = fresh_engine()
        query = engine.submit(q2_sql(Q2_WINDOW, Q2_STEP))
        engine.feed("stream1", columns=workload.left_columns())
        engine.feed("stream2", columns=workload.right_columns())
        query.factory.step()

        def one_slide():
            query.factory.step()

        benchmark.pedantic(one_slide, rounds=10, iterations=1)
