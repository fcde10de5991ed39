"""Figure 4 — basic performance: response time per window, DataCell vs
DataCellR, for the single-stream Q1 and the multi-stream Q2.

Paper parameters (Q1 scaled ÷50, Q2 at paper scale; ratios preserved):
  Q1: |W| = 1.024e7 → 204800 tuples, 512 basic windows, selectivity 20 %
  Q2: |W| = 1.024e5 = 102400 tuples, 64 basic windows, join sel. 1e-4

Expected shape (paper): window 1 roughly equal (both process |W|);
windows 2+ DataCell flat and much lower than DataCellR.

Runs under pytest like the other figure benchmarks, or standalone as
``python benchmarks/bench_fig4_basic.py --smoke``: Q1 and Q2 at a reduced
|W| that keeps many basic windows (so the first window is filled by
tagged fragment runs), every window compared row for row with a
re-evaluation (DataCellR) run of the same feed.
"""

import sys

import pytest

from repro.bench import drive_join, drive_single, report
from repro.workloads import join_streams, selection_stream

from conftest import fresh_engine, q1_sql, q2_sql

WINDOWS = 20

Q1_WINDOW, Q1_BW = 204_800, 512
Q1_STEP = Q1_WINDOW // Q1_BW

Q2_WINDOW, Q2_BW = 102_400, 64
Q2_STEP = Q2_WINDOW // Q2_BW

#: --smoke: (|W|, basic windows) per query, and windows per run
SMOKE_Q1 = (20_480, 512)
SMOKE_Q2 = (10_240, 64)
SMOKE_WINDOWS = 4


def _q1_timings(mode, window=Q1_WINDOW, basic_windows=Q1_BW, windows=WINDOWS):
    step = window // basic_windows
    workload = selection_stream(
        window + windows * step, selectivity=0.2, seed=4, domain=100
    )
    engine = fresh_engine()
    query = engine.submit(q1_sql(window, step, workload.threshold), mode=mode)
    return drive_single(
        engine, query, "stream", workload.columns(), window, step, windows
    )


def _q2_timings(mode, window=Q2_WINDOW, basic_windows=Q2_BW, windows=WINDOWS):
    step = window // basic_windows
    workload = join_streams(window + windows * step, join_selectivity=1e-4, seed=5)
    engine = fresh_engine()
    query = engine.submit(q2_sql(window, step), mode=mode)
    return drive_join(
        engine,
        query,
        "stream1",
        workload.left_columns(),
        "stream2",
        workload.right_columns(),
        window,
        step,
        windows,
    )


def smoke():
    """Every window of both smoke runs equals re-evaluation's, row for row."""
    for label, run, (window, n) in (
        ("Q1", _q1_timings, SMOKE_Q1),
        ("Q2", _q2_timings, SMOKE_Q2),
    ):
        timings = run("incremental", window, n, SMOKE_WINDOWS)
        reference = run("reeval", window, n, SMOKE_WINDOWS)
        rows = [batch.rows() for batch in timings.batches]
        if rows != [batch.rows() for batch in reference.batches]:
            print(f"smoke: {label} |W|={window} n={n}: windows differ from re-evaluation")
            return False
        print(
            f"smoke: {label} |W|={window} n={n} window 1: "
            f"DataCell={timings.response_seconds[0] * 1e3:.2f}ms "
            f"DataCellR={reference.response_seconds[0] * 1e3:.2f}ms, "
            f"{len(rows)} windows equal to re-evaluation"
        )
    return True


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
        # paper shape: window 1 costs both about the same (both process
        # |W|; DataCell fills its 512 basic windows with four tagged runs),
        # and steady-state incremental beats re-evaluation clearly.  The
        # recorded run reads 1.9x (EXPERIMENTS.md); with another process
        # on a 2-vCPU host it read up to 3.0x, hence the 4x bound.  The
        # rest of the gap is the first merge, which folds the running
        # table from all 512 partials, and cutting 512 bundles out of the
        # runs.
        first = (incremental.response_seconds[0], reevaluation.response_seconds[0])
        assert first[0] < 4 * first[1], first
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--smoke"]:
        raise SystemExit("usage: bench_fig4_basic.py --smoke (or run under pytest)")
    raise SystemExit(0 if smoke() else 1)
