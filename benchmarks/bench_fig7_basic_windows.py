"""Figure 7 — decreasing step size (increasing number of basic windows),
with the cost breakdown into main-plan work and merge work.

(a) Q1, |W| = 102400 fixed, n ∈ {2 .. 2048}.  Paper: response time falls
    quickly as n grows, stabilizes, then rises slightly at very large n
    (per-call administration); the breakdown is dominated by the *main
    plan* cost, merging is negligible.  The paper's merge re-packs all n
    partials per slide ("flat merge" column: Algorithm 2, measured with
    the factory's running table and merge tree switched off).  Q1's
    grouped INT sum is invertible (DESIGN.md §17): the engine adds the
    new partial and subtracts the expired one, so its merge column does
    not grow with n.
(b) Q2, |W| = 102400 fixed, n ∈ {2 .. 64}.  Paper: same falling trend,
    but the breakdown flips — *merge* cost dominates once the per-pair
    query processing becomes small (the intermediates are big).

The breakdown is measured by the interpreter profiler (``main`` vs
``merge`` instruction tags), not modelled.

Runs under pytest like the other figure benchmarks, or standalone as
``python benchmarks/bench_fig7_basic_windows.py --smoke``: a few ``n``
per half at a small window, each point's windows compared row for row
with a re-evaluation (DataCellR) run of the same feed.
"""

import sys

import pytest

from repro.bench import drive_join, drive_single, report
from repro.workloads import join_streams, selection_stream

from conftest import fresh_engine, q1_sql, q2_sql

WINDOWS = 5
#: Q1 slides per run: 16 measured ones, so the merge column carries the
#: amortized cost of sealing tree nodes (one level-1 node every 8 slides).
Q1_WINDOWS = 17

Q1_WINDOW = 102_400
Q1_COUNTS = [2, 8, 32, 128, 512, 2048]

Q2_WINDOW = 102_400
Q2_COUNTS = [2, 4, 8, 16, 32, 64]
Q2_JOIN_SELECTIVITY = 3e-4

SMOKE_WINDOW = 12_800
SMOKE_COUNTS = [2, 8, 32]


def _q1_run(basic_windows, flat=False, window=Q1_WINDOW, mode="incremental"):
    step = window // basic_windows
    workload = selection_stream(
        window + Q1_WINDOWS * step, selectivity=0.2, seed=70, domain=100
    )
    engine = fresh_engine()
    query = engine.submit(q1_sql(window, step, workload.threshold), mode=mode)
    if flat:  # Algorithm 2: pack every partial, no running table or tree node
        query.factory._invertible = False
        query.factory._stores["stream"].levels = 0
    return drive_single(
        engine, query, "stream", workload.columns(), window, step, Q1_WINDOWS
    )


def _q2_run(basic_windows, window=Q2_WINDOW, mode="incremental"):
    step = window // basic_windows
    workload = join_streams(window + WINDOWS * step, Q2_JOIN_SELECTIVITY, seed=71)
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
        WINDOWS,
    )


def _breakdown(timings):
    """Mean (total, main plan, merge) seconds past the first window."""
    return (
        timings.mean_response(skip_first=1),
        timings.tag_mean("main", skip_first=1),
        timings.tag_mean("merge", skip_first=1),
    )


def smoke():
    """Every smoke point's windows equal re-evaluation's, row for row."""
    for label, run in (("Q1", _q1_run), ("Q2", _q2_run)):
        for n in SMOKE_COUNTS:
            timings = run(n, window=SMOKE_WINDOW)
            reference = run(n, window=SMOKE_WINDOW, mode="reeval")
            rows = [batch.rows() for batch in timings.batches]
            if rows != [batch.rows() for batch in reference.batches]:
                print(f"smoke: {label} n={n}: windows differ from re-evaluation")
                return False
            total, main, merge = _breakdown(timings)
            print(
                f"smoke: {label} n={n} total={total * 1e3:.3f}ms "
                f"main={main * 1e3:.3f}ms merge={merge * 1e3:.3f}ms, "
                f"{len(rows)} windows equal to re-evaluation"
            )
    return True


class TestFig7a:
    def test_fig7a_single_stream_breakdown(self, benchmark):
        reev_baseline = None
        rows = []
        for n in Q1_COUNTS:
            total, main, merge = _breakdown(_q1_run(n))
            __, __, flat_merge = _breakdown(_q1_run(n, flat=True))
            rows.append((n, total, main, merge, flat_merge))
        # one DataCellR point for context (n-independent)
        step = Q1_WINDOW // 512
        workload = selection_stream(
            Q1_WINDOW + Q1_WINDOWS * step, 0.2, seed=72, domain=100
        )
        engine = fresh_engine()
        query = engine.submit(
            q1_sql(Q1_WINDOW, step, workload.threshold), mode="reeval"
        )
        reev = drive_single(
            engine, query, "stream", workload.columns(), Q1_WINDOW, step, Q1_WINDOWS
        )
        reev_baseline = reev.mean_response(skip_first=1)
        report(
            "fig7a",
            f"Figure 7(a) — Q1 vs #basic windows "
            f"(DataCellR total: {reev_baseline:.4f}s)",
            ["n", "DataCell total", "main plan", "merge", "flat merge"],
            rows,
        )
        # the flat merge grows with n; the running table's does not
        assert rows[-1][4] > 4 * rows[2][4], rows
        assert rows[-1][3] < rows[-1][4] / 2, rows
        # falling trend from tiny n to the sweet spot
        assert rows[2][1] < rows[0][1], rows
        # with few basic windows the main-plan cost dominates merging
        assert rows[0][2] > rows[0][3], rows
        benchmark.pedantic(lambda: _q1_run(512), rounds=3, iterations=1)


class TestFig7b:
    def test_fig7b_join_breakdown(self, benchmark):
        rows = []
        for n in Q2_COUNTS:
            rows.append((n, *_breakdown(_q2_run(n))))
        report(
            "fig7b",
            "Figure 7(b) — Q2 vs #basic windows",
            ["n", "DataCell total", "main plan", "merge"],
            rows,
        )
        # falling trend as the step shrinks
        assert rows[-1][1] < rows[0][1] * 1.5, rows
        # paper: for the join the merge cost eventually dominates the
        # (shrinking) per-pair query processing cost — check the trend that
        # merge's share grows from small n to large n
        share_small = rows[0][3] / max(rows[0][1], 1e-12)
        share_large = rows[-1][3] / max(rows[-1][1], 1e-12)
        assert share_large > share_small, rows
        benchmark.pedantic(lambda: _q2_run(16), rounds=2, iterations=1)


if __name__ == "__main__":
    if sys.argv[1:] != ["--smoke"]:
        raise SystemExit("usage: bench_fig7_basic_windows.py --smoke (or run under pytest)")
    raise SystemExit(0 if smoke() else 1)
