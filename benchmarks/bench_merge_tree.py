"""Hierarchical merge tree — the n × K crossover sweep behind the two
module constants of ``repro.core.partials`` (DESIGN.md §17).

Q1 (grouped sum, selectivity 0.8) over a count-based sliding window with
a fixed 400-tuple step, so the per-slide fragment work is constant and
only the merge side varies with ``n = |W|/|w|``.  For every ``n`` the
same slides run through

* a store forced flat (the paper's Algorithm 2: pack all ``n`` partials
  every slide), and
* the merge tree at fan-out ``K`` ∈ {2, 4, 8, 16}

and the table reports the mean wall time of one slide (feed + firing) in
steady state — a mean, not a median, so the amortized cost of sealing
nodes is in it.  A second table fixes ``K`` and varies the sealing rule
("seal a level only while one node spans at most ``1/d`` of the
window").  Every configuration's emitted windows are compared with the
flat run's, row for row.

Runs standalone (``python benchmarks/bench_merge_tree.py [--smoke]``) or
under pytest like the other figure benchmarks; the committed full-scale
numbers live in benchmarks/results/merge_tree_sweep.txt.
"""

import sys
import time

import numpy as np

from repro import DataCellEngine
from repro.bench import report
from repro.core import partials

STEP = 400
SLIDES = 400
REPEATS = 3
COUNTS = [8, 16, 32, 64, 128, 256, 512, 1024, 2048]
FANOUTS = [2, 4, 8, 16]
DIVISORS = [1, 2, 4, 8]
DIVISOR_COUNTS = [32, 64, 128, 512, 2048]

SMOKE_COUNTS = [16, 64, 128]
SMOKE_SLIDES = 40


def _sql(n):
    return (
        f"SELECT x1, sum(x2) FROM s [RANGE {n * STEP} SLIDE {STEP}] "
        "WHERE x1 > 19 GROUP BY x1"
    )


def _run(n, slides, data, fanout=None, divisor=None):
    """Mean seconds per steady-state slide, plus the emitted rows.

    ``fanout=None`` forces the store flat; otherwise the module
    constants are swapped for the duration of the run.
    """
    saved = partials.MERGE_FANOUT, partials.MERGE_SPAN_DIVISOR
    if fanout is not None:
        partials.MERGE_FANOUT = fanout
        partials.MERGE_SPAN_DIVISOR = divisor
    engine = DataCellEngine(observability=False)
    try:
        engine.create_stream("s", [("x1", "int"), ("x2", "int")])
        query = engine.submit(_sql(n))
        if fanout is None:
            query.factory._store.levels = 0
        fill = n * STEP
        engine.feed("s", columns={k: v[:fill] for k, v in data.items()})
        engine.run_until_idle()
        start = time.perf_counter()
        for slide in range(slides):
            lo = fill + slide * STEP
            engine.feed("s", columns={k: v[lo : lo + STEP] for k, v in data.items()})
            engine.run_until_idle()
        elapsed = time.perf_counter() - start
        return elapsed / slides, query.result_rows()
    finally:
        engine.close()
        partials.MERGE_FANOUT, partials.MERGE_SPAN_DIVISOR = saved


def _best(n, slides, data, repeats, fanout=None, divisor=None, expect=None):
    """Fastest of ``repeats`` runs; rows checked against ``expect``."""
    best = float("inf")
    for __ in range(repeats):
        seconds, rows = _run(n, slides, data, fanout, divisor)
        assert expect is None or rows == expect, (
            f"n={n} K={fanout} d={divisor}: rows differ from the flat run"
        )
        best = min(best, seconds)
    return best, rows


def run(smoke=False):
    counts = SMOKE_COUNTS if smoke else COUNTS
    slides = SMOKE_SLIDES if smoke else SLIDES
    repeats = 1 if smoke else REPEATS
    rng = np.random.default_rng(17)
    total = (max(counts + DIVISOR_COUNTS) + slides) * STEP
    data = {
        "x1": rng.integers(0, 100, total, dtype=np.int64),
        "x2": rng.integers(0, 1000, total, dtype=np.int64),
    }

    fanout_rows = []
    for n in counts:
        flat, flat_rows = _best(n, slides, data, repeats)
        row = [n, flat * 1e3]
        for fanout in FANOUTS:
            best, __ = _best(n, slides, data, repeats, fanout, 4, flat_rows)
            row.append(best * 1e3)
        fanout_rows.append(tuple(row))

    divisor_rows = []
    for n in [c for c in DIVISOR_COUNTS if c <= max(counts)]:
        __, flat_rows = _run(n, slides, data)
        row = [n]
        for divisor in DIVISORS:
            best, __ = _best(n, slides, data, repeats, 8, divisor, flat_rows)
            row.append(best * 1e3)
        divisor_rows.append(tuple(row))

    if smoke:
        for row in fanout_rows:
            print("smoke: n=%d flat=%.3fms " % row[:2] + " ".join(
                f"K{k}={ms:.3f}ms" for k, ms in zip(FANOUTS, row[2:])
            ))
        print("smoke: every configuration emitted the flat run's rows")
        return True
    report(
        "merge_tree_sweep",
        f"Merge tree — ms per slide, Q1 step {STEP}, {slides} slides, "
        f"best of {repeats} (sealing rule K^l <= n/4)",
        ["n", "flat"] + [f"K={k}" for k in FANOUTS],
        fanout_rows,
    )
    report(
        "merge_tree_sealing",
        "Merge tree — ms per slide at K=8 by sealing rule K^l <= n/d",
        ["n"] + [f"d={d}" for d in DIVISORS],
        divisor_rows,
    )
    return True


def test_merge_tree_sweep():
    run(smoke=False)


if __name__ == "__main__":
    raise SystemExit(0 if run(smoke="--smoke" in sys.argv[1:]) else 1)
