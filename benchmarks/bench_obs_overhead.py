"""Observability overhead — tracing must cost < 5 % on the fig4 workload.

Drives the Figure 4(a) Q1 micro-workload through the *scheduler* path
(``feed`` + ``run_until_idle``, where spans, histograms and the
per-firing opcode fold actually sit) twice per round — once with ``observability=False``
and once with the default-on tracing — in alternating order, and compares
the medians.  The acceptance bound is 5 %: tracing is default-on, so its
cost has to be invisible next to the per-firing kernel work.

Runs standalone (``python benchmarks/bench_obs_overhead.py [--smoke]``)
or under pytest like the other figure benchmarks.  ``--smoke`` shrinks
the workload and relaxes the bound — it checks the harness end-to-end on
CI, not the committed number (benchmarks/results/obs_overhead.txt).
"""

import statistics
import sys
import time

from repro import DataCellEngine
from repro.bench import report
from repro.workloads import selection_stream

WINDOW, BASIC_WINDOWS = 204_800, 512
STEP = WINDOW // BASIC_WINDOWS
WINDOWS = 20
ROUNDS = 5
BOUND = 1.05

SMOKE_SCALE = 16     # WINDOW/STEP ÷ 16, 2 rounds
SMOKE_BOUND = 1.50   # noise floor dominates at smoke scale


def drive(columns, window, step, windows, observability):
    """One timed run: initial window + ``windows`` slides via the scheduler."""
    engine = DataCellEngine(observability=observability)
    engine.create_stream("stream", [("x1", "int"), ("x2", "int")])
    engine.submit(
        f"SELECT x1, sum(x2) FROM stream [RANGE {window} SLIDE {step}] "
        f"WHERE x1 > 50 GROUP BY x1"
    )
    offsets = [window + k * step for k in range(windows + 1)]
    start = time.perf_counter()
    fed = 0
    for end in offsets:
        engine.feed(
            "stream", columns={name: col[fed:end] for name, col in columns.items()}
        )
        fed = end
        engine.run_until_idle()
    return time.perf_counter() - start


def measure(window, step, windows, rounds):
    workload = selection_stream(
        window + (windows + 1) * step, selectivity=0.5, seed=13, domain=100
    )
    columns = workload.columns()
    drive(columns, window, step, windows, observability=False)  # warm-up
    off, on = [], []
    for __ in range(rounds):
        off.append(drive(columns, window, step, windows, observability=False))
        on.append(drive(columns, window, step, windows, observability=True))
    return statistics.median(off), statistics.median(on)


def run(smoke=False):
    if smoke:
        window, step, windows, rounds, bound = (
            WINDOW // SMOKE_SCALE, STEP // SMOKE_SCALE, 5, 2, SMOKE_BOUND
        )
    else:
        window, step, windows, rounds, bound = WINDOW, STEP, WINDOWS, ROUNDS, BOUND
    base, traced = measure(window, step, windows, rounds)
    ratio = traced / base
    rows = [
        ("observability off", base, 1.0),
        ("observability on", traced, ratio),
    ]
    if not smoke:
        report(
            "obs_overhead",
            f"Observability overhead — fig4 Q1 ({windows} windows, "
            f"median of {rounds})",
            ["configuration", "seconds", "ratio"],
            rows,
        )
    else:
        print(f"smoke: off={base:.4f}s on={traced:.4f}s ratio={ratio:.4f}")
    assert ratio < bound, (
        f"tracing overhead {100 * (ratio - 1):.1f}% exceeds the "
        f"{100 * (bound - 1):.0f}% bound (off={base:.4f}s on={traced:.4f}s)"
    )
    return ratio


def test_obs_overhead_under_bound():
    run(smoke=False)


if __name__ == "__main__":
    raise SystemExit(0 if run(smoke="--smoke" in sys.argv[1:]) else 1)
