#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py``: is B no worse than A?

    python perf/compare.py A/results.json B/results.json

One row per workload x end-to-end metric: both medians, the ratio B/A,
the bound BENCHMARK.json fixes for the metric, and a verdict:

* ``agree``       B is not worse than A by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread of either side (distance between
  the quartiles of its runs, as a share of their median) is wider than
  the bound, so neither of the above can be said.  Needs ``--repeat``
  runs in the files; a single run has no spread and is never unresolved.

Exits 1 on any ``worse`` row, or when B failed a larger share of its
operations than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median; None for a single run."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, ratio B/A of the medians)."""
    base, other = statistics.median(a), statistics.median(b)
    ratio = other / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", ratio
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ("worse" if worsening > bound else "agree"), ratio


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], bool]:
    """(table rows, any regression)."""
    rows = []
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = wa["end_to_end"][name]["values"]
            vb = wb["end_to_end"][name]["values"]
            outcome, ratio = verdict(va, vb, metric["better"], metric["bound"])
            regressed |= outcome == "worse"
            rows.append(
                (
                    workload,
                    name,
                    statistics.median(va),
                    statistics.median(vb),
                    ratio,
                    metric["bound"],
                    outcome,
                )
            )
        frac_a = wa["failed"] / wa["attempted"]
        frac_b = wb["failed"] / wb["attempted"]
        outcome = "worse" if frac_b > frac_a else "agree"
        regressed |= outcome == "worse"
        rows.append((workload, "failed_frac", frac_a, frac_b, float("nan"), 0.0, outcome))
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as first, open(argv[1]) as second:
        a, b = json.load(first), json.load(second)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows, regressed = compare(a, b, spec)
    print(f"base A = {argv[0]}   B = {argv[1]}   ratio = B/A")
    print(f"{'workload':<16} {'metric':<18} {'A':>13} {'B':>13} {'B/A':>7} {'bound':>6}  verdict")
    for workload, name, va, vb, ratio, bound, outcome in rows:
        print(
            f"{workload:<16} {name:<18} {va:>13.6g} {vb:>13.6g} {ratio:>7.3f} {bound:>6.2f}  {outcome}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
