"""How ``data/`` and ``expected.json`` here were written.

A durable engine from before batched joins — one pair-fragment run per
new (left, right) basic-window pair — ran five join queries, checkpointed
with basic windows half-consumed and pair bundles live, and journaled
feeds after the checkpoint.  ``tests/test_factory_join.py`` restores a
copy of ``data/`` with the current engine and checks that every window in
``expected.json`` comes back: pair bundles in the snapshot and pairs
built after the restore by the batched join must merge to the same
windows.  The values are integers, so every window compares exactly.

Usage: python generate.py OUT_DIR
"""

import json
import os
import sys

import numpy as np

from repro import DataCellEngine

QUERIES = {
    "qa": (
        "SELECT count(*) AS n, max(a.v) AS m, sum(b.v) AS t, avg(b.v) AS av "
        "FROM s a [RANGE 20 SLIDE 5], t b [RANGE 20 SLIDE 5] WHERE a.k = b.k"
    ),
    "qb": (
        "SELECT a.g, count(*) AS n, min(b.v) AS lo FROM s a [RANGE 15 SLIDE 5], "
        "t b [RANGE 10 SLIDE 5] WHERE a.k = b.k GROUP BY a.g ORDER BY a.g"
    ),
    "qc": (
        "SELECT a.v, b.v FROM s a [RANGE 10 SLIDE 5], t b [RANGE 10 SLIDE 5] "
        "WHERE a.k = b.k AND a.v > b.v"
    ),
    "qd": (
        "SELECT a.k, sum(d.w) AS w FROM s a [RANGE 10 SLIDE 5], d "
        "WHERE a.k = d.k GROUP BY a.k ORDER BY a.k"
    ),
    "qe": (
        "SELECT count(*) AS n, min(b.v) AS lo FROM s a [LANDMARK SLIDE 5], "
        "t b [RANGE 10 SLIDE 5] WHERE a.k = b.k"
    ),
}


def columns(rng, count):
    return {
        "k": rng.integers(0, 6, count),
        "g": rng.integers(0, 3, count),
        "v": rng.integers(0, 100, count),
    }


def main(out_dir: str) -> None:
    rng = np.random.default_rng(22)
    data_dir = os.path.join(out_dir, "data")
    engine = DataCellEngine(data_dir=data_dir)
    for stream in ("s", "t"):
        engine.create_stream(stream, [("k", "int"), ("g", "int"), ("v", "int")])
    table = engine.create_table("d", [("k", "int"), ("w", "int")])
    table.append_rows([(k, 10 * k + 1) for k in range(0, 6, 2)])
    handles = {name: engine.submit(sql, name=name) for name, sql in QUERIES.items()}
    # Up to the checkpoint: several slides fired on every query, and both
    # baskets hold part of the next basic window.
    engine.feed("s", columns=columns(rng, 27))
    engine.feed("t", columns=columns(rng, 23))
    engine.run_until_idle()
    engine.checkpoint()
    # After it: journaled feeds the restore replays through the new join.
    for count in (8, 11, 14):
        engine.feed("s", columns=columns(rng, count))
        engine.feed("t", columns=columns(rng, count + 2))
        engine.run_until_idle()
    expected = {
        name: [[list(row) for row in window] for window in handle.result_rows()]
        for name, handle in handles.items()
    }
    engine.close()
    with open(os.path.join(out_dir, "expected.json"), "w") as fh:
        json.dump({"queries": QUERIES, "windows": expected}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
