"""How ``data/`` and ``expected.json`` here were written.

A durable engine from before streams had one basket each: every query
kept its own basket (checkpointed as a per-query ``"baskets"`` image) and
receptors appended to one query's basket (journaled as a ``basket``
record).  This script only runs against such an engine — it uses the old
``receptor(query, alias)`` call — and is kept to document the fixture.
``tests/test_stream_basket.py`` restores a copy of ``data/`` and checks
that every window in ``expected.json`` comes back.

Usage: python generate.py OUT_DIR
"""

import json
import os
import sys

import numpy as np

from repro import DataCellEngine

QUERIES = {
    "qa": "SELECT x1, sum(x2) AS t FROM s [RANGE 8 SLIDE 4] GROUP BY x1 ORDER BY x1",
    "qb": "SELECT count(*) AS n, sum(x2) AS t FROM s [RANGE 10 SLIDE 5]",
    "qc": "SELECT max(y) AS m, count(*) AS n FROM t [RANGE 6 SLIDE 3]",
}


def rows(start, count):
    return [(i % 3, i) for i in range(start, start + count)]


def main(out_dir: str) -> None:
    data_dir = os.path.join(out_dir, "data")
    engine = DataCellEngine(data_dir=data_dir)
    engine.create_stream("s", [("x1", "int"), ("x2", "int")])
    engine.create_stream("t", [("y", "int")])
    handles = {name: engine.submit(sql, name=name) for name, sql in QUERIES.items()}
    engine.feed("s", rows=rows(0, 12))
    engine.feed("t", rows=[(i,) for i in range(5)])
    engine.run_until_idle()
    # A receptor batch lands in qa's basket only: qa drains it, qb never sees it.
    engine.receptor(handles["qa"], "s").push_rows(rows(100, 4))
    engine.run_until_idle()
    engine.checkpoint()
    # After the checkpoint: a receptor batch journaled as a `basket` record
    # on t's only query, then ordinary feeds on both streams.
    engine.receptor(handles["qc"], "t").push_rows([(50 + i,) for i in range(4)])
    engine.feed("s", rows=rows(12, 13))
    engine.feed("t", columns={"y": np.arange(9, 15)})
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
