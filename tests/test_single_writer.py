"""Threaded hammer for the single-writer engine.

Everything the firing thread writes (profilers, spans, histograms, the
fragment cache) is lock-free; readers copy it at a scan boundary.  This
test runs a durable engine with every kind of thread at once — four
producers on two streams (one ``Block``-bounded), the background firing
loop, two ``metrics()`` readers and a checkpointer — under ``-X dev``
with a short switch interval, and asserts that no snapshot tears: the
firing count agrees across ``counters``, ``factories`` and ``spans``,
histogram exports keep ``+Inf == count``, and every lock edge observed
goes down ``LOCK_ORDER`` (tests/test_lock_order.py).

The hammer runs in a child interpreter (``python -X dev <this file>``)
so development mode covers the whole engine lifetime.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

PRODUCERS = 4
BATCHES = 120
ROWS = 16


def _check(metrics, engine, torn):
    firings = metrics["counters"]["firings"]
    per_factory = sum(f["firings"] for f in metrics["factories"].values())
    spans = metrics["spans"]["total"]
    if not firings == per_factory == spans:
        torn.append(f"firings {firings} / factories {per_factory} / spans {spans}")
    for name in ("latency", "firing_duration"):
        snap = metrics[name]
        if snap["count"] and not (
            snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        ):
            torn.append(f"{name} quantiles outside min/max: {snap}")
        buckets, __, count = getattr(engine.obs, name).export()
        if buckets[-1][1] != count:
            torn.append(f"{name} export: +Inf {buckets[-1][1]} != count {count}")


def hammer() -> None:
    from repro import DataCellEngine
    from repro.core.overflow import Block
    from test_lock_order import LOCK_ORDER, instrument

    tmp = tempfile.mkdtemp(prefix="repro-hammer-")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    engine = DataCellEngine(data_dir=os.path.join(tmp, "data"))
    try:
        engine.create_stream("a", [("k", "int"), ("v", "int")])
        engine.create_stream(
            "b", [("k", "int"), ("v", "int")], capacity=128, overflow=Block(timeout=30.0)
        )
        engine.submit("SELECT k, sum(v) FROM a [RANGE 64 SLIDE 16] GROUP BY k")
        engine.submit("SELECT k, sum(v) FROM a [RANGE 128 SLIDE 16] GROUP BY k")
        engine.submit("SELECT count(*) AS n FROM b [RANGE 32 SLIDE 8]")
        engine.submit("SELECT k, max(v) FROM b [RANGE 64 SLIDE 16] GROUP BY k")
        edges = instrument(engine)
        torn: list[str] = []
        errors: list[BaseException] = []
        done = threading.Event()

        def guarded(body):
            def run():
                try:
                    body()
                except BaseException as exc:  # reported by the main thread
                    errors.append(exc)
            return run

        def producer(stream, seed):
            rng = np.random.default_rng(seed)
            for __ in range(BATCHES):
                engine.feed(
                    stream,
                    columns={"k": rng.integers(0, 5, ROWS), "v": rng.integers(0, 99, ROWS)},
                )

        def reader():
            while not done.is_set():
                _check(engine.metrics(), engine, torn)

        def checkpointer():
            while not done.is_set():
                engine.checkpoint()
                time.sleep(0.01)

        engine.start(poll_interval=0.0005)
        producers = [
            threading.Thread(target=guarded(lambda i=i: producer("ab"[i % 2], i)))
            for i in range(PRODUCERS)
        ]
        others = [threading.Thread(target=guarded(reader)) for __ in range(2)]
        others.append(threading.Thread(target=guarded(checkpointer)))
        for thread in producers + others:
            thread.start()
        for thread in producers:
            thread.join(timeout=120)
        done.set()
        for thread in others:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in producers + others), "hammer thread hung"
        engine.stop(drain=True)
        if errors:
            raise errors[0]
        final = engine.metrics()
        _check(final, engine, torn)
        assert not torn, torn[:5]
        assert final["counters"]["firings"] > 0
        assert final["counters"]["checkpoints"] > 0
        rank = {node: i for i, node in enumerate(LOCK_ORDER)}
        assert {node for edge in edges for node in edge} <= set(rank), edges
        assert all(rank[held] < rank[taken] for held, taken in edges), sorted(edges)
        assert ("DurabilityManager.lock", "Basket._lock") in edges
    finally:
        sys.setswitchinterval(interval)
        engine.close()
        shutil.rmtree(tmp, ignore_errors=True)


@pytest.mark.concurrency
def test_metrics_never_tear_under_the_threaded_hammer():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONDEVMODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", __file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr


if __name__ == "__main__":
    hammer()
