"""Sensor observatory — time-based windows, receptor threads, adaptation.

Models the paper's scientific-instrument motivation (LSST/LHC style): an
instrument emits timestamped readings at a variable rate; time-based
sliding windows aggregate them, and the m-chunk controller adapts the
incremental plan's processing granularity to the observed response times.

Demonstrates: time-based windows (including empty slices), explicit
arrival timestamps, threaded receptors with the background scheduler, and
the AdaptiveChunker on a count-based monitoring query.

Run:  python examples/sensor_observatory.py
"""

import time

import numpy as np

from repro import AdaptiveChunker, DataCellEngine

US = 1_000_000


def main() -> None:
    engine = DataCellEngine()
    engine.create_stream("photons", [("ccd", "int"), ("flux", "int")])

    # Time-based query: per 40-second window sliding every 10 seconds,
    # the per-CCD mean flux of bright events.
    skymap = engine.submit(
        "SELECT ccd, avg(flux), count(*) "
        "FROM photons [RANGE 40 SECONDS SLIDE 10 SECONDS] "
        "WHERE flux > 700 GROUP BY ccd ORDER BY ccd",
        name="skymap",
    )

    # Simulate 5 minutes of arrivals with a quiet gap in the middle —
    # the empty basic windows are recognized and skipped (paper §3).
    rng = np.random.default_rng(3)
    timestamps = []
    clock = 0
    for second in range(300):
        if 120 <= second < 170:
            continue  # cloud cover: no photons at all
        for __ in range(int(rng.integers(5, 30))):
            timestamps.append(second * US + int(rng.integers(0, US)))
    timestamps.sort()
    count = len(timestamps)
    engine.feed(
        "photons",
        columns={
            "ccd": rng.integers(0, 6, count),
            "flux": rng.integers(0, 1000, count),
        },
        timestamps=np.asarray(timestamps, dtype=np.int64),
    )
    engine.run_until_idle()

    print(f"== skymap: {len(skymap.results())} time windows ==")
    for batch in skymap.results():
        marker = " (empty window)" if len(batch) == 0 else ""
        print(f"  window {batch.window_index:2d}: {len(batch):3d} CCD rows{marker}")

    # ------------------------------------------------------------------
    # Adaptive chunking on a high-rate monitoring query.
    # ------------------------------------------------------------------
    engine2 = DataCellEngine()
    engine2.create_stream("photons", [("ccd", "int"), ("flux", "int")])
    monitor = engine2.submit(
        "SELECT ccd, max(flux) FROM photons [RANGE 65536 SLIDE 8192] "
        "GROUP BY ccd ORDER BY ccd",
        name="monitor",
    )
    chunker = AdaptiveChunker(steps_per_level=4, max_m=512)
    factory = monitor.factory
    fed = 0
    window, step = 65_536, 8_192
    for index in range(40):
        take = window if index == 0 else step
        engine2.feed(
            "photons",
            columns={
                "ccd": rng.integers(0, 6, take),
                "flux": rng.integers(0, 1000, take),
            },
        )
        fed += take
        batch = factory.step_chunked(chunker.current_m)
        chunker.observe(batch.response_seconds)
    print("\n== adaptive chunking on the monitor query ==")
    for m, mean in chunker.history:
        print(f"  m = {m:4d}: mean response {mean * 1000:7.3f} ms")
    print(f"  controller settled on m = {chunker.current_m}"
          f" ({'frozen' if chunker.frozen else 'still exploring'})")

    # ------------------------------------------------------------------
    # Threaded ingestion: receptor thread + background scheduler.
    # ------------------------------------------------------------------
    engine3 = DataCellEngine()
    engine3.create_stream("photons", [("ccd", "int"), ("flux", "int")])
    live = engine3.submit(
        "SELECT count(*) FROM photons [RANGE 2048 SLIDE 1024]", name="live"
    )
    receptor = engine3.receptor("photons")
    engine3.start()
    try:
        receptor.start(iter([(int(i % 6), int(i % 1000)) for i in range(10_240)]))
        receptor.join(timeout=10.0)
        deadline = time.time() + 10.0
        while time.time() < deadline and len(live.results()) < 9:
            time.sleep(0.01)
    finally:
        engine3.stop()
    print(f"\n== threaded ingest: {len(live.results())} windows, "
          f"all of size {live.last().rows()[0][0]} ==")


if __name__ == "__main__":
    main()
