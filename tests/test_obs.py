"""Tests for the observability layer (spans, histograms, metrics export).

Covers the repro.obs package in isolation (ring buffer, log-scale
histogram math) and end-to-end through the engine: ``engine.metrics()``
content, Prometheus text exposition (validated with a mini-parser), JSON
round-trip, the ``repro top`` / ``repro trace`` renderers, and the
console/CLI surfaces.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from repro.cli import Console
from repro.core.engine import DataCellEngine
from repro.core.scheduler import Scheduler
from repro.errors import ReproError
from repro.obs import FiringSpan, LogHistogram, Observability, SpanRecorder
from repro.obs.console import render_top, render_trace
from repro.obs.hist import BUCKETS, bucket_index, bucket_upper


def span(seq, factory="q1", duration=0.001, **kw):
    defaults = dict(
        factory=factory,
        seq=seq,
        wall=1_700_000_000.0 + seq,
        duration=duration,
        consumed=20,
        emitted=5,
        ready_wait=0.0001,
        tags={"main": 0.0005, "merge": 0.0003},
    )
    defaults.update(kw)
    return FiringSpan(**defaults)


def fed_engine(**engine_kw):
    """An engine with one query that has fired four times."""
    engine = DataCellEngine(**engine_kw)
    engine.create_stream("s", [("x1", "int"), ("x2", "int")])
    engine.submit(
        "SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 20] GROUP BY x1 ORDER BY x1"
    )
    rng = np.random.default_rng(7)
    engine.feed(
        "s",
        columns={"x1": rng.integers(0, 5, 100), "x2": rng.integers(0, 9, 100)},
    )
    engine.run_until_idle()
    return engine


class TestSpanRecorder:
    def test_records_in_order(self):
        ring = SpanRecorder(capacity=8)
        for seq in range(3):
            ring.record(span(seq))
        assert [s.seq for s in ring.last()] == [0, 1, 2]
        assert len(ring) == 3
        assert ring.total == 3
        assert ring.dropped == 0

    def test_bounded_evicts_oldest(self):
        ring = SpanRecorder(capacity=4)
        for seq in range(10):
            ring.record(span(seq))
        assert [s.seq for s in ring.last()] == [6, 7, 8, 9]
        assert ring.total == 10
        assert ring.dropped == 6

    def test_last_n(self):
        ring = SpanRecorder(capacity=8)
        for seq in range(5):
            ring.record(span(seq))
        assert [s.seq for s in ring.last(2)] == [3, 4]

    def test_clear(self):
        ring = SpanRecorder(capacity=4)
        ring.record(span(0))
        ring.clear()
        assert len(ring) == 0 and ring.last() == []

    def test_spans_are_frozen(self):
        record = span(0)
        with pytest.raises(AttributeError):
            record.seq = 99


class TestLogHistogram:
    def test_bucket_index_brackets_value(self):
        for seconds in (1e-6, 3e-4, 0.001, 0.7, 1.0, 2.0, 63.0):
            index = bucket_index(seconds)
            assert seconds <= bucket_upper(index)
            if index > 0:
                assert seconds > bucket_upper(index - 1)

    def test_exact_powers_of_two_land_on_their_upper_bound(self):
        # frexp(2^k) reports exponent k+1; the index must compensate so
        # that 2^k falls in the bucket whose upper bound *is* 2^k.
        for k in (-10, -3, 0, 2):
            seconds = math.ldexp(1.0, k)
            assert bucket_upper(bucket_index(seconds)) == seconds

    def test_overflow_bucket(self):
        assert bucket_index(1e9) == BUCKETS
        assert math.isinf(bucket_upper(BUCKETS))

    def test_quantiles_interpolate(self):
        hist = LogHistogram()
        for __ in range(100):
            hist.observe(0.001)
        q = hist.quantile(0.5)
        assert 0.0005 < q <= 0.00101  # clamped to the observed max
        assert hist.quantile(0.0) >= hist.min
        assert hist.quantile(1.0) <= hist.max

    def test_quantiles_order(self):
        hist = LogHistogram()
        rng = np.random.default_rng(3)
        for value in rng.lognormal(mean=-7, sigma=1.0, size=500):
            hist.observe(float(value))
        snap = hist.snapshot()
        assert snap["count"] == 500
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]

    def test_empty_snapshot(self):
        snap = LogHistogram().snapshot()
        assert snap["count"] == 0 and snap["p99"] == 0.0

    def test_cumulative_buckets_monotone(self):
        hist = LogHistogram()
        for value in (1e-6, 1e-4, 0.01, 0.5, 100.0):
            hist.observe(value)
        pairs = hist.buckets()
        assert len(pairs) == BUCKETS + 1
        counts = [count for __, count in pairs]
        assert counts == sorted(counts)
        assert counts[-1] == hist.count  # +Inf bucket sees everything
        assert math.isinf(pairs[-1][0])

    def test_merge_from(self):
        a, b = LogHistogram(), LogHistogram()
        a.observe(0.001)
        b.observe(0.1)
        a.merge_from(b)
        assert a.count == 2 and a.max == 0.1


class TestEngineMetrics:
    def test_dict_snapshot_content(self):
        engine = fed_engine()
        metrics = engine.metrics()
        assert metrics["counters"]["firings"] == 4
        assert metrics["counters"]["tuples_consumed"] == 100
        assert metrics["counters"]["rows_emitted"] > 0
        assert metrics["counters"]["overflow_block_waits"] == 0
        assert metrics["counters"]["worker_errors"] == 0
        assert metrics["factories"]["q1"]["firings"] == 4
        assert metrics["streams"]["s"]["baskets"] == 1
        assert "hit_rate" in metrics["fragment_cache"]
        # ingest→emit latency quantiles are present and ordered
        latency = metrics["latency"]
        assert latency["count"] >= 1
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert metrics["firing_duration"]["count"] == 4
        assert metrics["spans"]["recorded"] == 4
        assert metrics["opcodes"]  # per-opcode histograms fed by the profiler

    def test_main_merge_breakdown_in_spans(self):
        engine = fed_engine()
        spans = engine.obs.spans.last()
        assert len(spans) == 4
        # incremental firings run both the main plan and the merge step
        tagged = [s for s in spans if "main" in s.tags and "merge" in s.tags]
        assert tagged, "expected per-tag breakdown on spans"
        assert all(s.factory == "q1" for s in spans)
        assert [s.seq for s in spans] == [1, 2, 3, 4]

    def test_disabled_observability(self):
        engine = fed_engine(observability=False)
        assert engine.obs is None
        metrics = engine.metrics()
        assert metrics["engine"]["observability"] is False
        assert "latency" not in metrics and "spans" not in metrics
        # plain counters still work without tracing
        assert metrics["counters"]["firings"] == 4
        assert metrics["counters"]["tuples_consumed"] == 0  # not tracked

    def test_span_wall_is_the_firing_start(self):
        class Sleepy:
            name = "sleepy"
            fired = False

            def ready(self):
                return not self.fired

            def step(self, profiler):
                time.sleep(0.2)
                self.fired = True
                return [(1,)]

            def consumed_total(self):
                return 0

            def baskets(self):
                return []

        scheduler = Scheduler(obs=Observability())
        scheduler.register(Sleepy())
        before = time.time()
        assert scheduler.run_until_idle() == 1
        [fired] = scheduler.obs.spans.last()
        assert fired.wall - before <= 0.05
        assert fired.duration >= 0.2

    def test_json_format_round_trips(self):
        engine = fed_engine()
        decoded = json.loads(engine.metrics(format="json"))
        assert decoded["counters"]["firings"] == 4

    def test_unknown_format_rejected(self):
        with pytest.raises(ReproError):
            fed_engine().metrics(format="xml")


GROUPED_SUM = "SELECT x1, sum(x2) FROM s [RANGE 40 SLIDE 10] GROUP BY x1 ORDER BY x1"
# The twin differs in window size only: it shares every fragment but runs
# a factory of its own (an identical query would share the factory).
GROUPED_SUM_TWIN = GROUPED_SUM.replace("RANGE 40", "RANGE 20")
FIRING_CASES = {
    "grouped_sum_and_twin": [
        (GROUPED_SUM, "incremental"),
        (GROUPED_SUM_TWIN, "incremental"),
    ],
    "two_stream_join": [
        (
            "SELECT max(s1.x1), avg(s2.x1) FROM s s1 [RANGE 40 SLIDE 10], "
            "s2 [RANGE 40 SLIDE 10] WHERE s1.x2 = s2.x2 AND s1.x1 > 2",
            "incremental",
        ),
    ],
    "reeval": [(GROUPED_SUM, "reeval")],
}


def fire_case(queries, observability):
    """Windows, counters and per-factory firings of one engine run."""
    engine = DataCellEngine(observability=observability)
    for stream in ("s", "s2"):
        engine.create_stream(stream, [("x1", "int"), ("x2", "int")])
    handles = [engine.submit(sql, mode=mode) for sql, mode in queries]
    rng = np.random.default_rng(11)
    for chunk in (50, 7, 33, 60):
        for stream in ("s", "s2"):
            engine.feed(
                stream,
                columns={
                    "x1": rng.integers(0, 10, chunk),
                    "x2": rng.integers(0, 12, chunk),
                },
            )
        engine.run_until_idle()
    counters = engine.profiler.snapshot()["counters"]
    return (
        [[batch.rows() for batch in handle.results()] for handle in handles],
        {
            name: counters.get(name, 0)
            for name in ("firings", "fragment_cache_hits", "fragment_cache_misses")
        },
        engine.scheduler.steps_snapshot(),
    )


@pytest.mark.parametrize("case", sorted(FIRING_CASES))
def test_observability_on_and_off_fire_identically(case):
    """Tracing only observes: the same feeds give the same windows,
    counters and per-factory firings with observability on and off."""
    windows, counters, steps = fire_case(FIRING_CASES[case], observability=True)
    assert all(windows) and counters["firings"] > 0
    assert fire_case(FIRING_CASES[case], observability=False) == (windows, counters, steps)
    if case == "grouped_sum_and_twin":
        assert counters["fragment_cache_hits"] > 0


def parse_prometheus(text):
    """Mini-parser for the text exposition format.

    Returns ``(samples, types)`` where samples maps ``name{labels}`` to a
    float and types maps family name to its declared type.  Raises on any
    line that is not a comment, a blank, or ``name{labels} value``.
    """
    samples, types = {}, {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            __, __, family, kind = line.split(None, 3)
            types[family] = kind
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), f"bad comment: {line!r}"
            continue
        name_part, __, value_part = line.rpartition(" ")
        assert name_part, f"unparsable sample line: {line!r}"
        samples[name_part] = float(value_part)
    return samples, types


class TestPrometheusExport:
    def test_output_parses_and_has_families(self):
        engine = fed_engine()
        samples, types = parse_prometheus(engine.metrics(format="prometheus"))
        assert samples["repro_firings_total"] == 4
        assert types["repro_firings_total"] == "counter"
        assert types["repro_ingest_emit_latency_seconds"] == "histogram"
        assert samples['repro_factory_firings_total{factory="q1"}'] == 4
        assert samples['repro_basket_parked{stream="s"}'] == 0
        assert samples["repro_worker_errors_total"] == 0

    def test_histogram_buckets_cumulative_with_inf(self):
        engine = fed_engine()
        samples, __ = parse_prometheus(engine.metrics(format="prometheus"))
        buckets = sorted(
            (name, value)
            for name, value in samples.items()
            if name.startswith("repro_firing_duration_seconds_bucket")
        )
        assert any('le="+Inf"' in name for name, __ in buckets)
        inf = next(v for n, v in buckets if 'le="+Inf"' in n)
        assert inf == samples["repro_firing_duration_seconds_count"] == 4
        assert samples["repro_firing_duration_seconds_sum"] > 0

    def test_disabled_engine_skips_histograms(self):
        engine = fed_engine(observability=False)
        samples, __ = parse_prometheus(engine.metrics(format="prometheus"))
        assert "repro_firings_total" in samples
        assert not any("latency" in name for name in samples)


class TestConsoleRenderers:
    def test_top_table(self):
        engine = fed_engine()
        text = render_top(engine)
        assert "firings=4" in text
        assert "FACTORY" in text and "LAG ms" in text
        assert "q1" in text
        assert "ingest→emit latency" in text

    def test_top_without_observability(self):
        text = render_top(fed_engine(observability=False))
        assert "firings=4" in text
        assert "latency" not in text

    def test_trace_lists_recent_spans(self):
        engine = fed_engine()
        text = render_trace(engine, last=2)
        assert "#3" in text and "#4" in text and "#2" not in text
        assert "main=" in text and "merge=" in text
        assert "2 span(s) shown, 4 recorded" in text

    def test_trace_disabled_and_empty(self):
        assert "disabled" in render_trace(DataCellEngine(observability=False))
        assert "no spans" in render_trace(DataCellEngine())


def run_console(lines):
    console = Console(out=io.StringIO())
    for line in lines:
        console.execute(line)
    return console, console.out.getvalue()


class TestConsoleCommands:
    SETUP = [
        "CREATE STREAM s (x1 int)",
        "SUBMIT SELECT count(*) AS n FROM s [RANGE 2 SLIDE 2]",
    ]

    def test_top_command(self):
        console, __ = run_console(self.SETUP)
        console.engine.feed("s", rows=[(1,), (2,)])
        console.execute("RUN")
        console.execute("TOP")
        out = console.out.getvalue()
        assert "FACTORY" in out and "q1" in out

    def test_trace_command_with_count(self):
        console, __ = run_console(self.SETUP)
        console.engine.feed("s", rows=[(i,) for i in range(6)])
        console.execute("RUN")
        console.execute("TRACE 2")
        out = console.out.getvalue()
        assert "2 span(s) shown, 3 recorded" in out

    @pytest.mark.parametrize("count", ["0", "-1", "x"])
    def test_trace_command_rejects_bad_count(self, count):
        console, __ = run_console(self.SETUP)
        console.engine.feed("s", rows=[(i,) for i in range(4)])
        console.execute("RUN")
        console.execute(f"TRACE {count}")
        out = console.out.getvalue()
        assert "error: usage: TRACE [n] with n >= 1" in out
        assert "no spans" not in out

    def test_metrics_command_prom_and_json(self):
        console, __ = run_console(self.SETUP)
        console.execute("METRICS")
        console.execute("METRICS JSON")
        out = console.out.getvalue()
        assert "# TYPE repro_firings_total counter" in out
        assert '"firings": 0' in out

    def test_metrics_command_rejects_garbage(self):
        __, out = run_console(["METRICS XML"])
        assert "error" in out


class TestObsSubcommands:
    def write_script(self, tmp_path):
        script = tmp_path / "session.dcl"
        script.write_text(
            "CREATE STREAM s (x1 int)\n"
            "SUBMIT SELECT count(*) AS n FROM s [RANGE 2 SLIDE 2]\n"
        )
        return str(script)

    def test_top_once(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["top", "--once", self.write_script(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FACTORY" in out and "q1" in out

    def test_trace_last(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--last", "5", self.write_script(tmp_path)]) == 0
        assert "no spans" in capsys.readouterr().out

    def test_bad_flags_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["top", "--interval", "0"]) == 2
        assert main(["trace", "--last", "nope"]) == 2
        assert main(["top", "--frobnicate"]) == 2
        assert "error:" in capsys.readouterr().err
