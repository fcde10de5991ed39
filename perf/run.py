#!/usr/bin/env python3
"""The repository's benchmark: five ingest→emit workloads, one command.

    python perf/run.py                       # every workload, both passes
    python perf/run.py --smoke               # the same at 1/50 counts
    python perf/run.py --workload q1_fine --seed 3 --seconds 16 --trace 0

With ``--workload`` it runs one pass of one workload in this process and
prints one JSON object as its last line (the driver contract of
BENCHMARK.json): ``--trace 0`` measures the end-to-end metrics with no
tracing installed, ``--trace 1`` runs the shorter traced pass and reports
the per-layer metrics.  Without ``--workload`` it runs both passes of
every workload, each in a fresh process (peak memory is per process),
prints every metric and writes ``perf/out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Run as a script: import the checkout's own sources, and keep perf/ itself
# off the module path (perf/trace.py would shadow the stdlib's trace).
if __name__ == "__main__":
    sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

OUT_DIR = os.path.join(ROOT, "perf", "out")
#: Engine set-ups per end-to-end run; setup_s is their median.
SETUP_REPS = 5
SMOKE_DIVISOR = 50


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one pass of one workload
# ----------------------------------------------------------------------
def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


class Outcome:
    """Ops attempted and failed over the sessions of one pass.

    An op is one ``feed`` call or one expected query-window.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.verify_s = 0.0

    def finish(self, session) -> None:
        """Verify what ``session`` emitted, count its ops, close it."""
        from perf import verify

        start = perf_counter()
        self.failures += [f for phase in session.phases for f in phase.failures]
        self.failures += verify.failed_windows(
            session.workload.queries,
            session.data,
            session.batches_for_verification(),
            session.expected_total(),
        )
        self.verify_s += perf_counter() - start
        self.attempted += session.ops + sum(p.expected_windows for p in session.phases)
        session.close()


def _checkpoint_every(workload, scale: float) -> int:
    return _scaled(workload.checkpoint_every, scale) if workload.checkpoint_every else 0


def _drive(session, scale: float):
    """saturate → paced on a set-up session, tracing not installed; durable
    engines then checkpoint, crash, restore and serve one more slide.
    Returns ``(saturate, paced, peak rss, detail)``."""
    from perf import driver
    from perf.workloads import PACED_TICKS, TICK_SECONDS

    workload = session.workload
    saturate = session.run_phase(
        "saturate",
        _scaled(workload.saturate_ticks, scale),
        workload.chunk,
        checkpoint_every=_checkpoint_every(workload, scale),
    )
    paced = session.run_phase(
        "paced", _scaled(PACED_TICKS, scale), workload.paced_chunk, paced=True
    )
    rss = driver.peak_rss_mb()
    if workload.durable:
        session.crash_and_restore()
        session.run_phase("restored", 1, workload.chunk)
    third = max(1, len(paced.lag) // 3)
    detail = {
        "saturate": _phase_detail(saturate),
        "paced": _phase_detail(paced),
        "paced_tps": workload.paced_chunk * len(workload.streams) / TICK_SECONDS,
        "lag_p95_ms": driver.percentile_ms(paced.lag, 95),
        # Not bounded (they do not repeat within a tenth on this host);
        # the traced pass reports them as driver.* layer metrics.
        "response_p95_ms": driver.percentile_ms(saturate.samples, 95),
        "latency_p50_ms": driver.percentile_ms(paced.samples, 50),
        "latency_p95_ms": driver.percentile_ms(paced.samples, 95),
        # Inline pumping keeps baskets drained, so an open loop the engine
        # cannot sustain shows as a generator that falls further and
        # further behind its schedule, not as one that is merely late.
        "paced_unsustainable": bool(
            paced.lag[-third:].mean() > 2 * paced.lag[:third].mean() + TICK_SECONDS
        ),
        "p95_supported": bool(
            driver.supports(len(saturate.samples), 95)
            and driver.supports(len(paced.samples), 95)
        ),
    }
    return saturate, paced, rss, detail


def _phase_detail(phase) -> dict:
    return {
        "ops": phase.ops,
        "tuples": phase.tuples,
        "wall_s": phase.wall,
        "cpu_s": phase.cpu,
        "query_windows": int(len(phase.samples)),
        "checkpoint_s": [c["seconds"] for c in phase.checkpoints],
    }


def run_end_to_end(workload, seed: int, seconds: float, reps: int) -> dict:
    """setup (x reps) → saturate → paced, tracing not installed."""
    from perf import driver
    from perf.workloads import REFERENCE_SECONDS, Data

    data = Data(workload, seed)
    outcome = Outcome()
    setups = []
    session = None
    for __ in range(reps):
        if session is not None:
            outcome.finish(session)  # measured, checked, discarded
        session = driver.Session(workload, data, OUT_DIR)
        start = perf_counter()
        session.setup()
        setups.append(perf_counter() - start)
    saturate, paced, rss, detail = _drive(session, seconds / REFERENCE_SECONDS)
    outcome.finish(session)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_tps": saturate.tps,
        "response_p50_ms": driver.percentile_ms(saturate.samples, 50),
        "cpu_s_per_mtuple": saturate.cpu / (saturate.tuples / 1e6),
        "peak_rss_mb": rss,
    }
    detail["setup_s_all"] = setups
    return _record(workload, seed, seconds, 0, values, outcome, detail)


def run_traced(workload, seed: int, seconds: float) -> dict:
    """The traced pass: per-layer metrics only.

    A full-length untraced run supplies the driver.* numbers (p95s,
    generator lag).  Then a quarter of the saturate ticks runs on a fresh
    engine under ``perf/trace.py``; the time the same ops took untraced
    gives the tracing overhead.
    """
    from perf import driver, layers
    from perf.trace import Tracer, select, subtree
    from perf.workloads import REFERENCE_SECONDS, Data

    scale = seconds / REFERENCE_SECONDS
    start = perf_counter()
    data = Data(workload, seed)
    gen_s = perf_counter() - start
    outcome = Outcome()

    plain = driver.Session(workload, data, OUT_DIR)
    plain.setup()
    plain_saturate, paced, __, detail = _drive(plain, scale)
    outcome.finish(plain)

    tracer = Tracer()
    traced = driver.Session(workload, data, OUT_DIR, tracer=tracer)
    traced.build()  # shard workers fork here, before anything is patched
    tracer.install()
    try:
        traced.register()
        values = _trace_sql(tracer, traced.engine.catalog, workload)
        before = layers.engine_stats(traced.engine)
        with tracer.span("saturate", "driver") as root:
            saturate = traced.run_phase(
                "saturate",
                _scaled(workload.saturate_ticks, scale / 4),
                workload.chunk,
                checkpoint_every=_checkpoint_every(workload, scale / 4),
                sample_gauges=True,
            )
        after = layers.engine_stats(traced.engine)
        skew = _skew(traced.engine)
        restore_s = 0.0
        if workload.durable:
            restore_s = traced.crash_and_restore()
            traced.run_phase("restored", 1, workload.chunk)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    values.update(layers.saturate_metrics(subtree(spans, root), before, after))
    checkpoints = select(spans, "DataCellEngine.checkpoint")[: len(saturate.checkpoints)]
    checkpoint_ms = [1e3 * (s[3] - s[2]) for s in checkpoints] or [0.0]
    same_ops_untraced = plain_saturate.op_seconds[: saturate.ops].sum()
    values.update(
        {
            "core.engine.submit_ms": 1e3
            * sum(s[3] - s[2] for s in select(spans, "DataCellEngine.submit")),
            "core.basket.parked_max": traced.parked_max,
            "core.partition.skew": skew,
            "core.shard.lag_max": traced.lag_max,
            "core.durability.checkpoint_ms_first": checkpoint_ms[0],
            "core.durability.checkpoint_ms_last": checkpoint_ms[-1],
            "core.durability.snapshot_bytes_last": checkpoints[-1][5] if checkpoints else 0,
            "core.durability.restore_s": restore_s,
            "driver.gen_s": gen_s,
            "driver.response_p95_ms": detail["response_p95_ms"],
            "driver.latency_p50_ms": detail["latency_p50_ms"],
            "driver.latency_p95_ms": detail["latency_p95_ms"],
            "driver.lag_p95_ms": detail["lag_p95_ms"],
            "driver.trace_overhead_frac": (
                1.0 - same_ops_untraced / saturate.op_seconds.sum()
            ),
        }
    )
    outcome.finish(traced)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))

    # Reference baselines (0 where a workload defines none).
    values["core.shard.speedup_vs_p1"] = 0.0
    if workload.p1_ticks:
        single = driver.Session(workload, data, OUT_DIR, partitions=1, durable=False)
        single.setup()
        base = single.run_phase("p1", _scaled(workload.p1_ticks, scale), workload.chunk)
        outcome.finish(single)
        values["core.shard.speedup_vs_p1"] = plain_saturate.tps / base.tps
    values["core.reevaluate.tps"] = 0.0
    if workload.reeval_ticks:
        reeval = driver.Session(workload, data, OUT_DIR, mode="reeval")
        reeval.setup()
        base = reeval.run_phase(
            "reeval", _scaled(workload.reeval_ticks, scale), workload.chunk
        )
        outcome.finish(reeval)
        values["core.reevaluate.tps"] = base.tps
    values["driver.verify_s"] = outcome.verify_s
    detail["saturate_traced"] = _phase_detail(saturate)
    detail["spans"] = len(spans)
    return _record(workload, seed, seconds, 1, values, outcome, detail)


def _trace_sql(tracer, catalog, workload) -> dict:
    """Front-end cost of the workload's SQL: each stage called directly,
    once per query, under a span of its own."""
    from repro.core.rewriter import rewrite
    from repro.sql.binder import bind
    from repro.sql.lexer import tokenize
    from repro.sql.optimizer import optimize
    from repro.sql.parser import parse
    from repro.sql.physical import compile_full
    from repro.sql.planner import plan_query

    stage = {
        fn.__name__: tracer.wrap(fn, fn.__name__, layer)
        for fn, layer in (
            (tokenize, "sql"),
            (parse, "sql"),
            (bind, "sql"),
            (plan_query, "sql"),
            (optimize, "sql"),
            (compile_full, "sql"),
            (rewrite, "core.rewriter"),
        )
    }
    first = len(tracer.spans)
    instructions = 0
    for query in workload.queries:
        stage["tokenize"](query.sql)
        parsed = stage["parse"](query.sql)
        stage["bind"](parsed, catalog)
        planned = stage["optimize"](stage["plan_query"](parsed, catalog))
        stage["compile_full"](planned)
        plan = stage["rewrite"](planned)
        programs = [plan.fragment, plan.pair_fragment, plan.combine, plan.finalize]
        programs += [prep.program for prep in plan.preps.values()]
        instructions += sum(len(p.instructions) for p in programs if p is not None)
    spent = {name: 0.0 for name in stage}
    for name, __, start, end, __, __ in tracer.spans[first:]:
        spent[name] += (end - start) * 1e3
    return {
        "sql.parse_ms": spent["tokenize"] + spent["parse"],
        "sql.plan_ms": spent["bind"] + spent["plan_query"] + spent["optimize"],
        "sql.compile_ms": spent["compile_full"],
        "core.rewriter.rewrite_ms": spent["rewrite"],
        "core.rewriter.plan_instrs": instructions,
    }


def _skew(engine) -> float:
    """max/mean tuples routed per partition (1.0 = balanced; 0 = unsharded)."""
    streams = engine.partition_stats().get("streams", {})
    routed = [count for stats in streams.values() for count in stats["routed"]]
    mean = sum(routed) / len(routed) if routed else 0
    return max(routed) / mean if mean else 0.0


def _record(workload, seed, seconds, trace, values, outcome, detail) -> dict:
    from perf import driver

    failures = outcome.failures + [
        f"leaked shm segment {name}" for name in driver.leaked_segments()
    ]
    attempted = outcome.attempted
    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(values):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    failed = min(len(failures), attempted)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in declared
        },
        "detail": detail,
    }


def _stop_children() -> None:
    """Leave no process behind, on any way out of a pass.

    Shard workers an aborted pass left alive are ended first.  Then the
    shared-memory resource tracker is stopped and waited for: left to
    itself it only exits once it sees this process's end of its pipe
    close, a moment *after* this process is gone.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def run_one(args) -> int:
    from multiprocessing import resource_tracker

    from perf.workloads import WORKLOADS

    try:
        import repro
    except ImportError:
        print("perf/run.py: no src/repro in this checkout", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(ROOT + os.sep):
        print("perf/run.py: repro imported from outside the checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seconds = args.seconds / SMOKE_DIVISOR if args.smoke else args.seconds
    os.makedirs(OUT_DIR, exist_ok=True)
    # One tracker, started here: shard workers forked later inherit it
    # instead of each starting one of its own that nobody waits for.
    resource_tracker.ensure_running()
    try:
        if args.trace:
            record = run_traced(workload, args.seed, seconds)
        else:
            record = run_end_to_end(
                workload, args.seed, seconds, 1 if args.smoke else SETUP_REPS
            )
    finally:
        _stop_children()
    print_record(record)
    path = os.path.join(OUT_DIR, f"run-{workload.name}-t{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if record["correct"] else 1


def print_record(record: dict) -> None:
    detail = record["detail"]
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}"
        f"  saturate: {detail['saturate']['query_windows']} query-windows in "
        f"{detail['saturate']['wall_s']:.2f} s"
        f"  paced: {detail['paced']['query_windows']} query-windows at "
        f"{detail['paced_tps']:.0f} tuples/s, generator lag p95 "
        f"{detail['lag_p95_ms']:.3f} ms"
        + ("  [paced rate UNSUSTAINABLE]" if detail["paced_unsustainable"] else "")
        + ("  [too few samples for p95]" if record["trace"] and not detail["p95_supported"] else "")
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if not record["trace"]:
        for name in ("response_p95_ms", "latency_p50_ms", "latency_p95_ms"):
            print(f"  {name + ' (not bounded)':<40} {detail[name]:>16.6g} ms")
    print(
        f"  {'failed_frac':<40} {record['failed_frac']:>16.6g} ratio"
        f"  ({record['failed']} of {record['attempted']} ops)"
    )
    for message in record["failures"]:
        print(f"  FAILED {message}")


# ----------------------------------------------------------------------
# every workload, each pass in its own process
# ----------------------------------------------------------------------
def run_all(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results: dict = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeat": args.repeat,
        "workloads": {},
    }
    status = 0
    for name in names:
        entry = results["workloads"][name] = {"attempted": 0, "failed": 0}
        passes = [(0, args.seed + i) for i in range(args.repeat)] + [(1, args.seed)]
        for trace, seed in passes:
            command = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=ROOT)
            if done.returncode:
                status = 1
            path = os.path.join(OUT_DIR, f"run-{name}-t{trace}.json")
            if done.returncode not in (0, 1) or not os.path.exists(path):
                continue  # crashed before a record was written
            with open(path) as handle:
                record = json.load(handle)
            os.remove(path)
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            section = entry.setdefault("per_layer" if trace else "end_to_end", {})
            for metric, value in record["metrics"].items():
                slot = section.setdefault(metric, {"unit": value["unit"], "values": []})
                slot["values"].append(value["value"])
                slot["value"] = statistics.median(slot["values"])
            entry.setdefault("detail", []).append(record["detail"])
    path = os.path.join(OUT_DIR, "results.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}; exit status {status}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="1/50 of the counts, one set-up; timings are printed, not judged",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="end-to-end runs per workload (seed, seed+1, ...) when running all",
    )
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
