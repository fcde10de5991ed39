"""The ``repro fuzz`` driver: budgeted differential fuzzing sessions.

One session runs ``budget`` iterations.  Iteration ``i`` is fully
determined by ``(seed, i)`` — the generator RNG is
``np.random.default_rng([seed, i])`` — so any failure replays from the
two integers printed in the banner.  Each iteration:

1. draws a valid query with a *focus* feature rotating through
   :data:`~repro.testing.fuzz.generator.TAXONOMY` (guaranteed operator
   coverage at modest budgets) plus a matching feed; about three in ten
   single-stream sliding draws are then redrawn with 32–160 basic
   windows (``window-deep``), running tables and flat merges at depth,
   and about three in ten joins with 8–40 basic windows per stream side
   (``join-deep``), and about one int stream column in five is redrawn
   over a wide signed domain (``keys-wide``); last, about three in ten
   single-stream iterations whose focus an invertible query can carry
   are redrawn as one, fed 24–64 slides over a few keys
   (``running-long``);
2. lints the rewritten plan (:mod:`repro.analysis.lint`) — the fuzzer
   doubles as a free corpus for the static verifier;
3. runs the four-way oracle under randomly drawn execution axes
   (fragment sharing, feed chunking, ``step_chunked``, a
   ``partitions`` axis that adds a key-partitioned leg
   for supported query shapes — forceable via ``--partitions N`` — and
   a ``crash`` axis that adds a durable leg interrupted by
   checkpoint/kill/restore cycles mid-run — forceable via ``--crash``);
4. checks one metamorphic relation (rotating through
   :data:`~repro.testing.fuzz.metamorphic.RELATIONS`).

On divergence the case is shrunk (:mod:`repro.testing.fuzz.minimize`)
and written as ``fuzz-<seed>-<iteration>.repro.json``;
``repro fuzz --replay FILE`` re-executes it deterministically.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from typing import Optional, TextIO

import numpy as np

from repro.analysis.lint import lint_sql
from repro.errors import ReproError
from repro.testing.fuzz.generator import (
    DEEP_WINDOW,
    JOIN_DEEP,
    KEYS_WIDE,
    RUNNING_LONG,
    TAXONOMY,
    QueryGenerator,
    build_engine,
)
from repro.testing.fuzz.metamorphic import RELATIONS, check_relation, random_chunk_plan
from repro.testing.fuzz.minimize import (
    ReproCase,
    evaluate_case,
    load_case,
    shrink,
    write_case,
)
from repro.testing.fuzz.oracle import Divergence, OracleConfig, run_oracle

#: relation seeds must be deterministic in (seed, iteration) alone
_RELATION_SALT = 1_000_003


class FuzzSession:
    """One budgeted fuzzing run; see the module docstring for the loop."""

    def __init__(
        self,
        budget: int,
        seed: int,
        out_dir: str = ".fuzz",
        rows_scale: float = 1.0,
        metamorphic: bool = True,
        lint: bool = True,
        vary_axes: bool = True,
        partitions: Optional[int] = None,
        crash: bool = False,
        max_failures: int = 5,
        shrink_runs: int = 60,
        out: Optional[TextIO] = None,
    ) -> None:
        self.budget = budget
        self.seed = seed
        self.out_dir = out_dir
        self.rows_scale = rows_scale
        self.metamorphic = metamorphic
        self.lint = lint
        self.vary_axes = vary_axes
        #: Forced partition count for the sharded leg; None leaves it to
        #: the random axis (P drawn from {2, 3} on ~1 in 4 iterations).
        self.partitions = partitions
        #: Force the checkpoint/kill/restore leg on every iteration;
        #: otherwise drawn as a random axis (~1 in 5 iterations).
        self.crash = crash
        self.max_failures = max_failures
        self.shrink_runs = shrink_runs
        self.out = out if out is not None else sys.stdout
        self.coverage: Counter = Counter()
        self.failures: list[ReproCase] = []
        self.iterations = 0
        self.rejected = 0

    def println(self, text: str = "") -> None:
        print(text, file=self.out)

    # ------------------------------------------------------------------
    def run(self) -> int:
        started = time.perf_counter()
        self.println(
            f"repro fuzz: budget={self.budget} seed={self.seed} "
            f"out={self.out_dir}"
        )
        for iteration in range(self.budget):
            self.iterations = iteration + 1
            if not self._iteration(iteration):
                break
        elapsed = time.perf_counter() - started
        self._report(elapsed)
        if self.failures:
            return 1
        if self.budget >= 2 * len(TAXONOMY) and self._missing():
            return 1
        return 0

    # ------------------------------------------------------------------
    def _draw(self, iteration: int):
        """Iteration ``iteration``'s (query, feed, config); None when no
        valid query could be drawn."""
        rng = np.random.default_rng([self.seed, iteration])
        generator = QueryGenerator(rng)
        focus = TAXONOMY[iteration % len(TAXONOMY)]
        try:
            query = generator.query(focus)
        except ReproError:
            return None
        feed = generator.feed(query, rows_scale=self.rows_scale)
        config = self._config(rng, query, feed)
        # Deep-window draw: after the query, feed and axis draws, so
        # (seed, iteration) pairs it leaves alone — and every saved
        # .repro.json — replay exactly as before.  A deepened query needs
        # a feed and axes that fit its new window.
        deep = generator.deepen(query)
        if deep is not None:
            query = deep
            feed = generator.feed(query, rows_scale=self.rows_scale)
            config = self._config(rng, query, feed)
        # Wide-key draw: LAST, for the same reason.  It keeps row counts,
        # so the axes drawn above still fit.
        wide = generator.widen(query, feed)
        if wide is not None:
            query, feed = wide
        # Long invertible draw: after the wide-key one, for the same
        # reason.  It brings its own feed, so the axes are drawn again.
        long = generator.lengthen(query, focus)
        if long is not None:
            query, feed = long
            config = self._config(rng, query, feed)
        return query, feed, config

    def _iteration(self, iteration: int) -> bool:
        drawn = self._draw(iteration)
        if drawn is None:
            self.rejected += 1
            return True
        query, feed, config = drawn
        self.coverage.update(query.features)

        if self.lint:
            engine = build_engine(query)
            try:
                report, __ = lint_sql(engine, query.sql, subject=f"fuzz[{iteration}]")
            finally:
                engine.close()
            if not report.ok:
                detail = "; ".join(d.render() for d in report.errors())
                divergence = Divergence("lint", "plan-verifier", "rewriter", None, detail)
                return self._failure(iteration, query, feed, config, "lint", divergence)

        divergence = run_oracle(query, feed, config).divergence
        if divergence is not None:
            return self._failure(iteration, query, feed, config, "oracle", divergence)

        if self.metamorphic:
            relation = RELATIONS[iteration % len(RELATIONS)]
            relation_seed = self.seed * _RELATION_SALT + iteration
            divergence = check_relation(
                relation, query, feed, relation_seed, config.float_tol
            )
            if divergence is not None:
                return self._failure(
                    iteration, query, feed, config, relation, divergence,
                    relation_seed=relation_seed,
                )
        return True

    def _config(self, rng, query, feed) -> OracleConfig:
        if not self.vary_axes:
            return OracleConfig(partitions=self.partitions or 1, crash=self.crash)
        # New axes draw *after* the existing ones so historical
        # (seed, iteration) pairs keep reproducing the same config.
        config = OracleConfig(
            fragment_sharing=bool(rng.random() < 0.75),
            duplicate=bool(rng.random() < 0.35),
            chunk_plan=(
                random_chunk_plan(rng, query, feed)
                if rng.random() < 0.50
                else None
            ),
            step_chunk=(
                int(rng.integers(2, 5))
                if query.chunk_ok and rng.random() < 0.35
                else None
            ),
        )
        # Partitions axis: drawn last.  The partitioned leg only runs for
        # shapes the sharded engine supports (query.partition_ok); other
        # shapes keep P=1 so the draw stays cheap and deterministic.
        if self.partitions is not None:
            config.partitions = self.partitions
        elif query.partition_ok and rng.random() < 0.25:
            config.partitions = int(rng.choice([2, 3]))
        # Crash axis: drawn LAST so historical (seed, iteration) pairs —
        # including saved .repro.json reproducers — replay byte-identical
        # configs.  A --crash override skips the draw entirely.
        if self.crash:
            config.crash = True
        else:
            config.crash = bool(rng.random() < 0.20)
        return config

    # ------------------------------------------------------------------
    def _failure(
        self,
        iteration: int,
        query,
        feed,
        config: OracleConfig,
        check: str,
        divergence: Divergence,
        relation_seed: int = 0,
    ) -> bool:
        case = ReproCase(
            query=query,
            feed=feed,
            config=config,
            check=check,
            relation_seed=relation_seed,
            seed=self.seed,
            iteration=iteration,
            divergence=divergence,
        )
        self.println()
        self.println(
            f"FAILURE iteration {iteration} (seed {self.seed}, check {check})"
        )
        self.println(f"  sql: {query.sql}")
        self.println(f"  divergence: {divergence.describe()}")
        self.println(f"  axes: {config.describe()}")
        if check != "lint":  # a lint diagnostic is already minimal
            case = shrink(case, max_runs=self.shrink_runs)
            rows = sum(case.feed.row_count(s) for s in case.query.streams)
            self.println(f"  minimized: {rows} rows, {case.query.sql}")
        path = write_case(
            case, f"{self.out_dir}/fuzz-{self.seed}-{iteration}.repro.json"
        )
        self.println(f"  wrote {path}")
        self.println(f"  replay: python -m repro fuzz --replay {path}")
        self.failures.append(case)
        return len(self.failures) < self.max_failures

    # ------------------------------------------------------------------
    def _missing(self) -> list[str]:
        return [f for f in TAXONOMY if self.coverage[f] == 0]

    def _report(self, elapsed: float) -> None:
        self.println()
        self.println(
            f"operator class coverage ({self.iterations} iterations, "
            f"{self.rejected} rejected draws, {elapsed:.1f}s):"
        )
        for feature in TAXONOMY:
            count = self.coverage[feature]
            marker = "" if count else "   <-- NOT COVERED"
            self.println(f"  {feature:<16} {count:>5}{marker}")
        for feature in (DEEP_WINDOW, JOIN_DEEP, KEYS_WIDE, RUNNING_LONG):
            self.println(f"  {feature:<16} {self.coverage[feature]:>5}")
        missing = self._missing()
        if missing and self.budget >= 2 * len(TAXONOMY):
            self.println(f"coverage FAILED: {', '.join(missing)} never generated")
        verdict = (
            f"{len(self.failures)} divergence(s) — repros in {self.out_dir}/"
            if self.failures
            else "zero divergences"
        )
        self.println(f"repro fuzz: seed={self.seed}: {verdict}")


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def replay(path: str, out: Optional[TextIO] = None) -> int:
    """Re-execute a ``.repro.json``; exit 1 iff the divergence reproduces."""
    out = out if out is not None else sys.stdout
    case = load_case(path)
    print(
        f"replaying {path} (seed {case.seed}, iteration {case.iteration}, "
        f"check {case.check})",
        file=out,
    )
    print(f"  sql: {case.query.sql}", file=out)
    print(f"  axes: {case.config.describe()}", file=out)
    if case.check == "lint":
        engine = build_engine(case.query)
        try:
            report, __ = lint_sql(engine, case.query.sql, subject=path)
        finally:
            engine.close()
        divergence = (
            Divergence(
                "lint",
                "plan-verifier",
                "rewriter",
                None,
                "; ".join(d.render() for d in report.errors()),
            )
            if not report.ok
            else None
        )
    else:
        divergence = evaluate_case(case)
    if divergence is None:
        print("  did not reproduce (divergence fixed?)", file=out)
        return 0
    print(f"  REPRODUCED: {divergence.describe()}", file=out)
    return 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_fuzz_cli(argv: list[str], out: Optional[TextIO] = None) -> int:
    """``repro fuzz`` entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="differential fuzzing: random continuous queries × "
        "incremental/reeval/SystemX/reference oracle × metamorphic relations",
    )
    parser.add_argument("--budget", type=int, default=200,
                        help="number of fuzz iterations (default 200)")
    parser.add_argument("--seed", type=int, default=None,
                        help="session seed; drawn from OS entropy (and "
                        "printed) when omitted")
    parser.add_argument("--out", default=".fuzz",
                        help="directory for .repro.json reproducers")
    parser.add_argument("--rows-scale", type=float, default=1.0,
                        help="scale factor for generated feed sizes")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many divergences (default 5)")
    parser.add_argument("--shrink-runs", type=int, default=60,
                        help="re-execution budget for the minimizer")
    parser.add_argument("--no-metamorphic", action="store_true",
                        help="skip the metamorphic relations")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip static plan linting of generated queries")
    parser.add_argument("--fixed-axes", action="store_true",
                        help="run every query under the default axes "
                        "(sharing on, unchunked)")
    parser.add_argument("--partitions", type=int, default=None,
                        help="force the key-partitioned leg to run with this "
                        "many partitions on every supported query "
                        "(otherwise drawn as a random axis: P in {2, 3} on "
                        "~25%% of iterations)")
    parser.add_argument("--crash", action="store_true",
                        help="run the checkpoint/kill/restore durability leg "
                        "on every iteration (otherwise drawn as a random "
                        "axis on ~20%% of iterations)")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="re-execute a .repro.json reproducer and exit")
    args = parser.parse_args(argv)

    if args.replay is not None:
        try:
            return replay(args.replay, out=out)
        except (OSError, ReproError, ValueError) as exc:
            print(f"repro fuzz: cannot replay {args.replay}: {exc}", file=out)
            return 2

    if args.budget < 1:
        print("repro fuzz: --budget must be >= 1", file=out)
        return 2
    seed = args.seed
    if seed is None:
        import os

        seed = int.from_bytes(os.urandom(4), "little")
    session = FuzzSession(
        budget=args.budget,
        seed=seed,
        out_dir=args.out,
        rows_scale=args.rows_scale,
        metamorphic=not args.no_metamorphic,
        lint=not args.no_lint,
        vary_axes=not args.fixed_axes,
        partitions=args.partitions,
        crash=args.crash,
        max_failures=args.max_failures,
        shrink_runs=args.shrink_runs,
        out=out,
    )
    return session.run()
