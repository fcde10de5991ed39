"""Tests for the differential fuzzing harness (:mod:`repro.testing.fuzz`).

Covers the generator (determinism, validity, focus steering), the naive
reference evaluator against hand-computed windows, the four-way oracle,
the metamorphic relations, the minimizer + ``.repro.json`` replay format,
and the ``repro fuzz`` CLI — including the acceptance scenario: an
intentionally injected compensation bug (a monkeypatched merge that drops
a live partial bundle) must be caught, shrunk, and written as a
replayable reproducer.
"""

import io
import json

import numpy as np
import pytest

from repro.core.factory import IncrementalFactory
from repro.testing.fuzz import (
    RELATIONS,
    TAXONOMY,
    Divergence,
    Feed,
    FuzzQuery,
    FuzzSession,
    OracleConfig,
    QueryGenerator,
    ReferenceOracle,
    ReproCase,
    WindowGeometry,
    build_engine,
    canon_rows,
    check_relation,
    check_sorted,
    evaluate_case,
    load_case,
    replay,
    rows_equivalent,
    run_fuzz_cli,
    run_oracle,
    shrink,
    write_case,
)
from repro.testing.fuzz.minimize import FORMAT

SEED = 11


def make_query(**overrides):
    """SELECT c0 AS g0, count(*) AS a0 ... [RANGE 4 SLIDE 2] GROUP BY c0."""
    base = dict(
        select_items=["c0 AS g0", "count(*) AS a0"],
        distinct=False,
        aliases=["s0"],
        windows={"s0": WindowGeometry("sliding", 4, 2)},
        join_cond=None,
        where=None,
        group_by=["c0"],
        having=None,
        order_by=["a0 DESC", "g0"],
        streams={"s0": [("c0", "int"), ("c1", "int")]},
        features=frozenset(
            {"count", "group-by", "order-by", "single-stream", "window-count"}
        ),
    )
    base.update(overrides)
    return FuzzQuery(**base)


def make_feed(c0, c1=None):
    c1 = list(c1) if c1 is not None else list(range(len(c0)))
    return Feed(
        columns={"s0": {"c0": list(c0), "c1": c1}},
        timestamps={"s0": None},
    )


class BrokenMerge:
    """Context manager injecting the compensation bug: the incremental
    merge silently drops the newest live partial bundle, so any window
    assembled from more than one basic window loses tuples."""

    def __enter__(self):
        self._original = IncrementalFactory._live_bundles

        def broken(factory, profiler=None):
            bundles = self._original(factory, profiler)
            return bundles[:-1] if len(bundles) > 1 else bundles

        IncrementalFactory._live_bundles = broken
        return self

    def __exit__(self, *exc):
        IncrementalFactory._live_bundles = self._original
        return False


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
class TestGenerator:
    def test_deterministic_in_seed_and_iteration(self):
        first = QueryGenerator(np.random.default_rng([SEED, 3]))
        second = QueryGenerator(np.random.default_rng([SEED, 3]))
        qa, qb = first.query("group-by"), second.query("group-by")
        assert qa.sql == qb.sql
        assert first.feed(qa).to_json() == second.feed(qb).to_json()

    def test_different_iterations_differ(self):
        sqls = {
            QueryGenerator(np.random.default_rng([SEED, i])).query().sql
            for i in range(6)
        }
        assert len(sqls) > 1

    @pytest.mark.parametrize("focus", TAXONOMY)
    def test_focus_forces_feature(self, focus):
        generator = QueryGenerator(np.random.default_rng([SEED, 0]))
        assert focus in generator.query(focus).features

    def test_queries_are_valid_in_both_modes(self):
        for i in range(8):
            generator = QueryGenerator(np.random.default_rng([SEED, i]))
            query = generator.query(TAXONOMY[i % len(TAXONOMY)])
            engine = build_engine(query)
            try:
                engine.submit(query.sql, mode="incremental")
                engine.submit(query.sql, mode="reeval")
            finally:
                engine.close()

    def test_feed_covers_every_stream(self):
        generator = QueryGenerator(np.random.default_rng([SEED, 1]))
        query = generator.query("join")
        feed = generator.feed(query)
        for stream in query.streams:
            assert feed.row_count(stream) >= 1

    def test_query_json_roundtrip(self):
        generator = QueryGenerator(np.random.default_rng([SEED, 2]))
        query = generator.query("order-by")
        clone = FuzzQuery.from_json(json.loads(json.dumps(query.to_json())))
        assert clone.sql == query.sql
        assert clone.features == query.features

    def test_deepen_draws_merge_tree_depths_after_everything_else(self):
        """The deep-window draw reaches n >= 32 (``_window`` stops at 6),
        only for single-stream sliding queries, and consumes RNG state
        only after the query and feed draws — so the draws before it
        match a generator that never deepens."""
        depths = []
        for i in range(40):
            plain = QueryGenerator(np.random.default_rng([SEED, i]))
            deepening = QueryGenerator(np.random.default_rng([SEED, i]))
            query = plain.query(TAXONOMY[i % len(TAXONOMY)])
            again = deepening.query(TAXONOMY[i % len(TAXONOMY)])
            assert again.sql == query.sql
            assert deepening.feed(again).to_json() == plain.feed(query).to_json()
            deep = deepening.deepen(again)
            if deep is None:
                continue
            assert len(query.aliases) == 1 and not query.has_landmark
            geometry = deep.windows[deep.aliases[0]]
            assert geometry.kind == "sliding"
            depths.append(geometry.size // geometry.step)
            assert "window-deep" in deep.features
            assert deep.render(windows=query.windows) == query.sql
        assert depths and all(32 <= n <= 160 for n in depths)

    def test_render_with_substituted_window(self):
        query = make_query()
        swapped = query.render(windows={"s0": WindowGeometry("sliding", 6, 3)})
        assert "[RANGE 6 SLIDE 3]" in swapped
        assert "[RANGE 4 SLIDE 2]" in query.sql  # original untouched


# ----------------------------------------------------------------------
# reference evaluator
# ----------------------------------------------------------------------
class TestReference:
    def test_hand_computed_grouped_windows(self):
        # RANGE 4 SLIDE 2 over c0 = [0,0,1,1, 0,1, 1,1] -> 3 windows.
        # The reference leaves rows unsorted (sortedness is validated
        # separately against the engines), so compare canonical forms.
        oracle = ReferenceOracle(make_query())
        windows = oracle.windows(make_feed([0, 0, 1, 1, 0, 1, 1, 1]))
        expected = [
            [(0, 2), (1, 2)],   # rows 0-3
            [(1, 3), (0, 1)],   # rows 2-5
            [(1, 3), (0, 1)],   # rows 4-7
        ]
        assert [canon_rows(w) for w in windows] == [
            canon_rows(w) for w in expected
        ]

    def test_where_filters_before_windowing(self):
        query = make_query(where="c0 != 0")
        windows = ReferenceOracle(query).windows(make_feed([0, 0, 1, 1]))
        assert windows == [[(1, 2)]]

    def test_matches_engine_on_generated_queries(self):
        for i in range(6):
            generator = QueryGenerator(np.random.default_rng([SEED, 40 + i]))
            query = generator.query()
            feed = generator.feed(query)
            result = run_oracle(query, feed, OracleConfig())
            assert result.divergence is None, result.divergence.describe()

    def test_canon_rows_tolerates_float_noise(self):
        assert canon_rows([(0.1 + 0.2, 1)]) == canon_rows([(0.3, 1)])
        assert rows_equivalent([(1.0000001, "x")], [(1.0, "x")])
        assert not rows_equivalent([(1.1, "x")], [(1.0, "x")])

    def test_check_sorted_detects_tie_break_violation(self):
        keys = [(1, True), (0, False)]  # col1 DESC, col0 ASC
        assert check_sorted([(0, 2), (1, 2), (3, 1)], keys)
        assert not check_sorted([(1, 2), (0, 2), (3, 1)], keys)  # tie broken desc
        assert not check_sorted([(0, 1), (0, 2)], keys)  # primary asc


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
class TestOracle:
    def test_clean_run_has_no_divergence(self):
        result = run_oracle(
            make_query(), make_feed([0, 0, 1, 1, 0, 1, 1, 1]), OracleConfig()
        )
        assert result.divergence is None
        assert len(result.windows["incremental"]) == 3

    def test_axes_do_not_change_results(self):
        feed = make_feed([0, 0, 1, 1, 0, 1, 1, 1])
        config = OracleConfig(
            fragment_sharing=False, duplicate=True,
            chunk_plan={"s0": [3, 5]}, step_chunk=2,
        )
        assert run_oracle(make_query(), feed, config).divergence is None

    def test_injected_compensation_bug_is_caught(self):
        feed = make_feed([0, 0, 1, 1, 0, 1, 1, 1])
        with BrokenMerge():
            divergence = run_oracle(make_query(), feed, OracleConfig()).divergence
        assert divergence is not None
        assert divergence.kind in ("rows", "window-count")
        assert "incremental" in (divergence.left, divergence.right)

    def test_config_json_roundtrip(self):
        config = OracleConfig(chunk_plan={"s0": [2, 2]}, step_chunk=3)
        clone = OracleConfig.from_json(json.loads(json.dumps(config.to_json())))
        assert clone == config
        # Reproducers saved before the thread-pool mode was removed.
        assert OracleConfig.from_json({**config.to_json(), "workers": 3}) == config


# ----------------------------------------------------------------------
# metamorphic relations
# ----------------------------------------------------------------------
class TestMetamorphic:
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_relations_hold_on_correct_engine(self, relation):
        divergence = check_relation(
            relation, make_query(), make_feed([0, 0, 1, 1, 0, 1, 1, 1]),
            seed=SEED, float_tol=1e-6,
        )
        assert divergence is None

    def test_window_count_relation_catches_injected_bug(self):
        # Re-running with |w|=1 changes how many partial bundles each
        # window merges, so a merge that drops a bundle breaks the
        # same-|W|-different-|w| invariance.
        feed = make_feed(list(range(10)))
        with BrokenMerge():
            divergence = check_relation(
                "window-count", make_query(), feed, seed=SEED, float_tol=1e-6
            )
        assert divergence is not None

    def test_relations_are_deterministic(self):
        generator = QueryGenerator(np.random.default_rng([SEED, 5]))
        query = generator.query("window-count")
        feed = generator.feed(query)
        for relation in RELATIONS:
            first = check_relation(relation, query, feed, 99, 1e-6)
            second = check_relation(relation, query, feed, 99, 1e-6)
            assert (first is None) == (second is None)


# ----------------------------------------------------------------------
# minimizer + replay format
# ----------------------------------------------------------------------
class TestMinimize:
    def failing_case(self, rows=12):
        query = make_query(
            where="c1 >= 0", order_by=["a0 DESC", "g0"], having=None
        )
        return ReproCase(
            query=query,
            feed=make_feed(list(range(rows))),
            config=OracleConfig(),
            seed=SEED,
            iteration=0,
        )

    def test_shrink_reduces_rows_and_keeps_failing(self):
        with BrokenMerge():
            case = self.failing_case()
            case.divergence = evaluate_case(case)
            assert case.divergence is not None
            minimized = shrink(case, max_runs=40)
            assert minimized.divergence is not None
            assert evaluate_case(minimized) is not None
        before = case.feed.row_count("s0")
        after = minimized.feed.row_count("s0")
        assert after < before
        assert minimized.query.where is None  # clause-level shrink ran

    def test_repro_json_roundtrip(self, tmp_path):
        case = self.failing_case()
        case.divergence = Divergence("rows", "incremental", "reference", 1, "boom")
        path = write_case(case, tmp_path / "case.repro.json")
        data = json.loads(path.read_text())
        assert data["format"] == FORMAT
        assert data["sql"] == case.query.sql
        loaded = load_case(path)
        assert loaded.query.sql == case.query.sql
        assert loaded.config == case.config
        assert loaded.divergence.kind == "rows"

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.repro.json"
        path.write_text(json.dumps({"format": "other/9"}))
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            load_case(path)

    def test_replay_exit_codes(self, tmp_path):
        case = self.failing_case()
        with BrokenMerge():
            case.divergence = evaluate_case(case)
            assert case.divergence is not None
            path = write_case(case, tmp_path / "case.repro.json")
            assert replay(str(path), out=io.StringIO()) == 1  # reproduces
        out = io.StringIO()
        assert replay(str(path), out=out) == 0  # bug "fixed" -> clean
        assert "did not reproduce" in out.getvalue()


# ----------------------------------------------------------------------
# runner + CLI
# ----------------------------------------------------------------------
class TestRunnerCli:
    def test_small_clean_session(self, tmp_path):
        out = io.StringIO()
        code = run_fuzz_cli(
            ["--budget", "8", "--seed", "3", "--out", str(tmp_path)], out=out
        )
        text = out.getvalue()
        assert code == 0
        assert "zero divergences" in text
        assert "seed=3" in text
        assert "operator class coverage" in text

    def test_seed_printed_when_drawn_from_entropy(self, tmp_path):
        out = io.StringIO()
        run_fuzz_cli(["--budget", "1", "--out", str(tmp_path)], out=out)
        assert "seed=" in out.getvalue()

    def test_bad_budget_exits_2(self):
        assert run_fuzz_cli(["--budget", "0"], out=io.StringIO()) == 2

    def test_replay_missing_file_exits_2(self):
        out = io.StringIO()
        assert run_fuzz_cli(["--replay", "/nonexistent.repro.json"], out=out) == 2
        assert "cannot replay" in out.getvalue()

    def test_session_coverage_counter_tracks_taxonomy(self, tmp_path):
        session = FuzzSession(
            budget=len(TAXONOMY), seed=5, out_dir=str(tmp_path),
            metamorphic=False, lint=False, out=io.StringIO(),
        )
        session.run()
        for feature in ("project", "single-stream"):
            assert session.coverage[feature] > 0

    def test_axis_draws_are_pinned_across_the_removed_workers_axis(self, tmp_path):
        """The `workers` axis is gone but its draw is still consumed, so a
        historical (seed, iteration) pair draws the axes it always drew
        (values recorded at the last commit that had the axis)."""
        generator = QueryGenerator(np.random.default_rng([11, 3]))
        query = generator.query("sum")
        feed = generator.feed(query, rows_scale=0.5)
        session = FuzzSession(budget=1, seed=0, out_dir=str(tmp_path), out=io.StringIO())
        drawn = [
            session._config(np.random.default_rng(seed), query, feed).describe()
            for seed in (1, 2, 3)
        ]
        assert drawn == [
            "sharing=False dup backend=compiled",
            "sharing=True chunked-feed backend=compiled partitions=3",
            "sharing=True lockcheck backend=compiled crash",
        ]

    def test_session_fuzzes_deep_windows(self, tmp_path):
        out = io.StringIO()
        session = FuzzSession(
            budget=2 * len(TAXONOMY), seed=4, out_dir=str(tmp_path),
            metamorphic=False, lint=False, out=out,
        )
        assert session.run() == 0
        assert session.coverage["window-deep"] > 0
        assert "window-deep" in out.getvalue()

    def test_injected_bug_end_to_end(self, tmp_path):
        """Acceptance: a broken merge is caught, shrunk, and written as a
        committed-format reproducer that replays deterministically."""
        out = io.StringIO()
        with BrokenMerge():
            code = run_fuzz_cli(
                [
                    "--budget", "24", "--seed", "3", "--out", str(tmp_path),
                    "--max-failures", "1", "--no-lint",
                ],
                out=out,
            )
        text = out.getvalue()
        assert code == 1
        assert "FAILURE iteration" in text
        assert "minimized:" in text
        assert "replay: python -m repro fuzz --replay" in text
        repros = sorted(tmp_path.glob("fuzz-3-*.repro.json"))
        assert repros
        data = json.loads(repros[0].read_text())
        assert data["format"] == FORMAT
        assert data["divergence"] is not None
        with BrokenMerge():
            assert replay(str(repros[0]), out=io.StringIO()) == 1
        assert replay(str(repros[0]), out=io.StringIO()) == 0  # after the fix
