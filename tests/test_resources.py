"""The plan resource-bound analyzer: lattice, bounds, diagnostics, CLI."""

import io
from pathlib import Path

import pytest

from repro.analysis.lint import run_lint_cli
from repro.analysis.resources import (
    UNBOUNDED,
    Bound,
    analyze_resources,
    combine_compacts,
)
from repro.core.engine import DataCellEngine
from repro.core.rewriter import rewrite
from repro.errors import ReproError
from repro.sql.optimizer import optimize
from repro.sql.planner import plan_query

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "resources"


def plan_for(sql, capacities=None, streams=None):
    engine = DataCellEngine()
    for name, cap in (capacities or {"s": None}).items():
        engine.create_stream(
            name,
            (streams or {}).get(name, [("a", "int"), ("b", "int")]),
            capacity=cap,
        )
    plan = rewrite(optimize(plan_query(sql, engine.catalog)))
    return plan, engine._capacities()


def analyze(sql, capacities=None, streams=None):
    plan, stream_capacities = plan_for(sql, capacities, streams)
    return analyze_resources(plan, stream_capacities, subject="test")


# ----------------------------------------------------------------------
# the bound lattice
# ----------------------------------------------------------------------
def test_bound_algebra():
    w = Bound(1, 1)
    assert Bound(3).add(Bound(4)) == Bound(7)
    assert Bound(3).mul(Bound(4)) == Bound(12)
    assert w.mul(w) == Bound(1, 2)
    assert Bound(2, 1).add(Bound(5)) == Bound(7, 1)  # degree dominates
    assert Bound(0).mul(UNBOUNDED) == Bound(0)
    assert not UNBOUNDED.add(Bound(1)).finite
    assert Bound(2).min_with(w) == Bound(2)  # constants below symbols
    assert Bound(2).max_with(w) == w


def test_bound_render():
    assert Bound(12).render() == "12"
    assert Bound(1, 1).render() == "W"
    assert Bound(3, 2).render() == "3·W^2"
    assert UNBOUNDED.render() == "unbounded"


# ----------------------------------------------------------------------
# per-plan bounds
# ----------------------------------------------------------------------
def test_sliding_aggregate_state_is_one_partial_per_window():
    result = analyze("SELECT sum(a) AS x FROM s [RANGE 100 SLIDE 10]")
    assert result.ok and result.bounded
    [alias] = result.aliases
    assert alias.window_tuples == Bound(10)
    assert alias.live_windows == Bound(10)
    # one scalar partial per basic window, plus the running table of this
    # invertible plan: the window's sum and its weight
    assert alias.state == Bound(10 + 2)


def test_select_only_state_scales_with_window():
    result = analyze("SELECT a, b FROM s [RANGE 100 SLIDE 10] WHERE a > 5")
    assert result.bounded
    # Two columns × 10 tuples × 10 live windows.
    assert result.total_state == Bound(200)


def test_landmark_aggregate_compacts_to_constant_state():
    plan, capacities = plan_for("SELECT sum(a) AS x FROM s [LANDMARK SLIDE 10]")
    assert combine_compacts(plan)
    result = analyze_resources(plan, capacities)
    assert result.bounded
    assert not result.report.warnings()


def test_landmark_select_is_flagged_unbounded():
    result = analyze("SELECT a FROM s [LANDMARK SLIDE 10] WHERE a > 3")
    assert not result.bounded
    [warning] = result.report.warnings()
    assert warning.code == "unbounded-landmark"
    assert "landmark" in warning.message
    assert "reset_landmark" in warning.message  # the hint names the remedy
    # A basket capacity never bounds the landmark's cumulative partial.
    assert "capacity" not in warning.message and "shedding" not in warning.message
    assert result.ok  # a warning, not an error: the engine accepts it


def test_capacity_below_one_basic_window_is_an_error():
    result = analyze(
        "SELECT sum(a) AS x FROM s [RANGE 100 SLIDE 10]", capacities={"s": 5}
    )
    assert not result.ok
    [error] = result.report.errors()
    assert error.code == "capacity-starved"
    assert "never fire" in error.message


def test_join_fanout_warning_and_pair_bounds():
    result = analyze(
        "SELECT max(s.a) AS x FROM s [RANGE 1024 SLIDE 8], r [RANGE 1024 SLIDE 8] "
        "WHERE s.a = r.a",
        capacities={"s": None, "r": None},
    )
    assert result.join_pairs == Bound(128 * 128)
    # Retained: one row per pair (a global max grouped by the seq-tag
    # pair); transient: the slide's one L-shaped run, a new left basic
    # window against the live right window and the older left windows
    # against a new right one.
    assert result.pair_state == Bound(1)
    assert result.join_transient == Bound(8 * 128 * 8 + 8 * 127 * 8)
    [warning] = [d for d in result.report.warnings() if d.code == "join-fanout"]
    assert "retains the rows of 16384 live basic-window pairs" in warning.message
    assert "16320 tuples" in warning.message
    assert "re-evaluates" not in warning.message


def test_grouped_join_pair_state_scales_with_the_pair():
    result = analyze(
        "SELECT s.b, count(*) AS n FROM s [RANGE 40 SLIDE 8], r [RANGE 40 SLIDE 8] "
        "WHERE s.a = r.a GROUP BY s.b",
        capacities={"s": None, "r": None},
    )
    assert result.join_pairs == Bound(25)
    assert result.pair_state == Bound(2 * 8 * 8)  # key + count per joined row
    assert result.join_transient == Bound(8 * 5 * 8 + 8 * 4 * 8)
    assert not result.report.warnings()


def test_time_based_window_keeps_the_symbol():
    result = analyze("SELECT avg(a) AS x FROM s [RANGE 40 SECONDS SLIDE 10 SECONDS]")
    assert result.bounded
    [alias] = result.aliases
    assert alias.window_tuples == Bound(1, 1)
    assert alias.basket_need == Bound(1, 1)  # unknown, never "starved"


def test_report_json_roundtrip():
    result = analyze("SELECT sum(a) AS x FROM s [RANGE 100 SLIDE 10]")
    data = result.to_json()
    assert data["bounded"] is True
    assert data["total_state"]["text"] == "12"  # 10 partials, the sum, its weight
    assert data["aliases"][0]["window"]["kind"] == "sliding"


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def test_submit_attaches_resources_to_the_handle():
    engine = DataCellEngine()
    engine.create_stream("s", [("a", "int")])
    handle = engine.submit("SELECT sum(a) AS x FROM s [RANGE 40 SLIDE 10]")
    assert handle.resources is not None
    assert handle.resources.bounded
    reeval = engine.submit(
        "SELECT sum(a) AS x FROM s [RANGE 40 SLIDE 10]", mode="reeval"
    )
    assert reeval.resources is None


def test_verify_plans_raises_on_capacity_starvation():
    engine = DataCellEngine(verify_plans=True)
    engine.create_stream("s", [("a", "int")], capacity=5)
    with pytest.raises(ReproError, match="capacity-starved|capacity 5"):
        engine.submit("SELECT sum(a) AS x FROM s [RANGE 40 SLIDE 10]")
    # Without verify mode the same submit goes through (warn-at-runtime).
    lenient = DataCellEngine()
    lenient.create_stream("s", [("a", "int")], capacity=5)
    handle = lenient.submit("SELECT sum(a) AS x FROM s [RANGE 40 SLIDE 10]")
    assert not handle.resources.ok


# ----------------------------------------------------------------------
# repro lint --resources
# ----------------------------------------------------------------------
def run_lint(argv):
    out = io.StringIO()
    code = run_lint_cli(argv, out=out)
    return code, out.getvalue()


def test_lint_resources_reports_finite_bounds_for_shipped_queries():
    repo = Path(__file__).resolve().parent.parent
    code, output = run_lint(
        ["--resources", str(repo / "examples"), str(repo / "benchmarks")]
    )
    assert code == 0, output
    assert "state bound:" in output
    # Acceptance: every shipped query has a finite bound (the landmark
    # examples all aggregate, so they compact).
    assert "state bound: unbounded" not in output


def test_lint_resources_flags_the_landmark_fixture():
    code, output = run_lint(
        ["--resources", str(FIXTURES / "landmark_example.py")]
    )
    assert code == 0, output  # warning-severity: reported, not fatal
    assert "unbounded-landmark" in output
    assert "state bound: unbounded" in output


def test_lint_sql_resources_with_declared_schema():
    code, output = run_lint(
        [
            "--resources",
            "--sql",
            "SELECT sum(x) AS t FROM s [RANGE 64 SLIDE 8]",
            "--stream",
            "s(x int)",
        ]
    )
    assert code == 0, output
    assert "state bound: 10" in output  # 8 partials + the running sum and its weight
