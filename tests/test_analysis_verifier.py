"""Plan verifier: positive coverage of every rewrite shape, plus negative
tests proving distinct corrupted-plan classes are rejected with actionable
diagnostics."""

import copy
import dataclasses

import pytest

from repro import DataCellEngine
from repro.analysis import check_plan, verify_plan
from repro.core.rewriter import rewrite
from repro.core.rewriter.flows import Flow
from repro.errors import PlanVerificationError
from repro.kernel.atoms import Atom
from repro.kernel.execution.program import Instr, Ref
from repro.sql.logical import find_scans
from repro.sql.optimizer import optimize
from repro.sql.planner import plan_query


def make_engine():
    engine = DataCellEngine()
    engine.create_stream("s", [("x1", "int"), ("x2", "float")])
    engine.create_stream("s2", [("y1", "int"), ("y2", "int")])
    engine.create_table("t", [("k", "int"), ("v", "float")])
    return engine


def build(sql):
    engine = make_engine()
    planned = optimize(plan_query(sql, engine.catalog))
    schemas = {}
    for scan in find_scans(planned.plan):
        relation = (
            engine.catalog.stream(scan.relation)
            if scan.is_stream
            else engine.catalog.table(scan.relation)
        )
        schemas[scan.alias] = dict(relation.schema.columns)
    return rewrite(planned), schemas


def assert_clean(sql):
    plan, schemas = build(sql)
    report = verify_plan(plan, schemas)
    assert report.ok, report.render()
    check_plan(plan, schemas)  # must not raise
    return plan, schemas


# ----------------------------------------------------------------------
# positive: every rewrite shape verifies clean
# ----------------------------------------------------------------------
def test_single_stream_global_aggregation():
    plan, __ = assert_clean(
        "SELECT sum(x1) AS total, avg(x2) AS mean, count(*) AS n "
        "FROM s [RANGE 100 SLIDE 10]"
    )
    assert plan.fragment is not None and not plan.is_join


def test_single_stream_grouped_aggregation():
    plan, __ = assert_clean(
        "SELECT x1, min(x2), max(x2) FROM s [RANGE 64 SLIDE 8] "
        "WHERE x1 > 2 GROUP BY x1"
    )
    assert plan.grouped


def test_select_only_pack_flows():
    plan, __ = assert_clean(
        "SELECT x1, x2 FROM s [RANGE 16 SLIDE 4] WHERE x1 > 3"
    )
    assert all(flow.kind == "pack" for flow in plan.flows)


def test_stream_stream_join_pair_fragments():
    plan, __ = assert_clean(
        "SELECT max(a.x1), count(*) FROM s a [RANGE 32 SLIDE 4], "
        "s2 b [RANGE 32 SLIDE 4] WHERE a.x1 = b.y1"
    )
    assert plan.is_join and set(plan.preps) == {"a", "b"}


def test_stream_table_join():
    plan, __ = assert_clean(
        "SELECT sum(s.x1) FROM s [RANGE 16 SLIDE 8], t WHERE s.x1 = t.k"
    )
    assert plan.is_join and plan.table_alias == "t"


def test_landmark_window():
    assert_clean("SELECT sum(x1), count(*) FROM s [LANDMARK SLIDE 10]")


def test_time_based_window():
    assert_clean("SELECT avg(x2) FROM s [RANGE 10 SECONDS SLIDE 5 SECONDS]")


def test_verifies_without_schemas_too():
    plan, __ = build("SELECT x1, count(*) FROM s [RANGE 8 SLIDE 4] GROUP BY x1")
    assert verify_plan(plan).ok  # type checks degrade to unknown atoms


# ----------------------------------------------------------------------
# negative: distinct corruption classes, each with actionable diagnostics
# ----------------------------------------------------------------------
def errors_of(plan, schemas=None):
    return [d.message for d in verify_plan(plan, schemas).errors()]


def test_rejects_dangling_slot_reference():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    instr = plan.fragment.instructions[0]
    plan.fragment.instructions[0] = dataclasses.replace(
        instr, args=(Ref("no_such_slot"),)
    )
    messages = errors_of(plan, schemas)
    assert any("reads slot 'no_such_slot' before any definition" in m for m in messages)


def test_rejects_wrong_cost_tag():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    instr = plan.combine.instructions[0]
    plan.combine.instructions[0] = dataclasses.replace(instr, tag="main")
    messages = errors_of(plan, schemas)
    assert any("must be tagged admin or merge" in m for m in messages)


def test_rejects_illegal_cost_tag():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    instr = plan.fragment.instructions[0]
    plan.fragment.instructions[0] = dataclasses.replace(instr, tag="bogus")
    messages = errors_of(plan, schemas)
    assert any("illegal cost tag 'bogus'" in m for m in messages)


def test_rejects_dropped_avg_count_flow():
    plan, schemas = build("SELECT avg(x2) FROM s [RANGE 10 SLIDE 5]")
    plan.flows = [f for f in plan.flows if not f.name.endswith("__cnt")]
    messages = errors_of(plan, schemas)
    assert any("no matching count flow" in m for m in messages)
    assert any("the factory zips them positionally" in m for m in messages)


def test_rejects_packed_input_mismatch():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    plan.combine.inputs = tuple(
        "packed_bogus" if name == "packed_agg_0" else name
        for name in plan.combine.inputs
    )
    messages = errors_of(plan, schemas)
    assert any("combine must consume them" in m for m in messages)
    assert any("matches no declared flow" in m for m in messages)


def test_rejects_wrong_combine_opcode():
    # A count flow merged with aggr.count would re-count the partials
    # (yielding the number of basic windows, not the number of tuples).
    plan, schemas = build("SELECT count(*) FROM s [RANGE 10 SLIDE 5]")
    for index, instr in enumerate(plan.combine.instructions):
        if instr.opcode == "aggr.sum":
            plan.combine.instructions[index] = dataclasses.replace(
                instr, opcode="aggr.count"
            )
    messages = errors_of(plan, schemas)
    assert any("taxonomy mandates aggr.sum" in m for m in messages)


def test_rejects_forbidden_avg_opcode():
    plan, schemas = build("SELECT sum(x2) FROM s [RANGE 10 SLIDE 5]")
    scan = plan.fragment.inputs[0]
    plan.fragment.instructions = [
        Instr("aggr.avg", (Ref(scan),), plan.fragment.outputs)
    ]
    messages = errors_of(plan, schemas)
    assert any("expanding replication" in m for m in messages)


def test_rejects_double_assignment():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    plan.fragment.instructions.append(plan.fragment.instructions[0])
    messages = errors_of(plan, schemas)
    assert any("single-assignment" in m for m in messages)


def test_rejects_closure_atom_break():
    # Merging an int sum flow with calc.div makes the combined bundle
    # float — it could not re-enter the partial store.
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    flow = plan.flows[0].name
    for index, instr in enumerate(plan.combine.instructions):
        if flow in instr.outs:
            plan.combine.instructions[index] = Instr(
                "calc.div",
                (Ref(f"packed_{flow}"), Ref(f"packed_{flow}")),
                (flow,),
                "merge",
            )
    messages = errors_of(plan, schemas)
    assert any("not closed over bundles" in m for m in messages)


def test_rejects_declared_output_atom_mismatch():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    plan.output_atoms = [Atom.STR]
    messages = errors_of(plan, schemas)
    assert any("declared str but" in m for m in messages)


def test_rejects_unknown_flow_kind():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    plan.flows = [Flow(plan.flows[0].name, "median")]
    messages = errors_of(plan, schemas)
    assert any("unknown kind 'median'" in m for m in messages)


def test_rejects_grouped_plan_without_gkey():
    plan, schemas = build(
        "SELECT x1, count(*) FROM s [RANGE 10 SLIDE 5] GROUP BY x1"
    )
    plan.flows = [f for f in plan.flows if f.kind != "gkey"]
    messages = errors_of(plan, schemas)
    assert any("no gkey flow" in m for m in messages)


def test_check_plan_raises_with_rendered_diagnostics():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    instr = plan.combine.instructions[0]
    plan.combine.instructions[0] = dataclasses.replace(instr, tag="main")
    with pytest.raises(PlanVerificationError) as excinfo:
        check_plan(plan, schemas)
    assert "combine[0]" in str(excinfo.value)


def test_engine_debug_hook_verifies_at_submit():
    engine = make_engine()
    engine.verify_plans = True
    query = engine.submit("SELECT x1, sum(x2) FROM s [RANGE 8 SLIDE 4] GROUP BY x1")
    assert query.factory is not None


def test_deepcopy_isolation_of_fixtures():
    # Guard: mutations in negative tests never leak between cases.
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    clone = copy.deepcopy(plan)
    clone.flows = []
    assert plan.flows


# ----------------------------------------------------------------------
# tagged twins: the fill's fragment and preps
# ----------------------------------------------------------------------
def test_tagged_twins_verify_and_dump():
    from repro.analysis.pretty import dump_plan
    from repro.core.rewriter.incremental import TAGGED_FRAGMENT_TITLE

    plan, schemas = assert_clean("SELECT count(*) FROM s [RANGE 16 SLIDE 4]")
    assert plan.tagged_fragment.inputs == ("seq_s",)  # count(*) sized by the tag
    assert TAGGED_FRAGMENT_TITLE in dump_plan(plan, schemas)
    assert TAGGED_FRAGMENT_TITLE in plan.describe()
    join, __ = assert_clean(
        "SELECT sum(s.x1) FROM s [RANGE 16 SLIDE 8], t WHERE s.x1 = t.k"
    )
    assert join.preps["s"].tagged is not None and join.preps["t"].tagged is None
    assert "prep[s] (per tagged run of basic windows)" in join.describe()


def test_rejects_missing_tagged_fragment():
    plan, schemas = build("SELECT sum(x1) FROM s [RANGE 10 SLIDE 5]")
    plan.tagged_fragment = None
    assert "single-stream plan has no tagged fragment" in errors_of(plan, schemas)


def test_rejects_tagged_fragment_that_drops_the_tag():
    plan, schemas = build("SELECT x1, sum(x2) FROM s [RANGE 10 SLIDE 5] GROUP BY x1")
    plan.tagged_fragment.outputs = plan.tagged_fragment.outputs[:-1]
    assert any("one tag expected" in m for m in errors_of(plan, schemas))


def test_rejects_tagged_twin_with_other_atoms():
    plan, schemas = build("SELECT x1, sum(x2) FROM s [RANGE 10 SLIDE 5] GROUP BY x1")
    outputs = plan.tagged_fragment.outputs
    plan.tagged_fragment.outputs = (outputs[1], outputs[0], outputs[2])
    assert any("could not stand in for plain ones" in m for m in errors_of(plan, schemas))


def test_rejects_stream_prep_without_tagged_twin():
    plan, schemas = build(
        "SELECT max(a.x1) FROM s a [RANGE 32 SLIDE 4], s2 b [RANGE 32 SLIDE 4] "
        "WHERE a.x1 = b.y1"
    )
    plan.preps["b"].tagged = None
    assert "stream prep has no tagged twin" in errors_of(plan, schemas)
